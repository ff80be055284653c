package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// The compile claimant — the request that claims a compile key — compiles
// and runs its job on one pooled machine through compiler.CompileRun, so a
// measured compile's run is selection's end state. Every other request
// runs the cached artifact, through the same job pipeline on its own pooled
// machine. These tests pin that the two paths answer alike and that
// cancelling a claimant frees its slot.

// fusedPrograms are the oracle's programs, each with a small, unmeasured
// last region: a fused run must resume selection's end state through it.
var fusedPrograms = map[string]string{
	"kernels": `{"kind": "kernels", "name": "fuse", "kernels": [
		{"kind": "ilp-loop", "name": "i", "n": 48},
		{"kind": "pipeline", "name": "p", "n": 48},
		{"kind": "doall-map", "name": "m", "n": 64, "work": 2},
		{"kind": "serial-chain", "name": "t", "n": 2}
	]}`,
	"source": `{"kind": "source", "name": "fuse", "source": "param n = 96;\narray xs[n] int = {3, 1, 4, 1, 5, 9, 2, 6};\narray ys[n] int;\nvar acc int = 0;\nvar h int = 7;\nfunc main() {\n\tfor i = 1; i < n; i = i + 1 {\n\t\tys[i] = ys[i - 1] * 3 + xs[i];\n\t}\n\tfor i = 0; i < n; i = i + 1 {\n\t\tacc = acc + ys[i] * xs[i];\n\t}\n\tfor i = 0; i < 3; i = i + 1 {\n\t\th = h * 5 + acc;\n\t}\n}\n"}`,
}

// TestFusedClaimantMatchesCompileHit runs every job twice, on two fresh
// servers. On server A the plain job claims the compile, so its body comes
// from CompileRun on a pooled machine, and a queue-latency variant of it
// is a compile hit that runs the cached artifact. On server B the variant claims first
// and the plain job is the compile hit. Both jobs' bodies must be
// byte-identical across the servers. The matrix is ilp, ftlp and hybrid
// (measured and auto) at 2, 4, 16 and 64 cores over a kernels and a source
// program, plus an ftlp mesh_cols claimant, whose machine does not have
// the eval shape. Only an untraced, unablated claimant can fuse.
func TestFusedClaimantMatchesCompileHit(t *testing.T) {
	type jobCase struct {
		name, plain, variant string
	}
	job := func(prog, strat, sel string, cores int, machine string) string {
		return fmt.Sprintf(`{"program": %s, "strategy": %q, "cores": %d, "compiler": {"select": %q}%s}`,
			fusedPrograms[prog], strat, cores, sel, machine)
	}
	var cases []jobCase
	for _, prog := range []string{"kernels", "source"} {
		for _, st := range []struct{ strat, sel string }{
			{"ilp", "measured"}, {"ftlp", "measured"}, {"hybrid", "measured"}, {"hybrid", "auto"},
		} {
			for _, cores := range []int{2, 4, 16, 64} {
				cases = append(cases, jobCase{
					name:    fmt.Sprintf("%s/%s-%s/%d", prog, st.strat, st.sel, cores),
					plain:   job(prog, st.strat, st.sel, cores, ""),
					variant: job(prog, st.strat, st.sel, cores, `, "machine": {"queue_base_lat": 7}`),
				})
			}
		}
	}
	mesh := jobCase{
		name:    "kernels/ftlp-mesh8/16",
		plain:   job("kernels", "ftlp", "measured", 16, `, "machine": {"mesh_cols": 8}`),
		variant: job("kernels", "ftlp", "measured", 16, `, "machine": {"mesh_cols": 8, "queue_base_lat": 7}`),
	}
	cases = append(cases, mesh)

	post := func(t *testing.T, ts *httptest.Server, body, wantCompile string) string {
		t.Helper()
		resp, b := postJob(t, ts, body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, b)
		}
		if got := resp.Header.Get("X-Voltron-Compile-Cache"); got != wantCompile {
			t.Fatalf("X-Voltron-Compile-Cache = %q, want %q", got, wantCompile)
		}
		return string(b)
	}
	fused := int64(0)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			a, tsA := newTestServer(t, Config{Workers: 2})
			b, tsB := newTestServer(t, Config{Workers: 2})
			plainA := post(t, tsA, c.plain, "miss")
			variantA := post(t, tsA, c.variant, "hit")
			variantB := post(t, tsB, c.variant, "miss")
			plainB := post(t, tsB, c.plain, "hit")
			if plainA != plainB {
				t.Errorf("plain job: claimant body differs from compile-hit body\nclaimant: %s\nhit:      %s", plainA, plainB)
			}
			if variantA != variantB {
				t.Errorf("queue-latency variant: compile-hit body differs from claimant body\nhit:      %s\nclaimant: %s", variantA, variantB)
			}
			ma, mb := a.Metrics(), b.Metrics()
			if mb.FusedRuns != 0 {
				t.Errorf("the queue-latency claimant fused (%d runs); its machine cannot resume selection's", mb.FusedRuns)
			}
			if c.name == mesh.name && ma.FusedRuns != 0 {
				t.Errorf("the mesh_cols claimant fused (%d runs); its machine cannot resume selection's", ma.FusedRuns)
			}
			for _, m := range []MetricsSnapshot{ma, mb} {
				if m.MachinePoolHits+m.MachinePoolNews != m.Simulations || m.Simulations != 2 {
					t.Errorf("pool accounting: hits %d + news %d, simulations %d (want 2)",
						m.MachinePoolHits, m.MachinePoolNews, m.Simulations)
				}
			}
			fused += ma.FusedRuns
		})
	}
	if t.Logf("%d of %d plain claimants fused", fused, len(cases)); fused == 0 {
		t.Error("no claimant fused")
	}
}

// TestClaimantCancelFreesSlots cancels a 64-core hybrid job while its
// claimant is in measured selection, on a one-worker server. The handler
// must answer canceled promptly, the job queued behind it must then get
// the worker slot, the gauges must return to 0, and the canceled compile must
// not be cached: the same job, sent again, compiles and succeeds.
func TestClaimantCancelFreesSlots(t *testing.T) {
	s := New(Config{Workers: 1})
	h := s.Handler()
	// Selection dominates this job: one measured region whose candidates
	// each simulate 32K iterations on 64 cores.
	slow := `{"program": {"kind": "kernels", "name": "slow", "kernels": [
		{"kind": "ilp-loop", "name": "i", "n": 32768}
	]}, "strategy": "hybrid", "cores": 64}`
	serve := func(ctx context.Context, body string) <-chan *httptest.ResponseRecorder {
		done := make(chan *httptest.ResponseRecorder, 1)
		go func() {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/jobs", strings.NewReader(body)).WithContext(ctx))
			done <- rec
		}()
		return done
	}
	await := func(what string, done <-chan *httptest.ResponseRecorder, within time.Duration) *httptest.ResponseRecorder {
		t.Helper()
		select {
		case rec := <-done:
			return rec
		case <-time.After(within):
			t.Fatalf("%s: no answer within %v", what, within)
			return nil
		}
	}

	// Validating the job resolves its program into the program tier, so
	// the job itself does not profile and the cancel lands in selection.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/validate", strings.NewReader(slow)))
	if rec.Code != http.StatusOK {
		t.Fatalf("validate: status %d, body %s", rec.Code, rec.Body.Bytes())
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	slowDone := serve(ctx, slow)
	// InFlight reaches 1 once the claimant holds the slot and its machine.
	deadline := time.Now().Add(10 * time.Second)
	for s.Metrics().InFlight != 1 {
		if time.Now().After(deadline) {
			t.Fatal("the claimant never started")
		}
		time.Sleep(time.Millisecond)
	}
	queuedDone := serve(context.Background(), sourceJob(""))
	time.Sleep(50 * time.Millisecond) // into selection: profiling takes milliseconds
	select {
	case rec := <-queuedDone:
		t.Fatalf("the queued job finished (status %d) while the claimant held the slot", rec.Code)
	default:
	}
	cancel()
	rec = await("canceled claimant", slowDone, 5*time.Second)
	var er ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil {
		t.Fatalf("canceled claimant body %s: %v", rec.Body.Bytes(), err)
	}
	if er.Code != "canceled" && er.Code != "timeout" {
		t.Errorf("canceled claimant answered %d with code %q, want canceled or timeout", rec.Code, er.Code)
	}
	if !strings.Contains(er.Error, "measured selection") {
		t.Errorf("the cancel did not land in measured selection: %s", er.Error)
	}

	rec = await("queued job", queuedDone, 30*time.Second)
	if rec.Code != http.StatusOK {
		t.Fatalf("queued job: status %d, body %s", rec.Code, rec.Body.Bytes())
	}
	if got := rec.Header().Get("X-Voltron-Compile-Cache"); got != "miss" {
		t.Errorf("queued job X-Voltron-Compile-Cache = %q, want miss", got)
	}
	waitForIdle(t, s)

	rec = await("resent job", serve(context.Background(), slow), 60*time.Second)
	if rec.Code != http.StatusOK {
		t.Fatalf("resent job: status %d, body %s", rec.Code, rec.Body.Bytes())
	}
	if got := rec.Header().Get("X-Voltron-Compile-Cache"); got != "miss" {
		t.Errorf("resent job X-Voltron-Compile-Cache = %q, want miss (the canceled compile was cached)", got)
	}
	waitForIdle(t, s)
	if m := s.Metrics(); m.MachinePoolHits+m.MachinePoolNews != m.Simulations {
		t.Errorf("pool accounting: hits %d + news %d != simulations %d",
			m.MachinePoolHits, m.MachinePoolNews, m.Simulations)
	}
}
