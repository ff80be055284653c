package server

import (
	"context"
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
	"weak"

	"voltron/internal/compiler"
	"voltron/internal/core"
	"voltron/internal/spec"
	"voltron/internal/trace"
)

// testRequest decodes and normalizes the tinyJob request.
func testRequest(t testing.TB) *spec.JobRequest {
	t.Helper()
	req, _, err := spec.DecodeJob(strings.NewReader(tinyJob()))
	if err != nil {
		t.Fatal(err)
	}
	if err := req.Normalize(func(string) bool { return false }); err != nil {
		t.Fatal(err)
	}
	return req
}

// testCompiled compiles the tinyJob program the way the server would.
func testCompiled(t testing.TB) (*core.CompiledProgram, core.Config, string) {
	t.Helper()
	req := testRequest(t)
	p, err := req.Program.Build()
	if err != nil {
		t.Fatal(err)
	}
	cp, err := compiler.Compile(p, req.CompilerOpts())
	if err != nil {
		t.Fatal(err)
	}
	return cp, req.MachineConfig(nil), req.MachineKey()
}

// TestMachinePoolExclusiveOwnership hammers one pool from 16 goroutines
// under -race: a machine handed out by get must never be owned by two
// workers at once (Machine state is not goroutine-safe, so an aliased
// machine is both a logic bug and a data race the detector would flag via
// the concurrent RunContext calls).
func TestMachinePoolExclusiveOwnership(t *testing.T) {
	cp, cfg, key := testCompiled(t)
	pool := newMachinePool(2)
	var inUse sync.Map
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				m := pool.get(key, cfg)
				if _, loaded := inUse.LoadOrStore(m, true); loaded {
					t.Error("pool handed one machine to two concurrent owners")
				}
				if _, err := m.RunContext(context.Background(), cp); err != nil {
					t.Error(err)
				}
				inUse.Delete(m)
				pool.put(key, m)
			}
		}()
	}
	wg.Wait()
	if got := pool.size(); got > 2 {
		t.Errorf("pool holds %d idle machines for one key, bound is 2", got)
	}
}

// TestMachinePoolWideShapeReset cycles warm machines through many-core
// shape changes under -race: 8 goroutines run a hybrid job at 16, 32 and
// 64 cores (one 64-core variant on a non-default 16×4 mesh) against one
// small pool, deliberately sharing a single pool key so every get may hand
// back a machine of a different width and Reset must take the rebuild path
// (cores, memory and mesh columns are rebuild keys). Every run has to
// reproduce the result a fresh machine computes for that shape.
func TestMachinePoolWideShapeReset(t *testing.T) {
	type shape struct {
		cp   *core.CompiledProgram
		cfg  core.Config
		want string
	}
	fingerprint := func(res *core.RunResult) string {
		return fmt.Sprintf("%v %+v %+v", res.RegionCycles, res.Run, res.MemStats)
	}
	var shapes []shape
	for _, v := range []struct{ cores, mesh int }{{16, 0}, {32, 0}, {64, 0}, {64, 16}} {
		machine := ""
		if v.mesh != 0 {
			machine = fmt.Sprintf(`, "machine": {"mesh_cols": %d}`, v.mesh)
		}
		job := fmt.Sprintf(`{"program": {"kind": "kernels", "name": "wide", "kernels": [
			{"kind": "doall-map", "name": "m", "n": 96, "work": 2},
			{"kind": "serial-chain", "name": "c", "n": 16}
		]}, "strategy": "hybrid", "cores": %d%s}`, v.cores, machine)
		req, _, err := spec.DecodeJob(strings.NewReader(job))
		if err != nil {
			t.Fatal(err)
		}
		if err := req.Normalize(func(string) bool { return false }); err != nil {
			t.Fatal(err)
		}
		p, err := req.Program.Build()
		if err != nil {
			t.Fatal(err)
		}
		cp, err := compiler.Compile(p, req.CompilerOpts())
		if err != nil {
			t.Fatal(err)
		}
		cfg := req.MachineConfig(nil)
		res, err := core.New(cfg).RunContext(context.Background(), cp)
		if err != nil {
			t.Fatal(err)
		}
		shapes = append(shapes, shape{cp: cp, cfg: cfg, want: fingerprint(res)})
	}
	pool := newMachinePool(1)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 12; i++ {
				s := shapes[(g+i)%len(shapes)]
				m := pool.get("shared", s.cfg)
				res, err := m.RunContext(context.Background(), s.cp)
				if err != nil {
					t.Error(err)
				} else if got := fingerprint(res); got != s.want {
					t.Errorf("reset machine diverged at %d cores:\ngot  %s\nwant %s",
						s.cfg.Cores, got, s.want)
				}
				pool.put("shared", m)
			}
		}(g)
	}
	wg.Wait()
}

// TestPooledMatchesFreshServer runs one job mix through a single pooled
// server and, as the reference, each job through a new server, whose empty
// pool builds every machine with core.New. Every response body must be
// byte-identical (the response is rendered from the RunResult, so equal
// bodies mean equal simulations).
func TestPooledMatchesFreshServer(t *testing.T) {
	jobs := []string{
		tinyJob(),
		`{"program": {"kind": "kernels", "name": "tiny", "kernels": [
			{"kind": "doall-map", "name": "m", "n": 64, "work": 2},
			{"kind": "serial-chain", "name": "c", "n": 16}
		]}, "strategy": "hybrid", "cores": 4, "baseline": true}`,
		`{"program": {"kind": "kernels", "name": "pipe", "kernels": [
			{"kind": "pipeline", "name": "p", "n": 48}
		]}, "strategy": "ftlp", "cores": 4, "trace": true}`,
		`{"program": {"kind": "kernels", "name": "ilp", "kernels": [
			{"kind": "ilp-loop", "name": "i", "n": 32}
		]}, "strategy": "ilp", "cores": 2}`,
		tinyJob(), // repeat: served from cache, must match the first answer
	}
	s, pooled := newTestServer(t, Config{Workers: 2})
	for i, job := range jobs {
		fs, fresh := newTestServer(t, Config{Workers: 2})
		respP, bodyP := postJob(t, pooled, job)
		respF, bodyF := postJob(t, fresh, job)
		if respP.StatusCode != http.StatusOK || respF.StatusCode != http.StatusOK {
			t.Fatalf("job %d: status pooled=%d fresh=%d, body %s", i, respP.StatusCode, respF.StatusCode, bodyP)
		}
		if string(bodyP) != string(bodyF) {
			t.Errorf("job %d: pooled body differs from fresh\npooled: %s\nfresh:  %s", i, bodyP, bodyF)
		}
		if h := fs.Metrics().MachinePoolHits; h != 0 {
			t.Errorf("job %d: the reference server reused %d pooled machine(s)", i, h)
		}
	}
	if s.Metrics().MachinePoolHits == 0 {
		t.Error("the pooled server never reused a machine")
	}
}

// TestCompileCacheSharedAcrossVariants: trace variants and machine-latency
// ablations of one program × strategy must share a single compile, reported
// per request by the X-Voltron-Compile-Cache header and in aggregate by
// /metrics.
func TestCompileCacheSharedAcrossVariants(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	post := func(body, wantRun, wantCompile string) {
		t.Helper()
		resp, b := postJob(t, ts, body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, b)
		}
		if got := resp.Header.Get("X-Voltron-Cache"); got != wantRun {
			t.Errorf("X-Voltron-Cache = %q, want %q", got, wantRun)
		}
		if got := resp.Header.Get("X-Voltron-Compile-Cache"); got != wantCompile {
			t.Errorf("X-Voltron-Compile-Cache = %q, want %q", got, wantCompile)
		}
	}
	job := func(extra string) string {
		return `{"program": {"kind": "kernels", "name": "ccache", "kernels": [
			{"kind": "doall-map", "name": "m", "n": 64, "work": 2}
		]}, "strategy": "llp", "cores": 2` + extra + `}`
	}
	// Distinct run keys, one compiled artifact.
	post(job(``), "miss", "miss")
	post(job(`, "trace": true`), "miss", "hit")
	post(job(`, "machine": {"queue_base_lat": 7}`), "miss", "hit")
	// A result-cache hit never consults the compile stage: no header.
	post(job(``), "hit", "")
	// A different strategy is a different artifact.
	post(`{"program": {"kind": "kernels", "name": "ccache", "kernels": [
			{"kind": "doall-map", "name": "m", "n": 64, "work": 2}
		]}, "strategy": "hybrid", "cores": 2}`, "miss", "miss")

	m := s.Metrics()
	if m.CompileCacheMisses != 2 || m.CompileCacheHits != 2 {
		t.Errorf("compile cache hits=%d misses=%d, want 2/2", m.CompileCacheHits, m.CompileCacheMisses)
	}
	if m.CompileCacheEntries != 2 {
		t.Errorf("compile cache entries = %d, want 2", m.CompileCacheEntries)
	}
	if want := 0.5; m.CompileCacheHitRatio != want {
		t.Errorf("compile cache hit ratio = %v, want %v", m.CompileCacheHitRatio, want)
	}
}

// TestPoolMetricsAccount: across a burst of distinct jobs, every simulation
// got its machine from the pool (hits + news == simulations), the pool
// retains warm machines afterwards, and repeated bursts reuse them.
func TestPoolMetricsAccount(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2, CacheEntries: 1})
	job := func(n int) string {
		return fmt.Sprintf(`{"program": {"kind": "kernels", "name": "burst", "kernels": [
			{"kind": "doall-map", "name": "m", "n": %d, "work": 2}
		]}, "strategy": "llp", "cores": 2}`, 64+16*n)
	}
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, b := postJob(t, ts, job(i))
			if resp.StatusCode != http.StatusOK {
				t.Errorf("job %d: status %d: %s", i, resp.StatusCode, b)
			}
		}(i)
	}
	wg.Wait()
	waitForIdle(t, s)
	m := s.Metrics()
	if m.MachinePoolHits+m.MachinePoolNews != m.Simulations {
		t.Errorf("pool accounting: hits %d + news %d != simulations %d",
			m.MachinePoolHits, m.MachinePoolNews, m.Simulations)
	}
	if m.MachinePoolIdle == 0 {
		t.Error("no warm machines retained after the burst")
	}
	if m.MachinePoolResets != m.MachinePoolHits {
		t.Errorf("resets %d != hits %d", m.MachinePoolResets, m.MachinePoolHits)
	}
	// A second identical burst runs entirely on warm machines.
	news := m.MachinePoolNews
	for i := 0; i < 6; i++ {
		// CacheEntries: 1 evicts all but the last body, so these re-simulate.
		if resp, b := postJob(t, ts, job(i)); resp.StatusCode != http.StatusOK {
			t.Fatalf("rerun %d: status %d: %s", i, resp.StatusCode, b)
		}
	}
	waitForIdle(t, s)
	if m = s.Metrics(); m.MachinePoolNews != news {
		t.Errorf("serial rerun built %d fresh machines, want 0", m.MachinePoolNews-news)
	}
}

// TestPanickingRunDropsMachine makes a run panic inside RunContext (an
// artifact with no source program panics building its memory image) and
// checks, under -race, that Server.run neither re-pools the machine it was
// running on nor keeps its worker slot: with one worker, the next run must
// acquire the slot and run on a freshly built machine.
func TestPanickingRunDropsMachine(t *testing.T) {
	s := New(Config{Workers: 1})
	req := testRequest(t)
	cp, _, _ := testCompiled(t)
	bad := &core.CompiledProgram{Name: "no-source", Cores: cp.Cores}
	before := s.pool.size()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("run of an artifact with no source program did not panic")
			}
		}()
		s.run(context.Background(), req, bad, nil)
	}()
	if got := s.pool.size(); got != before {
		t.Errorf("pool holds %d idle machines after the panicking run, want %d", got, before)
	}
	if n := s.running.Value(); n != 0 {
		t.Errorf("%d runs still counted as running after the panic", n)
	}
	news := s.pool.news.Value()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := s.run(ctx, req, cp, nil); err != nil {
		t.Fatalf("run after the panicking run: %v", err)
	}
	if got := s.pool.news.Value() - news; got != 1 {
		t.Errorf("run after the panicking run built %d fresh machines, want 1", got)
	}
	if got := s.pool.size(); got != before+1 {
		t.Errorf("pool holds %d idle machines after a good run, want %d", got, before+1)
	}
}

// TestTracedRunReleasesTracer checks that a traced job's tracer becomes
// garbage once the job returns: the machine it ran on goes back to the
// pool, and an idle pooled machine must not keep the last run's event
// stream alive.
func TestTracedRunReleasesTracer(t *testing.T) {
	s := New(Config{Workers: 1})
	req := testRequest(t)
	cp, _, _ := testCompiled(t)
	tr := trace.New()
	wp := weak.Make(tr)
	if _, err := s.run(context.Background(), req, cp, tr); err != nil {
		t.Fatal(err)
	}
	if len(tr.Events) == 0 {
		t.Fatal("traced run collected no events")
	}
	if s.pool.size() != 1 {
		t.Fatalf("pool holds %d idle machines after the run, want 1", s.pool.size())
	}
	tr = nil
	runtime.GC()
	if wp.Value() != nil {
		t.Error("an idle pooled machine still references the last run's tracer")
	}
	runtime.KeepAlive(s) // the pool must be live for the check to mean anything
}
