package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"voltron/internal/spec"
)

// The source-program surface: user programs POSTed as language text flow
// through the same job pipeline (normalize → key → compile cache → warm
// machine), fail with positioned diagnostics, and validate without
// simulating.

// sourceJob is a small user program with a DOALL map and a reduction.
func sourceJob(extra string) string {
	src := `param n = 256;\narray xs[n] int = {3, 1, 4, 1, 5, 9, 2, 6};\narray ys[n] int;\nvar acc int = 0;\nfunc main() {\n\tfor i = 0; i < n; i = i + 1 {\n\t\tys[i] = xs[i] * 2 + i;\n\t}\n\tfor i = 0; i < n; i = i + 1 {\n\t\tacc = acc + ys[i];\n\t}\n}\n`
	return `{
		"program": {"kind": "source", "name": "user", "source": "` + src + `"},
		"strategy": "hybrid", "cores": 4` + extra + `
	}`
}

// TestSourceJob drives a language program end to end through POST /v1/jobs:
// the first run compiles (compile-cache miss), the traced twin — a distinct
// run key that shares the compile key — reuses the artifact (compile-cache
// hit) and returns a trace URL plus a stall report.
func TestSourceJob(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, b := postJob(t, ts, sourceJob(""))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, b)
	}
	if got := resp.Header.Get("X-Voltron-Compile-Cache"); got != "miss" {
		t.Errorf("first run X-Voltron-Compile-Cache = %q, want miss", got)
	}
	jr := decodeJob(t, b)
	if jr.Program != "user" || jr.Bench != "" {
		t.Errorf("response program=%q bench=%q, want user/", jr.Program, jr.Bench)
	}
	if jr.TotalCycles <= 0 {
		t.Errorf("total_cycles = %d, want > 0", jr.TotalCycles)
	}

	// The traced twin is a new job (trace is in the run key) but the same
	// artifact (trace is not in the compile key): the second request must
	// hit the compile cache and carry the trace.
	resp2, b2 := postJob(t, ts, sourceJob(`, "trace": true`))
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("traced status = %d, body %s", resp2.StatusCode, b2)
	}
	if got := resp2.Header.Get("X-Voltron-Cache"); got != "miss" {
		t.Errorf("traced twin X-Voltron-Cache = %q, want miss (distinct run key)", got)
	}
	if got := resp2.Header.Get("X-Voltron-Compile-Cache"); got != "hit" {
		t.Errorf("traced twin X-Voltron-Compile-Cache = %q, want hit", got)
	}
	jr2 := decodeJob(t, b2)
	if jr2.TraceURL == "" || jr2.StallReport == nil {
		t.Fatalf("traced source job missing trace_url/stall_report: %s", b2)
	}
	if !strings.HasPrefix(jr2.TraceURL, "/v1/traces/") {
		t.Fatalf("trace_url = %q", jr2.TraceURL)
	}
	if tresp, err := http.Get(ts.URL + jr2.TraceURL); err != nil || tresp.StatusCode != http.StatusOK {
		t.Errorf("trace fetch failed: %v / %v", err, tresp.Status)
	} else {
		tresp.Body.Close()
	}
	if jr2.TotalCycles != jr.TotalCycles {
		t.Errorf("tracing changed the result: %d vs %d cycles", jr2.TotalCycles, jr.TotalCycles)
	}

	// Re-POSTing the original body is a pure result-cache hit.
	resp3, _ := postJob(t, ts, sourceJob(""))
	if got := resp3.Header.Get("X-Voltron-Cache"); got != "hit" {
		t.Errorf("repeat X-Voltron-Cache = %q, want hit", got)
	}
}

// TestSourceJobDiagnostics: a source program that fails the frontend is a
// 400 with the stable bad_source code and positioned diagnostics.
func TestSourceJobDiagnostics(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := `{"program": {"kind": "source", "source": "param n = 4;\nfunc main() {\n\tundeclared = 1;\n}\n"}}`
	resp, b := postJob(t, ts, body)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, body %s", resp.StatusCode, b)
	}
	var er ErrorResponse
	if err := json.Unmarshal(b, &er); err != nil {
		t.Fatalf("decoding error body %s: %v", b, err)
	}
	if er.Code != spec.ErrBadSource {
		t.Errorf("code = %q, want %q", er.Code, spec.ErrBadSource)
	}
	if er.SchemaVersion != spec.SchemaVersion {
		t.Errorf("schema_version = %d, want %d", er.SchemaVersion, spec.SchemaVersion)
	}
	if len(er.Diagnostics) == 0 {
		t.Fatalf("no diagnostics in %s", b)
	}
	d := er.Diagnostics[0]
	if d.Code == "" || d.Message == "" || d.Line != 3 || d.Col == 0 {
		t.Errorf("diagnostic not positioned: %+v", d)
	}
}

func postValidate(t *testing.T, ts *httptest.Server, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/validate", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatalf("POST /v1/validate: %v", err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("reading body: %v", err)
	}
	return resp, b
}

// TestValidateSource: /v1/validate parses, type-checks and classifies a
// source program without simulating; the response names every region with
// its tier and chosen strategy.
func TestValidateSource(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	resp, b := postValidate(t, ts, sourceJob(""))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, b)
	}
	var vr ValidateResponse
	if err := json.Unmarshal(b, &vr); err != nil {
		t.Fatalf("decoding %s: %v", b, err)
	}
	if vr.SchemaVersion != spec.SchemaVersion || vr.Program != "user" || vr.Kind != spec.KindSource {
		t.Errorf("header fields wrong: %+v", vr)
	}
	if len(vr.Regions) == 0 {
		t.Fatalf("no regions in %s", b)
	}
	for _, r := range vr.Regions {
		if r.Name == "" || r.Tier == "" || r.Choice == "" {
			t.Errorf("incomplete region entry: %+v", r)
		}
	}
	// Nothing simulated, nothing cached: the identical job still misses.
	if _, ok := s.cache.Completed(mustKey(t, sourceJob(""))); ok {
		t.Error("validate populated the result cache")
	}
}

// TestValidateDiagnostics: validation failures return the same typed error
// model as the job path.
func TestValidateDiagnostics(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := `{"program": {"kind": "source", "source": "func main() { x = }"}}`
	resp, b := postValidate(t, ts, body)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, body %s", resp.StatusCode, b)
	}
	var er ErrorResponse
	if err := json.Unmarshal(b, &er); err != nil {
		t.Fatalf("decoding error body %s: %v", b, err)
	}
	if er.Code != spec.ErrBadSource || len(er.Diagnostics) == 0 {
		t.Errorf("code = %q with %d diagnostics, want %q with >= 1", er.Code, len(er.Diagnostics), spec.ErrBadSource)
	}
}

// TestValidateBench: benchmarks validate through the suite's pre-built
// programs and profiles.
func TestValidateBench(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, b := postValidate(t, ts, `{"program": {"kind": "bench", "bench": "rawcaudio"}, "cores": 4}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, b)
	}
	var vr ValidateResponse
	if err := json.Unmarshal(b, &vr); err != nil {
		t.Fatalf("decoding %s: %v", b, err)
	}
	if vr.Kind != spec.KindBench || len(vr.Regions) == 0 {
		t.Errorf("bench validate: %+v", vr)
	}
}

// TestValidateMatchesCompile: validate reports the plan the compiler
// installs, including for compiles that run no strategy selection — an llp
// job lowers its DOALL map to transactions, so it validates as LLP, not as
// the single-core plan a selecting classifier would report.
func TestValidateMatchesCompile(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, b := postValidate(t, ts, `{"program": {"kind": "kernels", "kernels": [{"kind": "doall-map"}]}, "strategy": "llp", "cores": 4}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, b)
	}
	var vr ValidateResponse
	if err := json.Unmarshal(b, &vr); err != nil {
		t.Fatalf("decoding %s: %v", b, err)
	}
	if len(vr.Regions) != 1 || vr.Regions[0].Choice != "LLP" || vr.Regions[0].Tier != "doall" {
		t.Errorf("llp doall-map validates as %+v, want one LLP region of tier doall", vr.Regions)
	}
}

// TestOversizedBodyRejected: both job-decoding endpoints bound the request
// body and answer an oversized one with a typed 413 instead of buffering it.
func TestOversizedBodyRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := `{"program": {"kind": "source", "source": "` + strings.Repeat(" ", maxBodyBytes) + `"}}`
	for name, post := range map[string]func(*testing.T, *httptest.Server, string) (*http.Response, []byte){
		"/v1/jobs": postJob, "/v1/validate": postValidate,
	} {
		resp, b := post(t, ts, body)
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: status = %d, want 413 (body %.200s)", name, resp.StatusCode, b)
			continue
		}
		var er ErrorResponse
		if err := json.Unmarshal(b, &er); err != nil || er.Code != spec.ErrBadRequest {
			t.Errorf("%s: error body %s (decode err %v), want code %q", name, b, err, spec.ErrBadRequest)
		}
	}
}

// mustKey normalizes a raw job body into its content address.
func mustKey(t *testing.T, body string) string {
	t.Helper()
	req, _, err := spec.DecodeJob(strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if err := req.Normalize(func(string) bool { return true }); err != nil {
		t.Fatal(err)
	}
	return req.Key()
}
