package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"voltron/internal/lru"
	"voltron/internal/spec"
)

// The v1 surface contract: schema version, strategy metadata, rejection of
// the retired request spellings, and the traced-job flow (trace URL + stall
// report).

func TestJobResponseSchemaVersion(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, b := postJob(t, ts, tinyJob())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, b)
	}
	if jr := decodeJob(t, b); jr.SchemaVersion != spec.SchemaVersion {
		t.Errorf("schema_version = %d, want %d", jr.SchemaVersion, spec.SchemaVersion)
	}
}

func TestStrategiesEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/strategies")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Strategies []spec.StrategyInfo `json:"strategies"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Strategies) != 5 {
		t.Fatalf("got %d strategies, want 5: %+v", len(out.Strategies), out.Strategies)
	}
	byName := map[string]spec.StrategyInfo{}
	for _, si := range out.Strategies {
		if si.Description == "" || si.Mode == "" {
			t.Errorf("strategy %q missing metadata: %+v", si.Name, si)
		}
		byName[si.Name] = si
	}
	if byName["ilp"].Mode != "coupled" || byName["ftlp"].Mode != "decoupled" || byName["hybrid"].Mode != "mixed" {
		t.Errorf("unexpected strategy modes: %+v", byName)
	}
}

// TestLegacySpellingsRejected: the pre-v2 request spellings fail fast with
// a typed 400 — the retired top-level fields as unknown fields
// (bad_request), a program without a kind as an invalid spec (bad_spec) —
// and never reach the caches.
func TestLegacySpellingsRejected(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	for _, c := range []struct{ name, body, code string }{
		{"v1 bench", `{"bench": "rawcaudio", "strategy": "llp", "cores": 2}`, spec.ErrBadRequest},
		{"benchmark alias", `{"benchmark": "rawcaudio", "strategy": "llp", "cores": 2}`, spec.ErrBadRequest},
		{"mode alias", `{"program": {"kind": "bench", "bench": "rawcaudio"}, "mode": "llp", "cores": 2}`, spec.ErrBadRequest},
		{"static_selection", `{"program": {"kind": "bench", "bench": "rawcaudio"}, "compiler": {"static_selection": true}}`, spec.ErrBadRequest},
		{"kind-less kernels", `{"program": {"kernels": [{"kind": "doall-map"}]}, "strategy": "llp"}`, spec.ErrBadSpec},
		{"kind-less bench", `{"program": {"bench": "rawcaudio"}}`, spec.ErrBadSpec},
	} {
		for _, path := range []string{"/v1/jobs", "/v1/validate"} {
			resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(c.body))
			if err != nil {
				t.Fatal(err)
			}
			b, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("%s %s: status = %d, want 400 (body %s)", c.name, path, resp.StatusCode, b)
				continue
			}
			var er ErrorResponse
			if err := json.Unmarshal(b, &er); err != nil || er.Code != c.code {
				t.Errorf("%s %s: error body %s, want code %q", c.name, path, b, c.code)
			}
		}
	}
	if m := s.Metrics(); m.Simulations != 0 || m.CacheMisses != 0 {
		t.Errorf("rejected spellings reached the pipeline: simulations=%d misses=%d", m.Simulations, m.CacheMisses)
	}
}

// TestTracedJob exercises the traced-job flow end to end: the response
// carries a trace URL and a stall report whose totals are consistent with
// the response's own stall counters, the URL serves valid Chrome trace
// JSON, and the traced job is a distinct cache entry from its untraced
// twin.
func TestTracedJob(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := `{
		"program": {"kind": "kernels", "name": "t", "kernels": [{"kind": "pipeline", "name": "p", "table": 512, "n": 64, "work": 2}]},
		"strategy": "ftlp", "cores": 2, "trace": true
	}`
	resp, b := postJob(t, ts, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, b)
	}
	jr := decodeJob(t, b)
	if jr.TraceURL == "" || jr.StallReport == nil {
		t.Fatalf("traced job missing trace_url/stall_report: %s", b)
	}
	if !strings.HasPrefix(jr.TraceURL, "/v1/traces/") {
		t.Fatalf("trace_url = %q", jr.TraceURL)
	}

	// The report's stall totals must agree with the response's stall map
	// (both aggregate the same run).
	for name, n := range jr.Stalls {
		if got := jr.StallReport.Totals[name]; got != n {
			t.Errorf("stall_report total %s = %d, response stalls say %d", name, got, n)
		}
	}

	tresp, err := http.Get(ts.URL + jr.TraceURL)
	if err != nil {
		t.Fatal(err)
	}
	tb, _ := io.ReadAll(tresp.Body)
	tresp.Body.Close()
	if tresp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", jr.TraceURL, tresp.StatusCode, tb)
	}
	if !json.Valid(tb) {
		t.Fatalf("trace is not valid JSON: %.200s", tb)
	}
	if !strings.Contains(string(tb), "traceEvents") {
		t.Fatalf("trace has no traceEvents array: %.200s", tb)
	}

	// The untraced twin is a different job (different content address) and
	// must not inherit the traced response body.
	untraced := strings.Replace(body, `"trace": true`, `"trace": false`, 1)
	resp2, b2 := postJob(t, ts, untraced)
	if resp2.Header.Get("X-Voltron-Cache") == "hit" {
		t.Errorf("untraced twin hit the traced job's cache entry")
	}
	jr2 := decodeJob(t, b2)
	if jr2.TraceURL != "" || jr2.StallReport != nil {
		t.Errorf("untraced job carries trace fields: %s", b2)
	}
	if jr2.TotalCycles != jr.TotalCycles {
		t.Errorf("tracing changed the result: %d cycles traced, %d untraced", jr.TotalCycles, jr2.TotalCycles)
	}

	// Re-POSTing the traced job is a cache hit and the trace stays
	// fetchable.
	resp3, _ := postJob(t, ts, body)
	if resp3.Header.Get("X-Voltron-Cache") != "hit" {
		t.Errorf("traced repeat status = %q, want hit", resp3.Header.Get("X-Voltron-Cache"))
	}
	if tresp2, err := http.Get(ts.URL + jr.TraceURL); err != nil || tresp2.StatusCode != http.StatusOK {
		t.Errorf("trace re-fetch failed: %v / %v", err, tresp2.Status)
	} else {
		tresp2.Body.Close()
	}
}

// TestTraceStoredExactSize: a traced job stores its rendered trace as an
// exactly sized blob (cap == len, so the store keeps no render slack), and
// GET /v1/traces/{key} serves exactly the bytes of rendering that job's
// tracer again.
func TestTraceStoredExactSize(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	body := `{
		"program": {"kind": "kernels", "name": "t", "kernels": [{"kind": "pipeline", "name": "p", "table": 512, "n": 64, "work": 2}]},
		"strategy": "ftlp", "cores": 4, "trace": true
	}`
	resp, b := postJob(t, ts, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, b)
	}
	jr := decodeJob(t, b)
	blob, ok := s.traces.Completed(jr.Key)
	if !ok {
		t.Fatalf("no stored trace for key %q", jr.Key)
	}
	if cap(blob) != len(blob) {
		t.Errorf("stored trace has cap %d for len %d, want an exactly sized blob", cap(blob), len(blob))
	}

	tresp, err := http.Get(ts.URL + jr.TraceURL)
	if err != nil {
		t.Fatal(err)
	}
	served, _ := io.ReadAll(tresp.Body)
	tresp.Body.Close()
	if tresp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", jr.TraceURL, tresp.StatusCode, served)
	}

	req, _, err := spec.DecodeJob(strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if err := req.Normalize(func(string) bool { return true }); err != nil {
		t.Fatal(err)
	}
	_, tr, _, _, err := s.simulate(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if want := tr.AppendChrome(nil); !bytes.Equal(served, want) {
		t.Errorf("served trace (%d bytes) differs from re-rendering the job's tracer (%d bytes)", len(served), len(want))
	}
}

// TestTraceEviction: the trace blob store is bounded; once evicted, the
// trace URL 404s (the job response itself stays cached).
func TestTraceEviction(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	s.traces = lru.New[string, []byte](1)
	job := func(n int64) string {
		return `{"program": {"kind": "kernels", "name": "e", "kernels": [{"kind": "serial-chain", "name": "c", "n": ` +
			strconv.FormatInt(n, 10) + `}]}, "strategy": "serial", "cores": 1, "trace": true}`
	}
	_, b1 := postJob(t, ts, job(16))
	jr1 := decodeJob(t, b1)
	_, b2 := postJob(t, ts, job(24))
	jr2 := decodeJob(t, b2)
	if jr1.TraceURL == jr2.TraceURL {
		t.Fatalf("distinct jobs share a trace URL %q", jr1.TraceURL)
	}
	if resp, err := http.Get(ts.URL + jr1.TraceURL); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("evicted trace: status %d, want 404", resp.StatusCode)
		}
	}
	if resp, err := http.Get(ts.URL + jr2.TraceURL); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("resident trace: status %d, want 200", resp.StatusCode)
		}
	}
}
