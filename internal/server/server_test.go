package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"voltron/internal/spec"
)

// newTestServer returns a Server and an httptest front end.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// tinyJob is a fast inline job used throughout the tests.
func tinyJob() string {
	return `{
		"program": {"kind": "kernels", "name": "tiny", "kernels": [
			{"kind": "doall-map", "name": "m", "n": 64, "work": 2},
			{"kind": "serial-chain", "name": "c", "n": 16}
		]},
		"strategy": "llp", "cores": 2
	}`
}

// postJob posts a job body and returns the response.
func postJob(t *testing.T, ts *httptest.Server, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatalf("POST /v1/jobs: %v", err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("reading body: %v", err)
	}
	return resp, b
}

func decodeJob(t *testing.T, b []byte) JobResponse {
	t.Helper()
	var jr JobResponse
	if err := json.Unmarshal(b, &jr); err != nil {
		t.Fatalf("decoding job response %s: %v", b, err)
	}
	return jr
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("status = %d, want 200", resp.StatusCode)
	}
}

func TestBenchmarksList(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/benchmarks")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Benchmarks []string `json:"benchmarks"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Benchmarks) != 25 {
		t.Errorf("got %d benchmarks, want 25", len(out.Benchmarks))
	}
}

func TestInlineJobWithBaseline(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, b := postJob(t, ts, `{
		"program": {"kind": "kernels", "name": "p", "kernels": [{"kind": "doall-map", "name": "m", "n": 128, "work": 3}]},
		"strategy": "llp", "cores": 2, "baseline": true
	}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, b)
	}
	jr := decodeJob(t, b)
	if jr.TotalCycles <= 0 {
		t.Error("no cycles reported")
	}
	if jr.BaselineCycles <= 0 || jr.Speedup <= 0 {
		t.Errorf("baseline missing: cycles=%d speedup=%f", jr.BaselineCycles, jr.Speedup)
	}
	if jr.Speedup < 1 {
		t.Errorf("2-core DOALL slower than serial: %f", jr.Speedup)
	}
	if jr.Program != "p" || jr.Strategy != "llp" || jr.Cores != 2 {
		t.Errorf("echo fields wrong: %+v", jr)
	}
}

func TestBenchJob(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, b := postJob(t, ts, `{"program": {"kind": "bench", "bench": "rawcaudio"}, "strategy": "serial", "cores": 1}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, b)
	}
	jr := decodeJob(t, b)
	if jr.Bench != "rawcaudio" || jr.TotalCycles <= 0 {
		t.Errorf("bad response: %+v", jr)
	}
}

func TestCacheHitAndByteIdenticalBody(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	resp1, b1 := postJob(t, ts, tinyJob())
	resp2, b2 := postJob(t, ts, tinyJob())
	if resp1.StatusCode != 200 || resp2.StatusCode != 200 {
		t.Fatalf("statuses %d/%d", resp1.StatusCode, resp2.StatusCode)
	}
	if got := resp1.Header.Get("X-Voltron-Cache"); got != "miss" {
		t.Errorf("first request cache status = %q, want miss", got)
	}
	if got := resp2.Header.Get("X-Voltron-Cache"); got != "hit" {
		t.Errorf("second request cache status = %q, want hit", got)
	}
	if !bytes.Equal(b1, b2) {
		t.Errorf("bodies differ:\n%s\n%s", b1, b2)
	}
	m := s.Metrics()
	if m.Simulations != 1 {
		t.Errorf("simulations = %d, want 1", m.Simulations)
	}
	if m.CacheHits != 1 || m.CacheMisses != 1 {
		t.Errorf("hits/misses = %d/%d, want 1/1", m.CacheHits, m.CacheMisses)
	}
}

func TestCanonicalizationDefaultsShareEntry(t *testing.T) {
	// Spelling out the defaults must hash to the same cache entry as
	// omitting them.
	_, ts := newTestServer(t, Config{})
	resp1, b1 := postJob(t, ts, `{"program": {"kind": "bench", "bench": "rawcaudio"}}`)
	resp2, b2 := postJob(t, ts, `{"program": {"kind": "bench", "bench": "rawcaudio"}, "strategy": "hybrid", "cores": 4}`)
	if resp1.StatusCode != 200 || resp2.StatusCode != 200 {
		t.Fatalf("statuses %d/%d: %s %s", resp1.StatusCode, resp2.StatusCode, b1, b2)
	}
	if got := resp2.Header.Get("X-Voltron-Cache"); got != "hit" {
		t.Errorf("explicit-defaults request cache status = %q, want hit", got)
	}
	if !bytes.Equal(b1, b2) {
		t.Error("bodies differ between default spellings")
	}
}

func TestInlineNamesDefaultAndCanonicalize(t *testing.T) {
	// Program and kernel names are defaultable like every other field:
	// omitting them must work (this is the README quickstart shape) and
	// must share a cache entry with the spelled-out defaults.
	_, ts := newTestServer(t, Config{})
	resp1, b1 := postJob(t, ts, `{
		"program": {"kind": "kernels", "kernels": [{"kind": "doall-map", "n": 128, "work": 3}]},
		"strategy": "llp", "cores": 2
	}`)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("nameless program rejected: status %d, body %s", resp1.StatusCode, b1)
	}
	if jr := decodeJob(t, b1); jr.Program != "inline" {
		t.Errorf("program name = %q, want the default \"inline\"", jr.Program)
	}
	resp2, b2 := postJob(t, ts, `{
		"program": {"kind": "kernels", "name": "inline", "kernels": [{"kind": "doall-map", "name": "k0", "n": 128, "work": 3}]},
		"strategy": "llp", "cores": 2
	}`)
	if got := resp2.Header.Get("X-Voltron-Cache"); got != "hit" {
		t.Errorf("spelled-out default names: cache status = %q, want hit", got)
	}
	if !bytes.Equal(b1, b2) {
		t.Error("bodies differ between default-name spellings")
	}
}

func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name, body string
	}{
		{"malformed", `{`},
		{"unknown field", `{"program": {"kind": "bench", "bench": "rawcaudio"}, "bogus": 1}`},
		{"no program", `{}`},
		{"two kinds", `{"program": {"kind": "bench", "bench": "rawcaudio", "kernels": [{"kind": "branchy", "name": "b"}]}}`},
		{"unknown bench", `{"program": {"kind": "bench", "bench": "nonesuch"}}`},
		{"unknown strategy", `{"program": {"kind": "bench", "bench": "rawcaudio"}, "strategy": "magic"}`},
		{"cores out of range", `{"program": {"kind": "bench", "bench": "rawcaudio"}, "cores": 99}`},
		{"unknown kernel kind", `{"program": {"kind": "kernels", "name": "p", "kernels": [{"kind": "quantum", "name": "q"}]}}`},
		{"oversized kernel", `{"program": {"kind": "kernels", "name": "p", "kernels": [{"kind": "doall-map", "name": "m", "n": 1048576}]}}`},
		{"duplicate kernel name", `{"program": {"kind": "kernels", "name": "p", "kernels": [{"kind": "branchy", "name": "b"}, {"kind": "branchy", "name": "b"}]}}`},
		{"trailing data", `{"program": {"kind": "bench", "bench": "cjpeg"}} {"junk": true} garbage`},
	}
	for _, c := range cases {
		resp, body := postJob(t, ts, c.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400 (body %s)", c.name, resp.StatusCode, body)
		}
	}
}

func TestRequestTimeout(t *testing.T) {
	s, ts := newTestServer(t, Config{RequestTimeout: 30 * time.Millisecond})
	resp, body := postJob(t, ts, slowJob())
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504 (body %s)", resp.StatusCode, body)
	}
	if m := s.Metrics(); m.Canceled != 1 || m.Errors != 1 {
		t.Errorf("canceled/errors = %d/%d, want 1/1", m.Canceled, m.Errors)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 3})
	postJob(t, ts, tinyJob())
	postJob(t, ts, tinyJob())
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m MetricsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.Jobs != 2 || m.Simulations != 1 || m.Workers != 3 || m.CacheEntries != 1 {
		t.Errorf("metrics: %+v", m)
	}
	if m.Latency["llp"].Count != 2 {
		t.Errorf("llp latency count = %d, want 2", m.Latency["llp"].Count)
	}
	if m.QueueDepth != 0 || m.InFlight != 0 {
		t.Errorf("idle server has queue_depth=%d in_flight=%d", m.QueueDepth, m.InFlight)
	}
}

func TestFigureEndpoint(t *testing.T) {
	s := New(Config{})
	s.suite.Benchmarks = []string{"rawcaudio"}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	resp, err := http.Get(ts.URL + "/v1/figures/12")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, b)
	}
	var out struct {
		Title string `json:"title"`
		Rows  []struct {
			Benchmark string             `json:"benchmark"`
			Values    map[string]float64 `json:"values"`
		} `json:"rows"`
	}
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Rows) != 2 { // rawcaudio + average
		t.Errorf("rows = %d, want 2 (%s)", len(out.Rows), b)
	}
	if resp, _ := http.Get(ts.URL + "/v1/figures/99"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("figure 99 status = %d, want 400", resp.StatusCode)
	}
}

// TestFigureWaitsForWorkerSlot holds the only worker slot: a figure
// request must wait for it under the RequestTimeout and answer 504 without
// leaving a queued waiter, and regenerate once the slot is free.
func TestFigureWaitsForWorkerSlot(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, RequestTimeout: 200 * time.Millisecond})
	s.suite.Benchmarks = []string{"rawcaudio"}
	get := func() (int, []byte) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/figures/12")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, b
	}
	s.runSem <- struct{}{}
	status, b := get()
	var er ErrorResponse
	if err := json.Unmarshal(b, &er); err != nil || status != http.StatusGatewayTimeout || er.Code != spec.ErrTimeout {
		t.Errorf("figure behind a held slot: status %d, body %s; want 504 %q", status, b, spec.ErrTimeout)
	}
	if m := s.Metrics(); m.QueueDepth != 0 {
		t.Errorf("queue_depth = %d after the timed-out figure, want 0", m.QueueDepth)
	}
	<-s.runSem
	if status, b := get(); status != http.StatusOK {
		t.Errorf("figure with a free slot: status %d, body %s", status, b)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	s, ts := newTestServer(t, Config{CacheEntries: 2})
	for i := 0; i < 4; i++ {
		body := fmt.Sprintf(`{
			"program": {"kind": "kernels", "name": "p%d", "kernels": [{"kind": "serial-chain", "name": "c", "n": %d}]},
			"strategy": "serial", "cores": 1
		}`, i, 8+i)
		if resp, b := postJob(t, ts, body); resp.StatusCode != 200 {
			t.Fatalf("job %d: status %d, body %s", i, resp.StatusCode, b)
		}
	}
	if got := s.cache.Len(); got != 2 {
		t.Errorf("cache entries = %d, want 2 (LRU bound)", got)
	}
	// The oldest entry was evicted: re-requesting it is a miss again.
	resp, _ := postJob(t, ts, `{
		"program": {"kind": "kernels", "name": "p0", "kernels": [{"kind": "serial-chain", "name": "c", "n": 8}]},
		"strategy": "serial", "cores": 1
	}`)
	if got := resp.Header.Get("X-Voltron-Cache"); got != "miss" {
		t.Errorf("evicted entry cache status = %q, want miss", got)
	}
}
