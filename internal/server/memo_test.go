package server

// Request-memo tests: a repeated body is served from the memo (body digest
// → content key) without decoding, and that fast path must be
// indistinguishable from a slow-path hit — same bytes, same headers, same
// counters — across every program kind and option block, under
// eviction, for invalid bodies, and under concurrency.

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"voltron/internal/spec"
)

// memoCases covers every program kind and the option blocks.
func memoCases() []struct{ name, body string } {
	return []struct{ name, body string }{
		{"bench", `{"program": {"kind": "bench", "bench": "rawcaudio"}, "strategy": "llp", "cores": 2}`},
		{"serial bench", `{"program": {"kind": "bench", "bench": "rawcaudio"}, "strategy": "serial", "cores": 1}`},
		{"kernels", tinyJob()},
		{"static selection", strings.Replace(tinyJob(), `"strategy": "llp", "cores": 2`,
			`"strategy": "hybrid", "cores": 2, "compiler": {"select": "static"}`, 1)},
		{"baseline", strings.Replace(tinyJob(), `"cores": 2`, `"cores": 2, "baseline": true`, 1)},
		{"source", sourceJob("")},
		{"traced source", sourceJob(`, "trace": true`)},
	}
}

// post is postJob for goroutines other than the test's: it returns
// failures instead of stopping the test.
func post(url, body string) (*http.Response, []byte, error) {
	resp, err := http.Post(url+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp, b, err
}

// hitCounters is the slice of /metrics a hit must advance.
type hitCounters struct {
	jobs, sims, hits, misses, dedups, errors, latency int64
}

func countersOf(m MetricsSnapshot, strategy string) hitCounters {
	return hitCounters{m.Jobs, m.Simulations, m.CacheHits, m.CacheMisses, m.CacheDeduped, m.Errors,
		m.Latency[strategy].Count}
}

func (a hitCounters) minus(b hitCounters) hitCounters {
	return hitCounters{a.jobs - b.jobs, a.sims - b.sims, a.hits - b.hits, a.misses - b.misses,
		a.dedups - b.dedups, a.errors - b.errors, a.latency - b.latency}
}

// respelled is the same job in different bytes (whitespace only), so its
// digest misses the memo and the request takes the slow path.
func respelled(body string) string { return " \n" + body + "\n " }

// TestMemoHitMatchesSlowPathHit: a memo hit returns the body bytes and
// headers of a slow-path hit of the same job and advances the same
// counters: one job, one result hit, one latency observation.
func TestMemoHitMatchesSlowPathHit(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	for _, c := range memoCases() {
		t.Run(c.name, func(t *testing.T) {
			resp, miss := postJob(t, ts, c.body)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status = %d, body %s", resp.StatusCode, miss)
			}
			strategy := decodeJob(t, miss).Strategy
			if _, ok := s.memo.get(sha256.Sum256([]byte(c.body))); !ok {
				t.Fatal("a normalized body was not memoized")
			}

			m0 := countersOf(s.Metrics(), strategy)
			memoResp, memoBody := postJob(t, ts, c.body)
			m1 := countersOf(s.Metrics(), strategy)
			slowResp, slowBody := postJob(t, ts, respelled(c.body))
			m2 := countersOf(s.Metrics(), strategy)

			if !bytes.Equal(memoBody, miss) || !bytes.Equal(slowBody, miss) {
				t.Errorf("hit bodies differ from the computed body:\nmiss %s\nmemo %s\nslow %s", miss, memoBody, slowBody)
			}
			for _, h := range []http.Header{memoResp.Header, slowResp.Header} {
				h.Del("Date")
			}
			if got, want := memoResp.Header, slowResp.Header; !equalHeaders(got, want) {
				t.Errorf("memo-hit headers %v, slow-path hit headers %v", got, want)
			}
			if got := memoResp.Header.Get("X-Voltron-Cache"); got != "hit" {
				t.Errorf("X-Voltron-Cache = %q, want hit", got)
			}
			if memo, slow := m1.minus(m0), m2.minus(m1); memo != slow || memo != (hitCounters{jobs: 1, hits: 1, latency: 1}) {
				t.Errorf("counter deltas: memo hit %+v, slow-path hit %+v, want one job, one hit, one latency sample", memo, slow)
			}
		})
	}
}

func equalHeaders(a, b http.Header) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if strings.Join(v, "\x00") != strings.Join(b[k], "\x00") {
			return false
		}
	}
	return true
}

// TestMemoStaleKeyFallsBack: with one result entry, two alternating jobs
// evict each other, so every memoized key is stale by the time its bytes
// return. Each request must fall back to the slow path and re-simulate the
// same bytes.
func TestMemoStaleKeyFallsBack(t *testing.T) {
	s, ts := newTestServer(t, Config{CacheEntries: 1})
	jobs := [2]string{tinyJob(), strings.Replace(tinyJob(), `"n": 16`, `"n": 24`, 1)}
	var first [2][]byte
	const rounds = 3
	for i := 0; i < 2*rounds; i++ {
		resp, b := postJob(t, ts, jobs[i%2])
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d, body %s", i, resp.StatusCode, b)
		}
		if got := resp.Header.Get("X-Voltron-Cache"); got != "miss" {
			t.Errorf("request %d: X-Voltron-Cache = %q, want miss (the other job evicted it)", i, got)
		}
		if i < 2 {
			first[i] = b
		} else if !bytes.Equal(b, first[i%2]) {
			t.Errorf("request %d: re-simulated body differs:\n%s\n%s", i, b, first[i%2])
		}
	}
	if m := s.Metrics(); m.Simulations != 2*rounds || m.CacheMisses != 2*rounds || m.CacheHits != 0 {
		t.Errorf("simulations/misses/hits = %d/%d/%d, want %d/%d/0", m.Simulations, m.CacheMisses, m.CacheHits, 2*rounds, 2*rounds)
	}
}

// TestMemoInvalidBodyNotMemoized: an invalid body is decoded every time,
// returns the same typed error every time, and never enters the memo.
func TestMemoInvalidBodyNotMemoized(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	for _, c := range []struct{ body, code string }{
		{`{"program": {"kind": "bench", "bench": "nonesuch"}}`, spec.ErrUnknownBench},
		{`{"program": {"kind": "bench", "bench": "rawcaudio"}, "cores": 99}`, spec.ErrBadSpec},
		{`{"program": {"kind": "bench", "bench": "cjpeg"}} {"junk": true} garbage`, spec.ErrBadRequest},
		{`{"bench": "rawcaudio"}`, spec.ErrBadRequest},
	} {
		var first []byte
		for i := 0; i < 3; i++ {
			resp, b := postJob(t, ts, c.body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("%s: status = %d, want 400 (body %s)", c.body, resp.StatusCode, b)
			}
			var er ErrorResponse
			if err := json.Unmarshal(b, &er); err != nil || er.Code != c.code {
				t.Errorf("%s: error body %s, want code %q", c.body, b, c.code)
			}
			if i == 0 {
				first = b
			} else if !bytes.Equal(b, first) {
				t.Errorf("%s: attempt %d returned a different error:\n%s\n%s", c.body, i, b, first)
			}
		}
		if _, ok := s.memo.get(sha256.Sum256([]byte(c.body))); ok {
			t.Errorf("%s: an invalid body was memoized", c.body)
		}
	}
	if m := s.Metrics(); m.Jobs != 0 {
		t.Errorf("jobs = %d, want 0 (invalid bodies never reach admission)", m.Jobs)
	}
}

// TestMemoConcurrentHits: many clients repeating one body concurrently all
// get the computed bytes from memo hits (run with -race).
func TestMemoConcurrentHits(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	body := sourceJob("")
	resp, want := postJob(t, ts, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, want)
	}
	const clients, each = 8, 10
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				resp, b, err := post(ts.URL, body)
				if err != nil {
					t.Error(err)
					return
				}
				if resp.Header.Get("X-Voltron-Cache") != "hit" || !bytes.Equal(b, want) {
					t.Errorf("concurrent hit: status %d cache %q body %s", resp.StatusCode, resp.Header.Get("X-Voltron-Cache"), b)
					return
				}
			}
		}()
	}
	wg.Wait()
	if m := s.Metrics(); m.CacheHits != clients*each || m.Simulations != 1 || m.Jobs != clients*each+1 {
		t.Errorf("hits/simulations/jobs = %d/%d/%d, want %d/1/%d", m.CacheHits, m.Simulations, m.Jobs, clients*each, clients*each+1)
	}
}

// hitJobs is one job of each program kind, for the hit-path allocation
// guard.
func hitJobs() []struct{ name, body string } {
	return []struct{ name, body string }{
		{"bench", `{"program": {"kind": "bench", "bench": "rawcaudio"}, "strategy": "llp", "cores": 2}`},
		{"kernels", tinyJob()},
		{"source", sourceJob("")},
	}
}

// serveHit posts body through h and fails unless it was a result hit.
func serveHit(tb testing.TB, h http.Handler, body string) {
	req := httptest.NewRequest("POST", "/v1/jobs", strings.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK || w.Header().Get("X-Voltron-Cache") != "hit" {
		tb.Fatalf("status %d, cache %q: %s", w.Code, w.Header().Get("X-Voltron-Cache"), w.Body.String())
	}
}

// TestCachedHitAllocCeiling pins the cost of a result hit through
// Handler(): the memo answers without decoding, so a hit of any program
// kind — a source program included, whose slow path re-runs the frontend
// at hundreds of allocations — stays under a small fixed ceiling (the
// ceiling includes the test's own request and recorder).
func TestCachedHitAllocCeiling(t *testing.T) {
	s := New(Config{Workers: 1})
	h := s.Handler()
	for _, j := range hitJobs() {
		req := httptest.NewRequest("POST", "/v1/jobs", strings.NewReader(j.body))
		h.ServeHTTP(httptest.NewRecorder(), req) // simulate once
		serveHit(t, h, j.body)                   // memoize
		allocs := testing.AllocsPerRun(50, func() { serveHit(t, h, j.body) })
		t.Logf("%s: %.0f allocs per hit", j.name, allocs)
		const ceiling = 40
		if allocs > ceiling {
			t.Errorf("%s: a result hit allocates %.0f objects, ceiling %d — the hit path is decoding again", j.name, allocs, ceiling)
		}
	}
}
