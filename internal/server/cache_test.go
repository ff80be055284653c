package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"voltron/internal/spec"
)

// TestLRU pins the bounded LRU behind the trace store and the request
// memo: gets refresh recency, puts overwrite in place, and the least
// recently used entry is the one evicted.
func TestLRU(t *testing.T) {
	c := newLRU[string, int](2)
	c.put("a", 1)
	c.put("b", 2)
	if v, ok := c.get("a"); !ok || v != 1 { // a is now most recent
		t.Fatalf("get(a) = %d, %v", v, ok)
	}
	c.put("c", 3) // evicts b
	if _, ok := c.get("b"); ok {
		t.Error("least recently used entry survived eviction")
	}
	c.put("a", 10)
	for k, want := range map[string]int{"a": 10, "c": 3} {
		if v, ok := c.get(k); !ok || v != want {
			t.Errorf("get(%s) = %d, %v, want %d", k, v, ok, want)
		}
	}
}

// waitForWaiters polls until n goroutines are blocked waiting on an
// in-flight sfCache entry (the select in sfCache.get).
func waitForWaiters(t *testing.T, n int) {
	t.Helper()
	buf := make([]byte, 1<<20)
	deadline := time.Now().Add(5 * time.Second)
	for {
		got := 0
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			if strings.Contains(g, " [select") && strings.Contains(g, "(*sfCache[") && strings.Contains(g, "]).get(") {
				got++
			}
		}
		if got >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines waiting on the cache, want %d", got, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// wedge claims key in the server's result cache with a computation that
// panics once release closes. It returns after the claim is in flight.
func wedge(s *Server, key string, release <-chan struct{}) {
	claimed := make(chan struct{})
	go s.cache.get(context.Background(), key, func() ([]byte, error) {
		close(claimed)
		<-release
		panic("injected compute failure")
	})
	<-claimed
}

// TestPanickingComputeFailsWaitersFast: a computation that panics must not
// leave its key in flight. The claimant's waiters fail at once with a typed
// internal error (not after their own timeouts), the panic is counted, and
// the next identical request computes afresh.
func TestPanickingComputeFailsWaitersFast(t *testing.T) {
	s := New(Config{})
	const key = "k"
	release := make(chan struct{})
	wedge(s, key, release)

	const waiters = 4
	var done sync.WaitGroup
	errs := make([]error, waiters)
	statuses := make([]cacheStatus, waiters)
	for i := 0; i < waiters; i++ {
		done.Add(1)
		go func(i int) {
			defer done.Done()
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			_, statuses[i], errs[i] = s.cache.get(ctx, key, func() ([]byte, error) {
				return nil, errors.New("a waiter computed: it arrived after the claim ended")
			})
		}(i)
	}
	waitForWaiters(t, waiters)
	close(release)
	finished := make(chan struct{})
	go func() { done.Wait(); close(finished) }()
	select {
	case <-finished:
	case <-time.After(10 * time.Second):
		t.Fatal("waiters still blocked after the computation panicked")
	}
	for i, err := range errs {
		var se *spec.Error
		if statuses[i] != cacheDeduped || !errors.As(err, &se) || se.Code != spec.ErrInternal {
			t.Errorf("waiter %d: status %v, err %v; want a deduped %s error", i, statuses[i], err, spec.ErrInternal)
		}
	}
	if got := s.Metrics().Panics; got != 1 {
		t.Errorf("panics_total = %d, want 1", got)
	}
	v, status, err := s.cache.get(context.Background(), key, func() ([]byte, error) { return []byte("ok"), nil })
	if err != nil || status != cacheMiss || string(v) != "ok" {
		t.Errorf("after the panic: %q, %v, %v; want a fresh computation", v, status, err)
	}
}

// TestPanickingJobAnswers500: over HTTP, a request waiting on a panicking
// computation gets a typed 500 well inside its budget, and retrying the
// same job simulates it.
func TestPanickingJobAnswers500(t *testing.T) {
	s, ts := newTestServer(t, Config{RequestTimeout: time.Minute})
	release := make(chan struct{})
	wedge(s, mustKey(t, tinyJob()), release)

	type result struct {
		resp *http.Response
		body []byte
		err  error
	}
	got := make(chan result, 1)
	go func() {
		resp, b, err := post(ts.URL, tinyJob())
		got <- result{resp, b, err}
	}()
	waitForWaiters(t, 1)
	close(release)
	var r result
	select {
	case r = <-got:
	case <-time.After(10 * time.Second):
		t.Fatal("request still waiting after the computation panicked")
	}
	if r.err != nil {
		t.Fatal(r.err)
	}
	var er ErrorResponse
	if err := json.Unmarshal(r.body, &er); r.resp.StatusCode != http.StatusInternalServerError || err != nil || er.Code != spec.ErrInternal {
		t.Errorf("status %d, body %s; want 500 with code %q", r.resp.StatusCode, r.body, spec.ErrInternal)
	}
	resp, b := postJob(t, ts, tinyJob())
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Voltron-Cache") != "miss" {
		t.Errorf("retry: status %d cache %q, want a 200 miss (%s)", resp.StatusCode, resp.Header.Get("X-Voltron-Cache"), b)
	}
	m := metricsOf(t, ts.URL)
	if m.Panics != 1 || m.Errors != 1 || m.Simulations != 1 {
		t.Errorf("panics/errors/simulations = %d/%d/%d, want 1/1/1", m.Panics, m.Errors, m.Simulations)
	}
}
