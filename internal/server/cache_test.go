package server

import (
	"context"
	"encoding/json"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"voltron/internal/spec"
)

// waitForWaiters polls until n goroutines are blocked waiting on an
// in-flight cache entry (the select in lru.Cache.Get).
func waitForWaiters(t *testing.T, n int) {
	t.Helper()
	buf := make([]byte, 1<<20)
	deadline := time.Now().Add(5 * time.Second)
	for {
		got := 0
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			if strings.Contains(g, " [select") && strings.Contains(g, "lru.(*Cache[") && strings.Contains(g, "]).Get(") {
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
	go s.cache.Get(context.Background(), key, func() ([]byte, error) {
		close(claimed)
		<-release
		panic("injected compute failure")
	})
	<-claimed
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
