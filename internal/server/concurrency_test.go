package server

import (
	"bytes"
	"context"
	"net/http"
	"runtime"
	"sync"
	"testing"
	"time"
)

// slowJob simulates for several seconds on one core — long enough that a
// test can reliably cancel it mid-flight.
func slowJob() string {
	return `{
		"program": {"kind": "kernels", "name": "slow", "kernels": [
			{"kind": "pipeline", "name": "p0", "table": 65536, "n": 65536, "work": 64},
			{"kind": "pipeline", "name": "p1", "table": 65536, "n": 65536, "work": 64},
			{"kind": "pipeline", "name": "p2", "table": 65536, "n": 65536, "work": 64},
			{"kind": "pipeline", "name": "p3", "table": 65536, "n": 65536, "work": 64}
		]},
		"strategy": "serial", "cores": 1
	}`
}

// mediumJob takes a few hundred milliseconds: long enough for concurrent
// requests to overlap, short enough to run many times.
func mediumJob() string {
	return `{
		"program": {"kind": "kernels", "name": "medium", "kernels": [
			{"kind": "pipeline", "name": "p", "table": 16384, "n": 16384, "work": 16}
		]},
		"strategy": "serial", "cores": 1
	}`
}

// TestSingleflightConcurrentIdenticalRequests is the core serving
// guarantee: N identical requests in flight at once produce exactly one
// underlying simulation, and every caller receives a byte-identical body.
func TestSingleflightConcurrentIdenticalRequests(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 4})
	const n = 8
	bodies := make([][]byte, n)
	statuses := make([]int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, b := postJob(t, ts, mediumJob())
			statuses[i], bodies[i] = resp.StatusCode, b
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if statuses[i] != http.StatusOK {
			t.Fatalf("request %d: status %d, body %s", i, statuses[i], bodies[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Errorf("request %d body differs:\n%s\n%s", i, bodies[i], bodies[0])
		}
	}
	m := s.Metrics()
	if m.Simulations != 1 {
		t.Errorf("simulations = %d, want 1 (singleflight broken)", m.Simulations)
	}
	if m.CacheMisses != 1 {
		t.Errorf("misses = %d, want 1", m.CacheMisses)
	}
	if m.CacheHits+m.CacheDeduped != n-1 {
		t.Errorf("hits+deduped = %d, want %d", m.CacheHits+m.CacheDeduped, n-1)
	}
}

// TestCanceledRequestFreesWorkerSlot: with a single worker, a request
// canceled mid-simulation must release its slot so the next job runs.
func TestCanceledRequestFreesWorkerSlot(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		req, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/jobs", bytes.NewReader([]byte(slowJob())))
		if err != nil {
			errc <- err
			return
		}
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		errc <- err
	}()
	time.Sleep(200 * time.Millisecond) // let the job reach the simulator
	cancel()
	if err := <-errc; err == nil {
		t.Fatal("canceled request did not fail")
	}
	// The slot must come free: a small job on the single worker completes.
	done := make(chan struct{})
	go func() {
		defer close(done)
		resp, b := postJob(t, ts, tinyJob())
		if resp.StatusCode != http.StatusOK {
			t.Errorf("follow-up job: status %d, body %s", resp.StatusCode, b)
		}
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("follow-up job never completed: canceled request still owns the worker slot")
	}
	waitForIdle(t, s)
	// The canceled handler may still be on its way to the accounting (e.g.
	// the cancel landed while it was building the program, before it ever
	// touched the queue gauges), so poll rather than assert once.
	deadline := time.Now().Add(10 * time.Second)
	for s.Metrics().Canceled < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("canceled = %d, want >= 1", s.Metrics().Canceled)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// waitForIdle polls until no job is queued or in flight.
func waitForIdle(t *testing.T, s *Server) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		m := s.Metrics()
		if m.QueueDepth == 0 && m.InFlight == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never idled: queue_depth=%d in_flight=%d", m.QueueDepth, m.InFlight)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestGracefulShutdownDrainsAndLeaksNothing: closing the HTTP server while
// a job is in flight waits for the job's response, and afterwards no
// goroutine sticks around.
func TestGracefulShutdownDrainsAndLeaksNothing(t *testing.T) {
	before := runtime.NumGoroutine()
	s, ts := newTestServer(t, Config{Workers: 2})

	// One request canceled mid-flight, several completed, one in flight at
	// shutdown time.
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/jobs", bytes.NewReader([]byte(slowJob())))
	if resp, err := http.DefaultClient.Do(req); err == nil {
		resp.Body.Close()
	}
	postJob(t, ts, tinyJob())

	type result struct {
		status int
		body   []byte
	}
	inflight := make(chan result, 1)
	go func() {
		resp, b := postJob(t, ts, mediumJob())
		inflight <- result{resp.StatusCode, b}
	}()
	time.Sleep(150 * time.Millisecond) // let the medium job start
	ts.Close()                         // blocks until outstanding requests finish
	select {
	case r := <-inflight:
		if r.status != http.StatusOK {
			t.Errorf("in-flight job during shutdown: status %d, body %s", r.status, r.body)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("shutdown did not drain the in-flight job")
	}
	waitForIdle(t, s)

	// No goroutine leak: the count returns to (near) the baseline. Allow
	// slack for runtime/netpoll goroutines that linger briefly.
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutine leak after shutdown: %d -> %d\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(50 * time.Millisecond)
	}
}
