package lru

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"voltron/internal/par"
)

// TestLRU pins the bounded LRU order: lookups refresh recency, puts
// overwrite, and the least recently used entry is the one evicted.
func TestLRU(t *testing.T) {
	c := New[string, int](2)
	c.Put("a", 1)
	c.Put("b", 2)
	if v, ok := c.Completed("a"); !ok || v != 1 { // a is now most recent
		t.Fatalf("Completed(a) = %d, %v", v, ok)
	}
	c.Put("c", 3) // evicts b
	if _, ok := c.Completed("b"); ok {
		t.Error("least recently used entry survived eviction")
	}
	c.Put("a", 10)
	for k, want := range map[string]int{"a": 10, "c": 3} {
		if v, ok := c.Completed(k); !ok || v != want {
			t.Errorf("Completed(%s) = %d, %v, want %d", k, v, ok, want)
		}
	}
	if n := c.Len(); n != 2 {
		t.Errorf("Len() = %d, want 2", n)
	}
}

// TestErrorsAreNotCached: a failed computation leaves no entry, and the
// next caller for the key computes again.
func TestErrorsAreNotCached(t *testing.T) {
	c := New[string, int](8)
	calls := 0
	fail := func() (int, error) { calls++; return 0, errors.New("no such thing") }
	for i := 0; i < 3; i++ {
		if _, status, err := c.Get(context.Background(), "k", fail); err == nil || status != Miss {
			t.Fatalf("call %d: status %v, err %v; want a failed miss", i, status, err)
		}
	}
	if calls != 3 || c.Len() != 0 {
		t.Errorf("calls = %d, entries = %d; want 3 computations and no entry", calls, c.Len())
	}
}

// waitForWaiters polls until n goroutines are blocked waiting on an
// in-flight entry (the select in Cache.Get).
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

// TestPanickingComputeFailsWaitersFast: a computation that panics must not
// leave its key in flight. The claimant's waiters fail at once with a typed
// error (not after their own timeouts), the panic is counted, and the next
// identical request computes afresh.
func TestPanickingComputeFailsWaitersFast(t *testing.T) {
	c := New[string, []byte](8)
	const key = "k"
	release := make(chan struct{})
	claimed := make(chan struct{})
	go c.Get(context.Background(), key, func() ([]byte, error) {
		close(claimed)
		<-release
		panic("injected compute failure")
	})
	<-claimed

	const waiters = 4
	var done sync.WaitGroup
	errs := make([]error, waiters)
	statuses := make([]Status, waiters)
	for i := 0; i < waiters; i++ {
		done.Add(1)
		go func(i int) {
			defer done.Done()
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			_, statuses[i], errs[i] = c.Get(ctx, key, func() ([]byte, error) {
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
		if statuses[i] != Deduped || !errors.Is(err, ErrPanic) {
			t.Errorf("waiter %d: status %v, err %v; want a deduped %v error", i, statuses[i], err, ErrPanic)
		}
	}
	if got := c.Panics(); got != 1 {
		t.Errorf("panics = %d, want 1", got)
	}
	v, status, err := c.Get(context.Background(), key, func() ([]byte, error) { return []byte("ok"), nil })
	if err != nil || status != Miss || string(v) != "ok" {
		t.Errorf("after the panic: %q, %v, %v; want a fresh computation", v, status, err)
	}
}

// TestPanicErrorCarriesNoStack: a panic re-raised by par.Each carries the
// stack it was raised on; the error keeps only the panic value.
func TestPanicErrorCarriesNoStack(t *testing.T) {
	c := New[string, int](8)
	_, _, err := c.Get(context.Background(), "k", func() (int, error) {
		panic(&par.Panic{Value: "injected", Stack: []byte("goroutine 7 [running]:")})
	})
	if !errors.Is(err, ErrPanic) || !strings.Contains(err.Error(), "injected") || strings.Contains(err.Error(), "goroutine") {
		t.Errorf("err = %v; want the panic value without its stack", err)
	}
}

// TestWaiterOutlivesClaimantCancel: a claimant that fails with its own
// ctx's error fails alone. A waiter whose ctx is still live claims the key
// again and computes the value, instead of inheriting the cancellation.
func TestWaiterOutlivesClaimantCancel(t *testing.T) {
	for _, cause := range []error{context.Canceled, context.DeadlineExceeded} {
		t.Run(cause.Error(), func(t *testing.T) {
			c := New[string, int](8)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			claimed := make(chan struct{})
			claimErr := make(chan error, 1)
			go func() {
				_, _, err := c.Get(ctx, "k", func() (int, error) {
					close(claimed)
					<-ctx.Done()
					return 0, fmt.Errorf("slow: %w", cause)
				})
				claimErr <- err
			}()
			<-claimed
			type result struct {
				v      int
				status Status
				err    error
			}
			got := make(chan result, 1)
			go func() {
				v, status, err := c.Get(context.Background(), "k", func() (int, error) { return 7, nil })
				got <- result{v, status, err}
			}()
			waitForWaiters(t, 1)
			cancel()
			if err := <-claimErr; !errors.Is(err, cause) {
				t.Fatalf("claimant: err %v, want %v", err, cause)
			}
			select {
			case r := <-got:
				if r.err != nil || r.v != 7 || r.status != Miss {
					t.Errorf("live waiter: %d, %v, %v; want 7 computed afresh (miss)", r.v, r.status, r.err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("live waiter still blocked after the claimant's cancellation")
			}
			if v, ok := c.Completed("k"); !ok || v != 7 {
				t.Errorf("Completed(k) = %d, %v; want the waiter's value cached", v, ok)
			}
		})
	}
}
