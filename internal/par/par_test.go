package par

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func TestParEachRunsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{-1, 0, 1, 2, 3, 8, 100} {
		for _, n := range []int{0, 1, 2, 7, 50} {
			counts := make([]atomic.Int32, n)
			if err := Each(n, workers, func(i int) error {
				counts[i].Add(1)
				return nil
			}); err != nil {
				t.Fatalf("n=%d workers=%d: %v", n, workers, err)
			}
			for i := range counts {
				if c := counts[i].Load(); c != 1 {
					t.Errorf("n=%d workers=%d: index %d ran %d times", n, workers, i, c)
				}
			}
		}
	}
}

func TestParEachBoundsInFlight(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 5} {
		var inFlight, peak atomic.Int32
		Each(40, workers, func(int) error {
			now := inFlight.Add(1)
			for {
				p := peak.Load()
				if now <= p || peak.CompareAndSwap(p, now) {
					break
				}
			}
			for range 1000 { // give the other goroutines a chance to overlap
				if inFlight.Load() > int32(workers) {
					break
				}
			}
			inFlight.Add(-1)
			return nil
		})
		if p := peak.Load(); p > int32(workers) {
			t.Errorf("workers=%d: %d calls in flight", workers, p)
		}
	}
}

func TestParEachOneWorkerRunsInOrder(t *testing.T) {
	var order []int // unsynchronized: -race fails if a second goroutine runs a call
	Each(10, 1, func(i int) error {
		order = append(order, i)
		return nil
	})
	if fmt.Sprint(order) != "[0 1 2 3 4 5 6 7 8 9]" {
		t.Errorf("order = %v", order)
	}
}

func TestParEachLowestErrorWins(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		err := Each(20, workers, func(i int) error {
			if i%5 == 3 {
				return fmt.Errorf("index %d", i)
			}
			return nil
		})
		if err == nil || err.Error() != "index 3" {
			t.Errorf("workers=%d: err = %v, want index 3", workers, err)
		}
	}
}

func TestParEachPanicReachesCallerAfterOthers(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		const n, k = 12, 5
		var mu sync.Mutex
		returned := 0
		func() {
			defer func() {
				v := recover()
				p, ok := v.(*Panic)
				if !ok {
					t.Fatalf("workers=%d: recovered %v, want a *Panic", workers, v)
				}
				if p.Value != k {
					t.Errorf("workers=%d: panic value %v, want the lowest panicking index %d", workers, p.Value, k)
				}
				if len(p.Stack) == 0 {
					t.Errorf("workers=%d: panic carries no stack", workers)
				}
				mu.Lock()
				defer mu.Unlock()
				if returned != n-2 {
					t.Errorf("workers=%d: re-raised after %d of %d other calls returned", workers, returned, n-2)
				}
			}()
			Each(n, workers, func(i int) error {
				if i == k || i == k+3 {
					panic(i)
				}
				for range 100 { // a call still running when Each re-raises fails the count
					runtime.Gosched()
				}
				mu.Lock()
				returned++
				mu.Unlock()
				return nil
			})
			t.Errorf("workers=%d: Each returned", workers)
		}()
	}
}
