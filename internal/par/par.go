// Package par runs a loop body over an index range on a bounded number of
// goroutines.
package par

import (
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Each calls fn(i) exactly once for every i in [0, n), handing out indices
// in ascending order to at most max(workers, 1) goroutines, the caller's
// among them: with workers <= 1 or n <= 1 it starts none and runs the calls
// in index order. It returns the error of the lowest failing index. If a
// call panics, Each lets every other call return and then panics on the
// caller's goroutine with the lowest-index panic, as a *Panic, so the
// caller's recover contains a panic whichever goroutine raised it.
func Each(n, workers int, fn func(i int) error) error {
	errs := make([]error, n)
	panics := make([]*Panic, n)
	var next atomic.Int64
	work := func() {
		for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
			func() {
				defer func() {
					if v := recover(); v != nil {
						panics[i] = &Panic{Value: v, Stack: debug.Stack()}
					}
				}()
				errs[i] = fn(i)
			}()
		}
	}
	var wg sync.WaitGroup
	for range min(max(workers, 1), n) - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Panic is the value Each panics with: what a call panicked with, and the
// stack it panicked on.
type Panic struct {
	Value any
	Stack []byte
}

func (p *Panic) Error() string { return fmt.Sprintf("%v\n\n%s", p.Value, p.Stack) }
