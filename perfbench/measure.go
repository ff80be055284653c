package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// opFunc runs op i of a workload on behalf of one client and returns the
// simulated cycles of the verified result. A non-nil error counts the op as
// failed (it errored or its output did not check).
type opFunc func(client int, i int64) (cycles int64, err error)

// window is what one closed-loop measurement window recorded.
type window struct {
	lat       []time.Duration // one per completed op, in no particular order
	done      []time.Duration // when each op of lat completed, since the window began
	attempted int64
	failed    int64
	firstErr  error
	cycles    int64 // simulated cycles of the verified results delivered
	elapsed   time.Duration
	cpu       time.Duration // process user+sys time over the window
	mallocs   uint64        // heap allocations over the window
}

// closedLoop runs clients goroutines, each claiming the next op index and
// issuing it only after its previous op completed. Claims stop at the first
// multiple of round at or after both the index reached when the window
// ends and minOps, so a run always covers whole rounds of the workload's op
// mix; round 1 and minOps 0 stop right at the deadline.
func closedLoop(clients int, seconds float64, round, minOps int64, op opFunc) window {
	var (
		next   atomic.Int64
		stopAt atomic.Int64
		mu     sync.Mutex
		w      window
		wg     sync.WaitGroup
	)
	stopAt.Store(math.MaxInt64)
	end := deadline(seconds)
	cpu0 := cpuTime()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs0 := ms.Mallocs
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var lat, done []time.Duration
			var attempted, failed, cycles int64
			var firstErr error
			for {
				i := next.Add(1) - 1
				if i >= stopAt.Load() {
					break
				}
				if time.Now().After(end) {
					// Every index claimed so far is below next, so the stop
					// point never strands an op another client already holds.
					at := roundUp(max(next.Load(), minOps), round)
					stopAt.CompareAndSwap(math.MaxInt64, at)
					if i >= stopAt.Load() {
						break
					}
				}
				t0 := time.Now()
				cyc, err := op(c, i)
				d := time.Since(t0)
				attempted++
				if err != nil {
					failed++
					if firstErr == nil {
						firstErr = fmt.Errorf("op %d: %w", i, err)
					}
					continue
				}
				lat = append(lat, d)
				done = append(done, time.Since(start))
				cycles += cyc
			}
			mu.Lock()
			w.lat = append(w.lat, lat...)
			w.done = append(w.done, done...)
			w.attempted += attempted
			w.failed += failed
			w.cycles += cycles
			if w.firstErr == nil {
				w.firstErr = firstErr
			}
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	w.elapsed = time.Since(start)
	w.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&ms)
	w.mallocs = ms.Mallocs - mallocs0
	return w
}

func roundUp(n, m int64) int64 {
	return (n + m - 1) / m * m
}

// cpuTime is the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// percentile returns the exact nearest-rank p-quantile of the sorted
// samples (the smallest sample with at least p of the samples at or below
// it) and how many samples lie beyond it.
func percentile(sorted []time.Duration, p float64) (v time.Duration, beyond int) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	rank := int(math.Ceil(p * float64(n)))
	rank = min(max(rank, 1), n)
	return sorted[rank-1], n - rank
}

// minBeyond is how many samples must lie beyond a percentile before it is
// reported: fewer make a tail percentile a handful of outliers.
const minBeyond = 10

// e2eMetrics records a window's end-to-end metrics except live_heap_mb,
// which the caller measures once it has dropped the window's samples. Every
// percentile with at least minBeyond samples beyond it goes into the report
// lines; p50 and p90 also go into the JSON result, and a run whose window
// is too short for them is an error, not a silent omission.
func e2eMetrics(r *report, w window, setup []time.Duration, simCycles int64) error {
	r.count(w.attempted, w.failed)
	if w.firstErr != nil {
		r.note("first failure: %v", w.firstErr)
	}
	ok := int64(len(w.lat))
	if ok == 0 {
		return fmt.Errorf("no op completed (%d attempted): %v", w.attempted, w.firstErr)
	}
	lat := slices.Clone(w.lat)
	slices.Sort(lat)
	r.note("samples n=%d attempted=%d failed=%d failed_frac=%g elapsed_s=%g", ok, w.attempted, w.failed,
		float64(w.failed)/float64(w.attempted), w.elapsed.Seconds())
	for _, q := range []struct {
		name string
		p    float64
		gate bool
	}{{"p50_ms", 0.50, true}, {"p90_ms", 0.90, true}, {"p99_ms", 0.99, false}} {
		v, beyond := percentile(lat, q.p)
		ms := float64(v) / 1e6
		if beyond < minBeyond {
			if q.gate {
				return fmt.Errorf("%s has %d samples beyond it (n=%d), want >= %d", q.name, beyond, ok, minBeyond)
			}
			r.note("%s not reported: %d samples beyond it (n=%d)", q.name, beyond, ok)
			continue
		}
		r.note("%s %g ms (n=%d, %d beyond)", q.name, ms, ok, beyond)
		if q.gate {
			r.set(q.name, ms, "ms")
		}
	}
	r.note("max_ms %g", float64(lat[len(lat)-1])/1e6)
	perSec := make([]int, int(w.elapsed/time.Second)+1)
	for _, d := range w.done {
		perSec[int(d/time.Second)]++
	}
	r.note("ops per second of the window: %v", perSec)
	r.set("setup_s", median(setup).Seconds(), "s")
	r.note("setup_s samples %v", setup)
	r.set("ops_per_s", float64(ok)/w.elapsed.Seconds(), "1/s")
	r.set("cpu_ms_per_op", float64(w.cpu)/1e6/float64(w.attempted), "ms")
	r.set("allocs_per_op", float64(w.mallocs)/float64(w.attempted), "count")
	r.set("sim_mcycles_per_s", float64(w.cycles)/1e6/w.elapsed.Seconds(), "Mcycles/s")
	r.set("sim_cycles", float64(simCycles), "cycles")
	return nil
}

// liveHeap is the heap in use after forced collections (two: the first
// only moves sync.Pool contents to their victim caches).
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func median(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := slices.Clone(ds)
	slices.Sort(s)
	return s[(len(s)-1)/2]
}

// setupReps is how many times a run sets its workload up; setup_s is the
// median, which keeps one slow boot from moving the metric.
const setupReps = 5

// repeatSetup runs setup setupReps times, tearing down every instance but
// the last, and returns the last instance with every repetition's time.
func repeatSetup[T any](setup func() (T, error), teardown func(T)) (T, []time.Duration, error) {
	var (
		inst  T
		times []time.Duration
	)
	for k := 0; k < setupReps; k++ {
		if k > 0 {
			teardown(inst)
		}
		runtime.GC() // each repetition starts from the same collected heap
		t0 := time.Now()
		var err error
		inst, err = setup()
		if err != nil {
			return inst, nil, err
		}
		times = append(times, time.Since(t0))
	}
	return inst, times, nil
}
