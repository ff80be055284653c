// Package exp regenerates every figure of the paper's evaluation (§5):
// the parallelism breakdown (Figure 3), per-technique speedups on 2 and 4
// cores (Figures 10 and 11), the stall breakdown under coupled vs decoupled
// execution (Figure 12), hybrid speedups (Figure 13), and execution-mode
// occupancy (Figure 14), plus the kernel speedups of Figures 7–9.
package exp

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"sync"

	"voltron/internal/compiler"
	"voltron/internal/core"
	"voltron/internal/ir"
	"voltron/internal/prof"
	"voltron/internal/workload"
)

// Table is a printable experiment result: one row per benchmark plus an
// average row, one column per measured series.
type Table struct {
	Title   string
	Columns []string
	Rows    []Row
}

// Row is one benchmark's measurements.
type Row struct {
	Name   string
	Values []float64
}

// Average computes the arithmetic mean per column over the rows.
func (t *Table) Average() Row {
	avg := Row{Name: "average", Values: make([]float64, len(t.Columns))}
	if len(t.Rows) == 0 {
		return avg
	}
	for _, r := range t.Rows {
		for i, v := range r.Values {
			avg.Values[i] += v
		}
	}
	for i := range avg.Values {
		avg.Values[i] /= float64(len(t.Rows))
	}
	return avg
}

// Print renders the table with an average footer.
func (t *Table) Print(w io.Writer) {
	fmt.Fprintf(w, "%s\n", t.Title)
	fmt.Fprintf(w, "%-14s", "benchmark")
	for _, c := range t.Columns {
		fmt.Fprintf(w, " %14s", c)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, strings.Repeat("-", 15+15*len(t.Columns)))
	for _, r := range t.Rows {
		fmt.Fprintf(w, "%-14s", r.Name)
		for _, v := range r.Values {
			fmt.Fprintf(w, " %14.3f", v)
		}
		fmt.Fprintln(w)
	}
	avg := t.Average()
	fmt.Fprintf(w, "%-14s", avg.Name)
	for _, v := range avg.Values {
		fmt.Fprintf(w, " %14.3f", v)
	}
	fmt.Fprintln(w)
}

// WriteJSON renders the table (rows plus the average) as JSON.
func (t *Table) WriteJSON(w io.Writer) error {
	type jsonRow struct {
		Benchmark string             `json:"benchmark"`
		Values    map[string]float64 `json:"values"`
	}
	out := struct {
		Title string    `json:"title"`
		Rows  []jsonRow `json:"rows"`
	}{Title: t.Title}
	emit := func(r Row) {
		jr := jsonRow{Benchmark: r.Name, Values: map[string]float64{}}
		for i, c := range t.Columns {
			if i < len(r.Values) {
				jr.Values[c] = r.Values[i]
			}
		}
		out.Rows = append(out.Rows, jr)
	}
	for _, r := range t.Rows {
		emit(r)
	}
	emit(t.Average())
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// Suite caches compiled runs so figures sharing configurations do not
// re-simulate. A Suite is safe for concurrent use: several figure
// harnesses may share one Suite, each (bench, strategy, cores)
// configuration is simulated exactly once (per-key singleflight), and the
// number of concurrent simulations is bounded by Workers.
type Suite struct {
	mu    sync.Mutex
	runs  map[runKey]*flight[*core.RunResult]
	profs map[string]*flight[*prof.Profile]
	progs map[string]*flight[*ir.Program]
	// Benchmarks restricts the suite (defaults to all 25).
	Benchmarks []string
	// Workers bounds concurrent simulations (and is forwarded to the
	// compiler's measured-selection pool). Defaults to
	// runtime.GOMAXPROCS(0); set it before the first Run. 1 gives fully
	// sequential evaluation. Results are identical for every value.
	Workers int
	// Select picks the compiler's strategy-selection mode for every compile
	// (measured, the default; static; or the tiered auto mode) and
	// SelectThreshold auto mode's confidence floor (0 = compiler default).
	// Set before the first Run: runs are cached by (bench, strategy, cores)
	// only, so one Suite evaluates one selection configuration.
	Select          compiler.SelectionMode
	SelectThreshold float64
	semOnce         sync.Once
	sem             chan struct{}
}

type runKey struct {
	bench string
	strat compiler.Strategy
	cores int
}

// flight is one singleflight slot: the first claimant computes the value
// and closes done; everyone else blocks on done. Simulations are
// deterministic, so errors are cached alongside values.
type flight[T any] struct {
	done chan struct{}
	val  T
	err  error
}

// once returns the flight for key in m, claiming it (claimed=true) when the
// caller is the first and must compute the value.
func once[K comparable, T any](s *Suite, m map[K]*flight[T], key K) (f *flight[T], claimed bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if f, ok := m[key]; ok {
		return f, false
	}
	f = &flight[T]{done: make(chan struct{})}
	m[key] = f
	return f, true
}

// do resolves key in m via singleflight, invoking fn at most once.
func do[K comparable, T any](s *Suite, m map[K]*flight[T], key K, fn func() (T, error)) (T, error) {
	f, claimed := once(s, m, key)
	if claimed {
		f.val, f.err = fn()
		close(f.done)
	} else {
		<-f.done
	}
	return f.val, f.err
}

// NewSuite creates an empty result cache over the full benchmark list.
func NewSuite() *Suite {
	return &Suite{
		runs:       map[runKey]*flight[*core.RunResult]{},
		profs:      map[string]*flight[*prof.Profile]{},
		progs:      map[string]*flight[*ir.Program]{},
		Benchmarks: workload.Names(),
		Workers:    runtime.GOMAXPROCS(0),
	}
}

// workers returns the effective simulation bound.
func (s *Suite) workers() int {
	if s.Workers > 0 {
		return s.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// acquire takes one slot of the shared simulation pool.
func (s *Suite) acquire() {
	s.semOnce.Do(func() { s.sem = make(chan struct{}, s.workers()) })
	s.sem <- struct{}{}
}

func (s *Suite) release() { <-s.sem }

// Program builds (and caches) one benchmark. The same IR instance must
// serve profiling and every compile: profiles are keyed by op identity.
// The returned program is shared — callers must treat it as read-only
// (compiling it is fine, also concurrently: the compiler's only in-place
// pass is guarded by ir.Program.PrepareOnce).
func (s *Suite) Program(bench string) (*ir.Program, error) {
	return do(s, s.progs, bench, func() (*ir.Program, error) {
		return workload.Build(bench)
	})
}

// Profile collects (and caches) the profile of one benchmark. Profiling
// always completes before the benchmark's first compile (Run collects the
// profile first), so the profiling interpreter never overlaps the
// compiler's one-shot IR cleanup.
func (s *Suite) Profile(bench string) (*prof.Profile, error) {
	return do(s, s.profs, bench, func() (*prof.Profile, error) {
		p, err := s.Program(bench)
		if err != nil {
			return nil, err
		}
		return prof.Collect(p)
	})
}

// Run returns the (cached) simulation of one configuration. Concurrent
// calls with the same key share one simulation.
func (s *Suite) Run(bench string, strat compiler.Strategy, cores int) (*core.RunResult, error) {
	return do(s, s.runs, runKey{bench, strat, cores}, func() (*core.RunResult, error) {
		p, err := s.Program(bench)
		if err != nil {
			return nil, err
		}
		pr, err := s.Profile(bench)
		if err != nil {
			return nil, err
		}
		// Compile and simulate under the bounded pool. The slot is taken
		// only here — never while waiting on another flight — so nested
		// cache fills cannot deadlock the pool. A compile that measured a
		// region hands back its selection's end state as the run.
		s.acquire()
		defer s.release()
		_, res, err := compiler.CompileRun(context.Background(), p, compiler.Options{
			Cores: cores, Strategy: strat, Profile: pr, Workers: s.workers(),
			Selection: s.Select, SelectThreshold: s.SelectThreshold,
		}, core.DefaultConfig(cores))
		if err != nil {
			return nil, fmt.Errorf("%s/%v/%d: %w", bench, strat, cores, err)
		}
		return res, nil
	})
}

// Speedup returns serial cycles divided by the configuration's cycles.
func (s *Suite) Speedup(bench string, strat compiler.Strategy, cores int) (float64, error) {
	base, err := s.Run(bench, compiler.Serial, 1)
	if err != nil {
		return 0, err
	}
	r, err := s.Run(bench, strat, cores)
	if err != nil {
		return 0, err
	}
	if r.TotalCycles == 0 {
		return 0, fmt.Errorf("%s: zero cycles", bench)
	}
	return float64(base.TotalCycles) / float64(r.TotalCycles), nil
}

// sortedBenchmarks returns the suite's benchmark list in the paper's order.
func (s *Suite) sortedBenchmarks() []string {
	out := append([]string(nil), s.Benchmarks...)
	pos := map[string]int{}
	for i, n := range workload.Names() {
		pos[n] = i
	}
	sort.Slice(out, func(i, j int) bool { return pos[out[i]] < pos[out[j]] })
	return out
}

// tableRows fans fn out over the suite's benchmarks — one goroutine per
// benchmark, with the simulation load bounded by the suite's shared worker
// pool — and assembles the rows in the paper's order regardless of
// completion order. The first error in row order wins, so failures are
// reported deterministically.
func (s *Suite) tableRows(fn func(bench string) ([]float64, error)) ([]Row, error) {
	benches := s.sortedBenchmarks()
	rows := make([]Row, len(benches))
	errs := make([]error, len(benches))
	var wg sync.WaitGroup
	for i, b := range benches {
		wg.Add(1)
		go func(i int, b string) {
			defer wg.Done()
			var vals []float64
			if vals, errs[i] = fn(b); errs[i] == nil {
				rows[i] = Row{Name: b, Values: vals}
			}
		}(i, b)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return rows, nil
}
