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
	"math"
	"runtime"
	"sort"
	"strings"

	"voltron/internal/compiler"
	"voltron/internal/core"
	"voltron/internal/ir"
	"voltron/internal/lru"
	"voltron/internal/par"
	"voltron/internal/prof"
	"voltron/internal/spec"
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
// harnesses may share one Suite, and each (bench, strategy, cores)
// configuration is simulated exactly once (per-key singleflight). Only
// successes are cached: a failed or panicking computation returns its error
// and the next call for the key computes again.
type Suite struct {
	runs  *lru.Cache[runKey, *core.RunResult]
	profs *lru.Cache[string, *prof.Profile]
	progs *lru.Cache[string, *ir.Program]
	// Benchmarks restricts the suite (defaults to all 25).
	Benchmarks []string
	// Workers bounds the benchmarks one harness evaluates at once and is
	// forwarded to the compiler's measured-selection pool. Defaults to
	// runtime.GOMAXPROCS(0); 1 gives fully sequential evaluation. Results
	// are identical for every value.
	Workers int
	// Select picks the compiler's strategy-selection mode for every compile
	// (measured, the default; static; or the tiered auto mode) and
	// SelectThreshold auto mode's confidence floor (0 = compiler default).
	// Set before the first Run: runs are cached by (bench, strategy, cores)
	// only, so one Suite evaluates one selection configuration.
	Select          compiler.SelectionMode
	SelectThreshold float64
}

type runKey struct {
	bench string
	strat compiler.Strategy
	cores int
}

// NewSuite creates an empty result cache over the full benchmark list. The
// caches never evict, so no configuration is simulated twice.
func NewSuite() *Suite {
	return &Suite{
		runs:       lru.New[runKey, *core.RunResult](math.MaxInt),
		profs:      lru.New[string, *prof.Profile](math.MaxInt),
		progs:      lru.New[string, *ir.Program](math.MaxInt),
		Benchmarks: workload.Names(),
		Workers:    runtime.GOMAXPROCS(0),
	}
}

// workers returns the effective fan-out bound.
func (s *Suite) workers() int {
	if s.Workers > 0 {
		return s.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Program builds (and caches) one benchmark. The same IR instance must
// serve profiling and every compile: profiles are keyed by op identity.
// The returned program is shared — callers must treat it as read-only
// (compiling it is fine, also concurrently: the compiler's only in-place
// pass is guarded by ir.Program.PrepareOnce).
func (s *Suite) Program(bench string) (*ir.Program, error) {
	p, _, err := s.progs.Get(context.Background(), bench, func() (*ir.Program, error) {
		return workload.Build(bench)
	})
	return p, err
}

// Profile collects (and caches) the profile of one benchmark. Profiling
// always completes before the benchmark's first compile (Run collects the
// profile first), so the profiling interpreter never overlaps the
// compiler's one-shot IR cleanup.
func (s *Suite) Profile(bench string) (*prof.Profile, error) {
	pr, _, err := s.profs.Get(context.Background(), bench, func() (*prof.Profile, error) {
		p, err := s.Program(bench)
		if err != nil {
			return nil, err
		}
		return prof.Collect(p)
	})
	return pr, err
}

// Resolve materializes a normalized job's program. Benchmarks come from the
// suite, built and profiled once (Program, Profile); kernel and source
// programs build per call with a nil profile (the compiler profiles them).
func (s *Suite) Resolve(req *spec.JobRequest) (*ir.Program, *prof.Profile, error) {
	if req.Program.Kind != spec.KindBench {
		p, err := req.Program.Build()
		return p, nil, err
	}
	p, err := s.Program(req.Program.Bench)
	if err != nil {
		return nil, nil, err
	}
	pr, err := s.Profile(req.Program.Bench)
	return p, pr, err
}

// Run returns the (cached) simulation of one configuration: the bench job
// at the suite's selection settings, through the same pipeline as every
// other entry point (spec.JobRequest.Simulate). Concurrent calls with the
// same key share one simulation.
func (s *Suite) Run(bench string, strat compiler.Strategy, cores int) (*core.RunResult, error) {
	res, _, err := s.runs.Get(context.Background(), runKey{bench, strat, cores}, func() (*core.RunResult, error) {
		req := &spec.JobRequest{
			Program:  &spec.ProgramSpec{Kind: spec.KindBench, Bench: bench},
			Strategy: spec.StrategyName(strat),
			Cores:    cores,
			Compiler: spec.CompilerOptions{Select: s.Select.String(), SelectThreshold: s.SelectThreshold},
		}
		p, pr, err := s.Resolve(req)
		if err != nil {
			return nil, err
		}
		_, _, res, _, err := req.Simulate(context.Background(), p, pr, nil, core.New(req.MachineConfig(nil)), s.workers())
		if err != nil {
			return nil, fmt.Errorf("%s/%v/%d: %w", bench, strat, cores, err)
		}
		return res, nil
	})
	return res, err
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

// tableRows fills t's rows by fanning fn out over the suite's benchmarks,
// Workers at a time, and returns t. Rows are in the paper's order
// regardless of completion order, and the first error in row order wins,
// so failures are reported deterministically.
func (s *Suite) tableRows(t *Table, fn func(bench string) ([]float64, error)) (*Table, error) {
	benches := s.sortedBenchmarks()
	t.Rows = make([]Row, len(benches))
	err := par.Each(len(benches), s.workers(), func(i int) error {
		vals, err := fn(benches[i])
		t.Rows[i] = Row{Name: benches[i], Values: vals}
		return err
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}
