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
	progs *lru.Cache[string, program] // the program tier, by spec.ProgramSpec.Key
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

// program is one tier entry: an IR program and its op-keyed profile.
type program struct {
	p  *ir.Program
	pr *prof.Profile
}

// programEntries bounds the tier: 25 benchmarks plus the programs of 64 cached artifacts.
const programEntries = 25 + 64

// NewSuite creates an empty result cache over the full benchmark list. The
// run cache never evicts, so no configuration is simulated twice.
func NewSuite() *Suite {
	return &Suite{
		runs:       lru.New[runKey, *core.RunResult](math.MaxInt),
		progs:      lru.New[string, program](programEntries),
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

// Resolve builds and profiles (compiler.Profile) a normalized program spec
// of any kind once per content. The program is shared and read-only to
// callers; compiling it is fine, also concurrently. ctx bounds the
// profiling of the call that computes the entry.
func (s *Suite) Resolve(ctx context.Context, ps *spec.ProgramSpec) (*ir.Program, *prof.Profile, error) {
	v, _, err := s.progs.Get(ctx, ps.Key(), func() (program, error) {
		p, err := ps.Build()
		if err != nil {
			return program{}, err
		}
		pr, err := compiler.Profile(ctx, p)
		return program{p, pr}, err
	})
	return v.p, v.pr, err
}

// Program returns one benchmark's resolved program (see Resolve).
func (s *Suite) Program(bench string) (*ir.Program, error) {
	p, _, err := s.Resolve(context.Background(), benchSpec(bench))
	return p, err
}

// Profile returns one benchmark's profile (see Resolve).
func (s *Suite) Profile(bench string) (*prof.Profile, error) {
	_, pr, err := s.Resolve(context.Background(), benchSpec(bench))
	return pr, err
}

// benchSpec is the program spec naming one benchmark.
func benchSpec(bench string) *spec.ProgramSpec {
	return &spec.ProgramSpec{Kind: spec.KindBench, Bench: bench}
}

// Run returns the (cached) simulation of one configuration: the bench job
// at the suite's selection settings, through the same pipeline as every
// other entry point (spec.JobRequest.Simulate). Concurrent calls with the
// same key share one simulation.
func (s *Suite) Run(bench string, strat compiler.Strategy, cores int) (*core.RunResult, error) {
	res, _, err := s.runs.Get(context.Background(), runKey{bench, strat, cores}, func() (*core.RunResult, error) {
		req := &spec.JobRequest{
			Program:  benchSpec(bench),
			Strategy: spec.StrategyName(strat),
			Cores:    cores,
			Compiler: spec.CompilerOptions{Select: s.Select.String(), SelectThreshold: s.SelectThreshold},
		}
		p, pr, err := s.Resolve(context.Background(), req.Program)
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
