package compiler

import (
	"fmt"
	"testing"

	"voltron/internal/ir"
	"voltron/internal/prof"
	"voltron/internal/workload"
)

// compileCases are the lowerings BenchmarkCompile and
// TestCompileAllocCeiling measure on compileBench: the serial baseline,
// forced fine-grain TLP (measured selection) and statically selected
// hybrid, each at 4 and 64 cores, plus measured hybrid and forced DOALL at
// 64 cores. maxAllocs is about 10% above the allocations per Compile
// measured on linux/amd64 with Go 1.24 (1778, 1958, 8962, 11001, 11502,
// 10823, 13688 and 3192).
var compileCases = []struct {
	strat     Strategy
	sel       SelectionMode
	cores     int
	maxAllocs float64
}{
	{Serial, SelectMeasured, 4, 1960},
	{Serial, SelectMeasured, 64, 2160},
	{ForceFTLP, SelectMeasured, 4, 9860},
	{ForceFTLP, SelectMeasured, 64, 12110},
	{Hybrid, SelectStatic, 4, 12660},
	{Hybrid, SelectStatic, 64, 11910},
	{Hybrid, SelectMeasured, 64, 15060},
	{ForceLLP, SelectMeasured, 64, 3520},
}

// compileBench is the fixed benchmark the compile measurements use: its
// regions cover DOALL, coupled and decoupled lowerings.
const compileBench = "gsmdecode"

func compileCaseName(strat Strategy, sel SelectionMode, cores int) string {
	if strat == Hybrid {
		return fmt.Sprintf("%v-%v/%d", strat, sel, cores)
	}
	return fmt.Sprintf("%v/%d", strat, cores)
}

// compileBenchProgram builds and profiles compileBench and runs the
// compiler's one-shot cleanup, so measured compiles see the steady state.
func compileBenchProgram(tb testing.TB) (*ir.Program, *prof.Profile) {
	p, err := workload.Build(compileBench)
	if err != nil {
		tb.Fatal(err)
	}
	pr, err := prof.Collect(p)
	if err != nil {
		tb.Fatal(err)
	}
	p.PrepareOnce(func() { Optimize(p) })
	return p, pr
}

func BenchmarkCompile(b *testing.B) {
	p, pr := compileBenchProgram(b)
	for _, c := range compileCases {
		opts := Options{Cores: c.cores, Strategy: c.strat, Selection: c.sel, Profile: pr, Workers: 1}
		b.Run(compileCaseName(c.strat, c.sel, c.cores), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Compile(p, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestCompileAllocCeiling guards the cost of lowering: allocations per
// Compile must stay within each case's ceiling.
func TestCompileAllocCeiling(t *testing.T) {
	p, pr := compileBenchProgram(t)
	for _, c := range compileCases {
		opts := Options{Cores: c.cores, Strategy: c.strat, Selection: c.sel, Profile: pr, Workers: 1}
		var err error
		got := testing.AllocsPerRun(5, func() {
			_, err = Compile(p, opts)
		})
		if err != nil {
			t.Fatal(err)
		}
		name := compileCaseName(c.strat, c.sel, c.cores)
		t.Logf("%s: %.0f allocs per compile (ceiling %.0f)", name, got, c.maxAllocs)
		if got > c.maxAllocs {
			t.Errorf("%s: %.0f allocs per compile, ceiling %.0f", name, got, c.maxAllocs)
		}
	}
}
