package core

import (
	"bytes"
	"encoding/json"
	"testing"

	"voltron/internal/isa"
	"voltron/internal/stats"
	"voltron/internal/trace"
)

// traceRun runs cp with a fresh tracer attached.
func traceRun(t *testing.T, cp *CompiledProgram) (*RunResult, *trace.Tracer) {
	t.Helper()
	cfg := DefaultConfig(cp.Cores)
	cfg.Tracer = trace.New()
	return mustRun(t, cfg, cp), cfg.Tracer
}

// traceWorkloads are the fixed workloads the determinism and attribution
// guarantees are pinned on: one coupled region with memory stalls, one
// decoupled queue pipeline, and the transactional DOALL path both committing
// and falling back.
func traceWorkloads() map[string]*CompiledProgram {
	commit, _ := doallProgram(false)
	fallback, _ := doallProgram(true)
	return map[string]*CompiledProgram{
		"coupled":       coupledStallProgram(),
		"decoupled":     queuePipelineProgram(),
		"doall":         commit,
		"doallFallback": fallback,
	}
}

// TestTraceChromeDeterministic renders the Chrome trace of two independent
// runs of the same workload and requires byte-identical, JSON-valid output.
func TestTraceChromeDeterministic(t *testing.T) {
	for name, cp := range traceWorkloads() {
		t.Run(name, func(t *testing.T) {
			var a, b bytes.Buffer
			_, tr := traceRun(t, cp)
			if err := tr.WriteChrome(&a); err != nil {
				t.Fatal(err)
			}
			_, tr = traceRun(t, cp)
			if err := tr.WriteChrome(&b); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a.Bytes(), b.Bytes()) {
				t.Fatalf("identical runs rendered different traces:\n--- run 1\n%s\n--- run 2\n%s", a.String(), b.String())
			}
			if !json.Valid(a.Bytes()) {
				t.Fatalf("trace is not valid JSON:\n%s", a.String())
			}
			if len(tr.Events) == 0 {
				t.Fatal("traced run collected no events")
			}
		})
	}
}

// TestTraceReportMatchesStats asserts the attribution invariant: for every
// cause, the cycles in the stall report (summed over regions and cores)
// equal exactly what the stats package counted for the same run, and each
// region's cycle bounds match the machine's RegionCycles. Both are charged
// at the same sites in the simulator, so any divergence is a bug.
func TestTraceReportMatchesStats(t *testing.T) {
	for name, cp := range traceWorkloads() {
		t.Run(name, func(t *testing.T) {
			res, tr := traceRun(t, cp)
			rep := tr.Report()
			for _, k := range stats.Kinds() {
				var want int64
				for _, c := range res.Run.Cores {
					want += c.Cycles[k]
				}
				if got := rep.Total(k); got != want {
					t.Errorf("%v: report has %d cycles, stats counted %d", k, got, want)
				}
			}
			if len(rep.Regions) != len(res.RegionCycles) {
				t.Fatalf("report has %d regions, run had %d", len(rep.Regions), len(res.RegionCycles))
			}
			for i, rr := range rep.Regions {
				if got := rr.End - rr.Start; got != res.RegionCycles[i] {
					t.Errorf("region %q: report spans %d cycles, machine counted %d", rr.Name, got, res.RegionCycles[i])
				}
			}
		})
	}
}

// tripCountProgram builds a single-core coupled loop with n iterations of
// store/load traffic through a masked stride (addresses stay inside the
// image no matter the trip count) — the allocation guard runs it at two
// widely different trip counts.
func tripCountProgram(n int64) *CompiledProgram {
	p, out := srcProg(256)
	c0 := newAsm()
	c0.emit(isa.Inst{Op: isa.MOVI, Dst: isa.GPR(1), Imm: 0})
	c0.emit(isa.Inst{Op: isa.PBR, Dst: isa.BTR(0), Imm: 1})
	c0.nop()
	c0.label(1)
	c0.emit(isa.Inst{Op: isa.MUL, Dst: isa.GPR(2), Src1: isa.GPR(1), Imm: 64})
	c0.nop().nop()
	c0.emit(isa.Inst{Op: isa.AND, Dst: isa.GPR(2), Src1: isa.GPR(2), Imm: 1023})
	c0.emit(isa.Inst{Op: isa.ADD, Dst: isa.GPR(2), Src1: isa.GPR(2), Imm: out.Base})
	c0.emit(isa.Inst{Op: isa.STORE, Src1: isa.GPR(2), Src2: isa.GPR(1)})
	c0.emit(isa.Inst{Op: isa.LOAD, Dst: isa.GPR(3), Src1: isa.GPR(2)})
	c0.emit(isa.Inst{Op: isa.ADD, Dst: isa.GPR(1), Src1: isa.GPR(1), Imm: 1})
	c0.emit(isa.Inst{Op: isa.CMPLT, Dst: isa.PR(1), Src1: isa.GPR(1), Imm: n})
	c0.emit(isa.Inst{Op: isa.BR, Src1: isa.BTR(0), Src2: isa.PR(1)})
	c0.emit(isa.Inst{Op: isa.HALT})
	return &CompiledProgram{
		Name: "trip-count", Cores: 1, Src: p,
		Regions: []*CompiledRegion{{
			Name: "r", Mode: Coupled,
			Code:   [][]isa.Inst{c0.code},
			Labels: []map[int64]int{c0.labels},
			Entry:  []int{0}, StartAwake: []bool{true},
		}},
	}
}

// TestEventLoopZeroAllocs is the zero-allocation guard for untraced runs:
// with Config.Tracer nil, simulating 64× more loop iterations must allocate
// exactly as much as the short run — i.e. the event loop itself allocates
// nothing per cycle, and the tracer hooks cost only their nil checks.
func TestEventLoopZeroAllocs(t *testing.T) {
	measure := func(n int64) float64 {
		cp := tripCountProgram(n)
		m := New(DefaultConfig(cp.Cores))
		run := func() {
			if _, err := m.Run(cp); err != nil {
				t.Fatal(err)
			}
		}
		run() // warm the machine's reusable scratch state
		return testing.AllocsPerRun(20, run)
	}
	short, long := measure(8), measure(512)
	if long > short {
		t.Errorf("event loop allocates per iteration: %v allocs/run at 8 trips, %v at 512", short, long)
	}
}

// TestEventLoopZeroAllocsWide is the many-core twin of the guard above: a
// warm run carries a small constant allocation overhead (the result
// struct), but the decoupled event loop — wake scheduler, queue probes and
// lazy stall settlement included — must not allocate per cycle or per
// core, so a warm 64-core machine (idle mesh or fully active) allocates no
// more per run than a warm 8-core one.
func TestEventLoopZeroAllocsWide(t *testing.T) {
	measure := func(cp *CompiledProgram) float64 {
		m := New(DefaultConfig(cp.Cores))
		run := func() {
			if _, err := m.Run(cp); err != nil {
				t.Fatal(err)
			}
		}
		run() // warm the machine's reusable scratch state
		return testing.AllocsPerRun(20, run)
	}
	for _, prog := range []func(int) *CompiledProgram{wideIdlePipelineProgram, allActiveProgram} {
		narrow, wide := prog(8), prog(64)
		if n, w := measure(narrow), measure(wide); w > n {
			t.Errorf("%s: warm 64-core event loop allocates %v per run, 8-core %v — scheduler state scales with width", wide.Name, w, n)
		}
	}
}
