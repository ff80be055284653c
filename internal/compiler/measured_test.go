package compiler

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"voltron/internal/core"
	"voltron/internal/ir"
	"voltron/internal/isa"
	"voltron/internal/prof"
	"voltron/internal/stats"
	"voltron/internal/trace"
	"voltron/internal/workload"
)

// compileWorkers compiles p with an explicit measured-selection worker
// count, failing the test on error.
func compileWorkers(t *testing.T, p *ir.Program, strat Strategy, cores, workers int) *core.CompiledProgram {
	t.Helper()
	pr, err := prof.Collect(p)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := Compile(p, Options{Cores: cores, Strategy: strat, Profile: pr, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	return cp
}

// TestMeasuredSelectionDeterministic asserts the tentpole guarantee of the
// parallel measured-selection pipeline: for any worker count, the selected
// program is identical to the sequential (Workers=1) pipeline's — same
// per-region strategies, same instruction streams, byte for byte.
func TestMeasuredSelectionDeterministic(t *testing.T) {
	cases := []struct {
		name  string
		mk    func() *ir.Program
		strat Strategy
	}{
		{"multi-region-hybrid", progMultiRegion, Hybrid},
		{"diamond-hybrid", func() *ir.Program { return progDiamond(256) }, Hybrid},
		{"strands-ftlp", func() *ir.Program { return progStrands(512) }, ForceFTLP},
		{"copyadd-ilp", func() *ir.Program { return progCopyAdd(128) }, ForceILP},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := c.mk()
			seq := compileWorkers(t, p, c.strat, 4, 1)
			for _, workers := range []int{2, 8} {
				par := compileWorkers(t, p, c.strat, 4, workers)
				if !reflect.DeepEqual(seq.Regions, par.Regions) {
					for i := range seq.Regions {
						if !reflect.DeepEqual(seq.Regions[i], par.Regions[i]) {
							t.Errorf("workers=%d: region %q diverges from sequential selection (mode %v vs %v)",
								workers, seq.Regions[i].Name, seq.Regions[i].Mode, par.Regions[i].Mode)
						}
					}
				}
			}
		})
	}
}

// TestMeasuredSelectionDeterministicOnBenchmarks repeats the determinism
// check on real suite benchmarks covering the three parallelism classes.
func TestMeasuredSelectionDeterministicOnBenchmarks(t *testing.T) {
	for _, bench := range []string{"gsmdecode", "179.art", "171.swim"} {
		t.Run(bench, func(t *testing.T) {
			p, err := workload.Build(bench)
			if err != nil {
				t.Fatal(err)
			}
			seq := compileWorkers(t, p, Hybrid, 4, 1)
			par := compileWorkers(t, p, Hybrid, 4, 8)
			if !reflect.DeepEqual(seq.Regions, par.Regions) {
				t.Errorf("%s: parallel selection diverges from sequential", bench)
			}
		})
	}
}

// TestNoThresholdSentinel covers the threshold encoding: 0 means "apply the
// paper's default", NoThreshold (negative) disables the gate entirely.
func TestNoThresholdSentinel(t *testing.T) {
	// withDefaults semantics, including double application (the sentinel
	// must survive a second pass rather than resurrecting the default).
	o := Options{DOALLTripThreshold: NoThreshold}.withDefaults()
	if o.DOALLTripThreshold >= 0 {
		t.Errorf("NoThreshold resolved to %v, want a preserved negative sentinel", o.DOALLTripThreshold)
	}
	if o2 := o.withDefaults(); o2.DOALLTripThreshold >= 0 {
		t.Errorf("double withDefaults resurrected the gate: %v", o2.DOALLTripThreshold)
	}
	if d := (Options{}).withDefaults(); d.DOALLTripThreshold != 8 || d.DSWPThreshold != 1.25 {
		t.Errorf("unset thresholds = %v/%v, want defaults 8/1.25", d.DOALLTripThreshold, d.DSWPThreshold)
	}

	// Behavior: a 4-trip DOALL loop is below the default trip threshold
	// (8), so ForceLLP falls back to serial — but with NoThreshold the
	// gate is off and the loop is chunked.
	p := progCopyAdd(4)
	pr, err := prof.Collect(p)
	if err != nil {
		t.Fatal(err)
	}
	gated, err := Compile(p, Options{Cores: 2, Strategy: ForceLLP, Profile: pr})
	if err != nil {
		t.Fatal(err)
	}
	if gated.Regions[0].Mode == core.DOALL {
		t.Error("trip count 4 passed the default threshold of 8")
	}
	open, err := Compile(p, Options{Cores: 2, Strategy: ForceLLP, Profile: pr, DOALLTripThreshold: NoThreshold})
	if err != nil {
		t.Fatal(err)
	}
	if open.Regions[0].Mode != core.DOALL {
		t.Errorf("NoThreshold: region mode %v, want DOALL", open.Regions[0].Mode)
	}
}

// BenchmarkMeasuredSelection isolates measured strategy selection on one
// mid-size workload, so the baseline-hoisting and worker-pool wins are
// individually visible in go test -bench.
func BenchmarkMeasuredSelection(b *testing.B) {
	p, err := workload.Build("gsmdecode")
	if err != nil {
		b.Fatal(err)
	}
	pr, err := prof.Collect(p)
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name    string
		workers int
	}{{"workers=1", 1}, {"workers=max", 0}} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Compile(p, Options{Cores: 4, Strategy: Hybrid, Profile: pr, Workers: bc.workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestPrefixRunMatchesFullRun pins checkpointed candidate runs: for every
// region measured selection simulates — the suite under ilp, ftlp and
// hybrid at 2, 4, 16 and 64 cores — each candidate's time from the eval
// pool, serial's included, resumed from the committed region-boundary checkpoint, must equal
// the region's time in a full-program run of the same background. The
// failed-gap case commits a region that fails to simulate ahead of
// measured ones: every later candidate must score -1, as a full run does.
func TestPrefixRunMatchesFullRun(t *testing.T) {
	for _, name := range workload.Names() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			p, err := workload.Build(name)
			if err != nil {
				t.Fatal(err)
			}
			p.PrepareOnce(func() { Optimize(p) })
			pr := mustProfile(t, p)
			checked := 0
			for _, strat := range []Strategy{ForceILP, ForceFTLP, Hybrid} {
				for _, cores := range []int{2, 4, 16, 64} {
					opts := Options{Cores: cores, Strategy: strat, Profile: pr, Workers: 1}.withDefaults()
					plans, err := planRegions(p, opts)
					if err != nil {
						t.Fatal(err)
					}
					r := checkPrefixRuns(t, p, opts, plans)
					checked += r.ok + r.failed
					// The replay must have installed exactly what Compile
					// selects. Regions compare by their emitted fields: a
					// region's lazily resolved branch tables are filled only
					// once it has been simulated.
					want, err := Compile(p, opts)
					if err != nil {
						t.Fatal(err)
					}
					var gotBuf, wantBuf []byte
					for i := range r.regions {
						gotBuf = appendRegion(gotBuf, r.regions[i])
						wantBuf = appendRegion(wantBuf, want.Regions[i])
					}
					if !bytes.Equal(gotBuf, wantBuf) {
						t.Errorf("%v/%d: replayed selection differs from Compile's", opts.Strategy, opts.Cores)
					}
				}
			}
			t.Logf("%d candidate runs checked", checked)
		})
	}
	t.Run("failed-gap", func(t *testing.T) {
		t.Parallel()
		p, err := workload.Build("gsmdecode")
		if err != nil {
			t.Fatal(err)
		}
		p.PrepareOnce(func() { Optimize(p) })
		opts := Options{Cores: 4, Strategy: ForceILP, Profile: mustProfile(t, p), Workers: 2}.withDefaults()
		plans, err := planRegions(p, opts)
		if err != nil {
			t.Fatal(err)
		}
		// Install a deadlocking region in place of region 0, ahead of the
		// measured ones.
		measuredAfter := false
		for _, pl := range plans[1:] {
			measuredAfter = measuredAfter || !pl.small && len(pl.candidates) > 0
		}
		if !measuredAfter {
			t.Fatal("gsmdecode has no measured region after its first")
		}
		plans[0].small, plans[0].doall = false, deadlockRegion(opts.Cores)
		if r := checkPrefixRuns(t, p, opts, plans); r.ok != 0 || r.failed == 0 {
			t.Errorf("after a failed gap region: %d candidates scored, %d failed; want all failed", r.ok, r.failed)
		}
	})
}

// deadlockRegion is a valid decoupled region that deadlocks: core 0
// receives from core 1, which never wakes.
func deadlockRegion(cores int) *core.CompiledRegion {
	cr := &core.CompiledRegion{
		Name: "deadlock", Mode: core.Decoupled,
		Code:   make([][]isa.Inst, cores),
		Labels: make([]map[int64]int, cores),
		Entry:  make([]int, cores), StartAwake: make([]bool, cores),
	}
	cr.Code[0] = []isa.Inst{{Op: isa.RECV, Dst: isa.GPR(1), Core: 1}, {Op: isa.HALT}}
	cr.StartAwake[0] = true
	return cr
}

// replay is checkPrefixRuns' outcome: the installed regions and the
// numbers of candidates that scored and that failed.
type replay struct {
	regions    []*core.CompiledRegion
	ok, failed int
}

// checkPrefixRuns replays compileSelected's measured mode (SelectMeasured is
// the zero mode) region by region over plans, comparing every candidate's
// time from the eval pool, serial's included, against a full run.
func checkPrefixRuns(t *testing.T, p *ir.Program, opts Options, plans []*regionPlan) replay {
	t.Helper()
	cp := &core.CompiledProgram{Name: p.Name, Cores: opts.Cores, Src: p,
		Regions: make([]*core.CompiledRegion, len(plans))}
	// As in compileSelected, DOALL picks are installed before the pool is
	// built and every other region starts serial.
	for i, pl := range plans {
		cp.Regions[i] = pl.lowering(ChoseLLP)
	}
	ctx := context.Background()
	pool := newEvalPool(opts, cp, nil)
	defer pool.release()
	full := core.New(core.DefaultConfig(opts.Cores))
	var out replay
	for i, pl := range plans {
		if pl.small || pl.doall != nil || len(pl.candidates) == 0 {
			continue
		}
		crs := []*core.CompiledRegion{pl.serial}
		for _, cand := range pl.candidates {
			crs = append(crs, cand.cr)
		}
		got := pool.measure(ctx, i, crs)
		for k, cand := range crs {
			bg := *cp
			bg.Regions = append([]*core.CompiledRegion(nil), cp.Regions...)
			bg.Regions[i] = cand
			want := int64(-1)
			if res, err := full.Run(&bg); err == nil {
				want = res.RegionCycles[i]
			}
			if got[k] != want {
				choice := ChoseSingle
				if k > 0 {
					choice = pl.candidates[k-1].choice
				}
				t.Errorf("%v/%d region %d candidate %v: resumed run %d cycles, full run %d",
					opts.Strategy, opts.Cores, i, choice, got[k], want)
			}
			if got[k] < 0 {
				out.failed++
			} else {
				out.ok++
			}
		}
		measureRegion(ctx, pool, cp, i, pl)
	}
	out.regions = cp.Regions
	return out
}

// TestMeasuredSelectionCancel cancels a 64-core hybrid compile from inside
// a candidate run of measured selection: CompileRun must return an error
// wrapping context.Canceled, and the simulations must stop within a few
// cancellation polls of it. The program has one measured region, so only
// the simulations themselves poll before that region's end.
func TestMeasuredSelectionCancel(t *testing.T) {
	p := progCarried(1 << 14)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const after = 3
	pc := &pollCanceler{Context: ctx, cancel: cancel, after: after}
	start := time.Now()
	_, _, err := CompileRun(pc, p, Options{Cores: 64, Strategy: Hybrid}, core.New(core.DefaultConfig(64)))
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled compile returned %v, want an error wrapping context.Canceled", err)
	}
	polls := pc.polls.Load()
	t.Logf("returned after %v, %d polls after the cancellation", elapsed, polls-after)
	if polls < after {
		t.Fatalf("selection polled %d times, cancellation never fired", polls)
	}
	if polls > after+8 || elapsed > 10*time.Second {
		t.Errorf("canceled compile took %v and %d more polls to return", elapsed, polls-after)
	}
}

// TestRecheckCancel cancels a stall-report recheck from inside one of its
// candidate runs, as TestMeasuredSelectionCancel does for a compile:
// Recheck must return an error wrapping context.Canceled within a few
// cancellation polls. The 64-core program's one region is decided
// statically (fine-grain TLP), and a fabricated report contradicts it.
func TestRecheckCancel(t *testing.T) {
	p := progStrands(1 << 14)
	opts := Options{Cores: 64, Strategy: ForceFTLP, Selection: SelectStatic}
	cp, err := Compile(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	sel := cp.Selection.Regions[0]
	over := map[string]string{ChoseILP.String(): stats.DStall.String(), ChoseFTLP.String(): stats.SendStall.String()}[sel.Choice]
	if sel.Tier != TierEasy.String() || over == "" {
		t.Fatalf("region 0 selected %s/%s, want a static parallel pick to contradict", sel.Tier, sel.Choice)
	}
	rep := &trace.Report{Regions: []trace.RegionReport{{
		Name:   p.Regions[0].Name,
		Cycles: map[string]int64{stats.Busy.String(): 10, over: 90},
	}}}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const after = 3
	pc := &pollCanceler{Context: ctx, cancel: cancel, after: after}
	start := time.Now()
	_, _, err = Recheck(pc, p, cp, rep, opts, nil)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled recheck returned %v, want an error wrapping context.Canceled", err)
	}
	polls := pc.polls.Load()
	t.Logf("returned after %v, %d polls after the cancellation", elapsed, polls-after)
	if polls < after {
		t.Fatalf("the recheck polled %d times, cancellation never fired", polls)
	}
	if polls > after+8 || elapsed > 10*time.Second {
		t.Errorf("canceled recheck took %v and %d more polls to return", elapsed, polls-after)
	}
}

// pollCanceler cancels its context on the after'th poll of Err, so a test
// can cancel from inside a simulation.
type pollCanceler struct {
	context.Context
	cancel func()
	after  int64
	polls  atomic.Int64
}

func (c *pollCanceler) Err() error {
	if c.polls.Add(1) == c.after {
		c.cancel()
	}
	return c.Context.Err()
}

// TestCandidatePanicReachesCaller makes every candidate run of a measured
// region panic (the background program has no source) and requires the
// panic on measureRegions' caller, where the server's cache computation
// recovers it, at one eval worker and at two. A panic left on an eval
// goroutine would kill the process instead. 164.gzip's region 0 has three
// candidates, so two workers run two of them at once.
func TestCandidatePanicReachesCaller(t *testing.T) {
	p, err := workload.Build("164.gzip")
	if err != nil {
		t.Fatal(err)
	}
	pr, err := prof.Collect(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2} {
		opts := Options{Cores: 4, Strategy: Hybrid, Profile: pr, Workers: workers}
		plans, err := planRegions(p, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(plans[0].candidates) == 0 {
			t.Fatal("region 0 has no candidate besides serial: two workers would not overlap")
		}
		cp := &core.CompiledProgram{Name: p.Name, Cores: opts.Cores,
			Regions: make([]*core.CompiledRegion, len(plans))}
		for i, pl := range plans {
			cp.Regions[i] = pl.serial
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("workers=%d: measureRegions returned without panicking", workers)
				}
			}()
			measureRegions(context.Background(), opts, cp, plans, []int{0}, nil)
		}()
	}
}
