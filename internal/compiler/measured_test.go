package compiler

import (
	"bytes"
	"reflect"
	"testing"

	"voltron/internal/core"
	"voltron/internal/ir"
	"voltron/internal/prof"
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

// TestPrefixRunMatchesFullRun pins prefix-only candidate runs: for every
// region measured selection simulates — the suite under ilp, ftlp and
// hybrid at 2, 4, 16 and 64 cores — each candidate's time from the eval
// pool's prefix run must equal the region's time in a full-program run of
// the same background.
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
					checked += checkPrefixRuns(t, p, opts)
				}
			}
			t.Logf("%d candidate runs checked", checked)
		})
	}
}

// checkPrefixRuns replays compileSelected's measured mode (SelectMeasured is
// the zero mode) region by region, comparing every candidate's prefix-run
// time against a full run, and returns the number of candidates compared.
func checkPrefixRuns(t *testing.T, p *ir.Program, opts Options) int {
	t.Helper()
	plans, err := planRegions(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	cp := &core.CompiledProgram{Name: p.Name, Cores: opts.Cores, Src: p,
		Regions: make([]*core.CompiledRegion, len(plans))}
	for i, pl := range plans {
		cp.Regions[i] = pl.serial
	}
	pool := newEvalPool(opts, cp)
	baseline, err := pool[0].machine.Run(cp)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig(opts.Cores)
	cfg.NoStats = true
	full := core.New(cfg)
	checked := 0
	for i, pl := range plans {
		if pl.small {
			continue
		}
		if pl.doall != nil {
			cp.Regions[i] = pl.doall
			pool.commit(i, pl.doall)
			continue
		}
		crs := make([]*core.CompiledRegion, len(pl.candidates))
		for k := range pl.candidates {
			crs[k] = pl.candidates[k].cr
		}
		got := pool.measure(i, crs)
		for k, cand := range crs {
			bg := *cp
			bg.Regions = append([]*core.CompiledRegion(nil), cp.Regions...)
			bg.Regions[i] = cand
			want := int64(-1)
			if res, err := full.Run(&bg); err == nil {
				want = res.RegionCycles[i]
			}
			if got[k] != want {
				t.Errorf("%v/%d region %d candidate %v: prefix run %d cycles, full run %d",
					opts.Strategy, opts.Cores, i, pl.candidates[k].choice, got[k], want)
			}
			checked++
		}
		measureRegion(pool, baseline.RegionCycles[i], cp, i, pl)
	}
	// The replay must have installed exactly what Compile selects. Regions
	// compare by their emitted fields: a region's lazily resolved branch
	// tables are filled only once it has been simulated.
	want, err := Compile(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	var gotBuf, wantBuf []byte
	for i := range cp.Regions {
		gotBuf = appendRegion(gotBuf, cp.Regions[i])
		wantBuf = appendRegion(wantBuf, want.Regions[i])
	}
	if !bytes.Equal(gotBuf, wantBuf) {
		t.Errorf("%v/%d: replayed selection differs from Compile's", opts.Strategy, opts.Cores)
	}
	return checked
}
