package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"time"

	"voltron/internal/compiler"
	"voltron/internal/core"
	"voltron/internal/exp"
	"voltron/internal/ir"
	"voltron/internal/isa"
	"voltron/internal/lang"
	"voltron/internal/prof"
	"voltron/internal/spec"
	"voltron/internal/workload"
)

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// hotTraced: an untraced window for the end-to-end p50 and the server's
// ratios, a replay of the hit path (decode, normalize, key) over the same
// request sequence, and a replay of every catalog entry's miss path — the
// work setup does — for the layers a hit never reaches.
func hotTraced(o options, r *report) error {
	w, err := newHotWorkload(o.seed)
	if err == nil {
		w, err = w.verified()
	}
	if err != nil {
		return err
	}
	in, _, err := w.boot()
	if err != nil {
		return err
	}
	defer in.svc.close()
	win := closedLoop(clients, o.seconds/2, 1, 0, w.op(in))
	r.count(win.attempted, win.failed)
	if len(win.lat) == 0 {
		return fmt.Errorf("no op completed: %v", win.firstErr)
	}
	sm := serverStatsOf(in.svc.srv.Metrics())

	keys := make([]string, len(in.served))
	for e, b := range in.served {
		var jr struct {
			Key string `json:"key"`
		}
		if err := json.Unmarshal(b, &jr); err != nil {
			return err
		}
		keys[e] = jr.Key
	}
	pl := newPipeline()
	n, overhead, err := replayPairs(pl, seconds(o.seconds/4), func(k int) error {
		e := w.seq[k%hotSeqLen]
		_, key, err := pl.front(w.bodies[e])
		if err == nil && key != keys[e] {
			err = fmt.Errorf("replayed key %s, server keyed the job %s", key, keys[e])
		}
		return err
	})
	if err != nil {
		return err
	}
	r.count(int64(n), 0)
	for e, body := range w.bodies {
		pl.tr.op = n + e
		cyc, err := pl.miss(body)
		if err != nil {
			return fmt.Errorf("catalog entry %d: %w", e, err)
		}
		r.count(1, 0)
		if cyc != w.want[e] {
			r.count(0, 1)
			r.note("catalog entry %d: replay ran %d cycles, fresh machine %d", e, cyc, w.want[e])
		}
	}
	if err := pastWins(r); err != nil {
		return err
	}
	layerMetrics(r, pl, p50(win.lat), sm, overhead, nil)
	return pl.tr.checkNesting()
}

// miss replays one job's miss path (normalizing untraced: the hit-path
// replay measures that) as a root span, then classifies its program.
func (pl *pipeline) miss(body []byte) (int64, error) {
	pl.tr.on = false
	req, _, err := pl.front(body)
	pl.tr.on = true
	if err != nil {
		return 0, err
	}
	var cyc int64
	if err := pl.tr.span("miss", func() (err error) {
		cyc, err = pl.back(req)
		return err
	}); err != nil {
		return 0, err
	}
	return cyc, pl.classify(req)
}

// coldTraced: an untraced window for the end-to-end p50 and the server's
// ratios (its ops verified on fresh machines as in the untraced run), then
// the same generated jobs replayed through every layer.
func coldTraced(o options, r *report) error {
	w, err := newColdWorkload(o.seed)
	if err != nil {
		return err
	}
	svc, _, err := w.boot()
	if err != nil {
		return err
	}
	defer svc.close()
	served := &coldServed{cycles: map[int64]int64{}}
	win := closedLoop(clients, o.seconds/2, 1, 0, w.op(svc, served))
	r.count(win.attempted, win.failed)
	if len(win.lat) == 0 {
		return fmt.Errorf("no op completed: %v", win.firstErr)
	}
	sm := serverStatsOf(svc.srv.Metrics())
	_, mismatches, verr := w.verify(served)
	r.count(0, mismatches)
	if verr != nil {
		r.res.Correct = false
		r.note("verification: %v", verr)
	}

	pl := newPipeline()
	var replayed []*spec.JobRequest
	n, overhead, err := replayPairs(pl, seconds(o.seconds/2), func(k int) error {
		req, _, err := pl.front(w.body(int64(k)))
		if err != nil {
			return err
		}
		cyc, err := pl.back(req)
		if err != nil {
			return err
		}
		if len(replayed) == k {
			replayed = append(replayed, req)
		}
		if c, ok := served.cycles[int64(k)]; ok && c != cyc {
			return fmt.Errorf("replay ran %d cycles, server returned %d", cyc, c)
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.count(int64(n), 0)
	for k, req := range replayed {
		pl.tr.op = k
		if err := pl.classify(req); err != nil {
			return err
		}
	}
	if err := pastWins(r); err != nil {
		return err
	}
	layerMetrics(r, pl, p50(win.lat), sm, overhead, nil)
	return pl.tr.checkNesting()
}

// figuresTraced replays figures ops layer by layer (the benchmark's build,
// profile, and every compile and fresh-machine run its figures need), then
// times each figure in one in-order regeneration on a fresh full suite,
// whose simulations also check the replayed cycles.
func figuresTraced(o options, r *report) error {
	w, err := newFiguresWorkload(o.seed)
	if err != nil {
		return err
	}
	if _, err := w.setup(); err != nil {
		return err
	}
	pl := newPipeline()
	cycles := map[string]int64{}
	n, overhead, err := replayPairs(pl, seconds(o.seconds/2), func(k int) error {
		name := w.opName(int64(k))
		c, err := pl.figuresOp(name)
		cycles[name] = c
		return err
	})
	if err != nil {
		return err
	}
	r.count(int64(n), 0)
	for k := 0; k < n; k++ {
		// The classifier's view of each benchmark at the Fig 14
		// configuration, outside the op like the serve workloads' classify.
		name := w.opName(int64(k))
		if name == kernelsOp {
			continue
		}
		req := &spec.JobRequest{Program: &spec.ProgramSpec{Kind: spec.KindBench, Bench: name}, Strategy: "hybrid", Cores: 4}
		if err := req.Normalize(pl.known); err != nil {
			return err
		}
		pl.tr.op = k
		if err := pl.classify(req); err != nil {
			return err
		}
	}

	s := exp.NewSuite()
	s.Workers = workers
	times := map[string]time.Duration{}
	timed := func(name string, fn func() error) error {
		t0 := time.Now()
		err := fn()
		times[name] = time.Since(t0)
		return err
	}
	table := func(f func() (*exp.Table, error)) func() error {
		return func() error { _, err := f(); return err }
	}
	for _, f := range []struct {
		name string
		fn   func() error
	}{
		{"fig3", table(s.Fig3)},
		{"fig7_9", func() error { _, err := exp.Fig7to9(); return err }},
		{"fig10", table(s.Fig10)}, {"fig11", table(s.Fig11)}, {"fig12", table(s.Fig12)},
		{"fig13", table(s.Fig13)}, {"fig14", table(s.Fig14)},
		{"scaling", func() error {
			if _, err := s.Scaling(); err != nil {
				return err
			}
			_, err := s.ScalingStalls()
			return err
		}},
	} {
		if err := timed(f.name, f.fn); err != nil {
			return fmt.Errorf("%s: %w", f.name, err)
		}
	}
	for name, c := range cycles {
		want := w.kernelCy
		if name != kernelsOp {
			want = 0
			for _, rc := range figureRuns() {
				res, err := s.Run(name, rc.strat, rc.cores)
				if err != nil {
					return err
				}
				want += res.TotalCycles
			}
		}
		if c != want {
			r.count(0, 1)
			r.note("%s: replay ran %d cycles, the suite %d", name, c, want)
		}
	}
	if err := pastWins(r); err != nil {
		return err
	}
	layerMetrics(r, pl, 0, nil, overhead, times)
	return pl.tr.checkNesting()
}

// fig79Kernels are the Fig 7-9 kernels and the technique each figure uses.
var fig79Kernels = []struct {
	build func() *ir.Program
	strat compiler.Strategy
}{
	{func() *ir.Program { return exp.GsmLLPKernel(64) }, compiler.ForceLLP},
	{func() *ir.Program { return exp.GzipStrandKernel(2048) }, compiler.ForceFTLP},
	{func() *ir.Program { return exp.GsmILPKernel(512) }, compiler.ForceILP},
}

// figuresOp replays one figures op and returns its simulated cycles. The
// hybrid 4-core run (the Fig 14 configuration) is traced.
func (pl *pipeline) figuresOp(name string) (int64, error) {
	var sum int64
	if name == kernelsOp {
		for _, k := range fig79Kernels {
			p := k.build()
			for _, rc := range []runConfig{{compiler.Serial, 1}, {k.strat, 2}} {
				c, err := pl.run(p, compiler.Options{Cores: rc.cores, Strategy: rc.strat, Workers: 1}, core.DefaultConfig(rc.cores), "", false)
				if err != nil {
					return 0, err
				}
				sum += c
			}
		}
		return sum, nil
	}
	var p *ir.Program
	if err := pl.tr.span("workload.build", func() (err error) {
		p, err = workload.Build(name)
		return err
	}); err != nil {
		return 0, err
	}
	opts := compiler.Options{Workers: 1}
	if err := pl.tr.span("prof.collect", func() (err error) {
		opts.Profile, err = prof.Collect(p)
		return err
	}); err != nil {
		return 0, err
	}
	for _, rc := range figureRuns() {
		opts.Cores, opts.Strategy = rc.cores, rc.strat
		traced := rc == runConfig{compiler.Hybrid, 4}
		c, err := pl.run(p, opts, core.DefaultConfig(rc.cores), "", traced)
		if err != nil {
			return 0, err
		}
		sum += c
	}
	return sum, nil
}

// pastWinBench is the benchmark whose figure simulations time cycle
// skipping.
const pastWinBench = "gsmdecode"

// kernelCycles is the total cycles of the Fig 7-9 simulations (serial and
// 2-core runs of the three kernels), which exp.Fig7to9 does not report.
func kernelCycles() (int64, error) {
	pl := newPipeline()
	pl.tr.on = false
	return pl.figuresOp(kernelsOp)
}

// pastWins re-derives the recorded wins from public entry points:
//   - pooling: allocations and time per run on a fresh core.New machine vs
//     a warm machine after Machine.Reset;
//   - cycle skipping: the event-driven core against the per-cycle
//     reference stepper (core.Config.Reference) on the simulations behind
//     one benchmark's figures;
//   - the idle-64 wake scheduler: a 2-core pipeline embedded in a 64-core
//     machine whose other cores sleep, against the same code on 2 cores
//     and under the reference stepper.
//
// Cycle counts must agree between the event-driven and reference runs.
func pastWins(r *report) error {
	src, err := exampleSource("stencil.vs")
	if err != nil {
		return err
	}
	p, err := lang.Compile(src, "pastwins", nil)
	if err != nil {
		return err
	}
	cp, err := compiler.Compile(p, compiler.Options{Cores: 4, Strategy: compiler.Hybrid, Selection: compiler.SelectAuto, Workers: 1})
	if err != nil {
		return err
	}
	cfg := core.DefaultConfig(4)
	newAllocs, newUS, err := perRun(pastWinRuns, func() error { _, err := core.New(cfg).Run(cp); return err })
	if err != nil {
		return err
	}
	warm := core.New(cfg)
	resetAllocs, resetUS, err := perRun(pastWinRuns, func() error { warm.Reset(cfg); _, err := warm.Run(cp); return err })
	if err != nil {
		return err
	}
	r.set("core.new_allocs_per_run", newAllocs, "count")
	r.set("core.reset_allocs_per_run", resetAllocs, "count")
	r.set("core.new_run_us", newUS, "us")
	r.set("core.reset_run_us", resetUS, "us")

	// Cycle skipping was measured on figure regeneration: time the
	// simulations behind one benchmark's figures.
	var figs []*core.CompiledProgram
	bp, err := workload.Build(pastWinBench)
	if err != nil {
		return err
	}
	bpr, err := prof.Collect(bp)
	if err != nil {
		return err
	}
	for _, rc := range figureRuns() {
		fcp, err := compiler.Compile(bp, compiler.Options{Cores: rc.cores, Strategy: rc.strat, Profile: bpr, Workers: 1})
		if err != nil {
			return err
		}
		figs = append(figs, fcp)
	}
	refX, err := referenceRatio(pastWinRuns/10, figs)
	if err != nil {
		return err
	}
	r.set("core.event_vs_reference_x", refX, "x")

	pp := ir.NewProgram("idle")
	workload.Pipeline(pp, "k", 1024, 128, 4)
	two, err := compiler.Compile(pp, compiler.Options{Cores: 2, Strategy: compiler.ForceFTLP, Workers: 1})
	if err != nil {
		return err
	}
	wide, err := widen(two, 64)
	if err != nil {
		return err
	}
	m2, m64 := core.New(core.DefaultConfig(2)), core.New(core.DefaultConfig(64))
	_, twoUS, err := perRun(pastWinRuns, func() error { _, err := m2.Run(two); return err })
	if err != nil {
		return err
	}
	_, wideUS, err := perRun(pastWinRuns, func() error { _, err := m64.Run(wide); return err })
	if err != nil {
		return err
	}
	wideRefX, err := referenceRatio(pastWinRuns/10, []*core.CompiledProgram{wide})
	if err != nil {
		return err
	}
	r.set("core.idle64_run_us", wideUS, "us")
	r.set("core.idle64_vs_2core_x", wideUS/twoUS, "x")
	r.set("core.idle64_vs_reference_x", wideRefX, "x")
	return nil
}

// pastWinRuns is how many runs each past-win row times.
const pastWinRuns = 100

// perRun times n calls of run after one warm-up call and returns
// allocations per call and the median µs per call.
func perRun(n int, run func() error) (allocs, us float64, err error) {
	if err := run(); err != nil { // warm caches and lazily built tables
		return 0, 0, err
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.Mallocs
	ds := make([]time.Duration, n)
	for i := range ds {
		t0 := time.Now()
		if err := run(); err != nil {
			return 0, 0, err
		}
		ds[i] = time.Since(t0)
	}
	runtime.ReadMemStats(&ms)
	return float64(ms.Mallocs-before) / float64(n), float64(median(ds)) / 1e3, nil
}

// runAll returns a function running every program once on its own warm
// machine, checking each run's cycles against want (when non-nil) or
// recording them into it.
func runAll(cps []*core.CompiledProgram, reference bool, want []int64) func() error {
	ms := make([]*core.Machine, len(cps))
	for i, cp := range cps {
		cfg := core.DefaultConfig(cp.Cores)
		cfg.Reference = reference
		ms[i] = core.New(cfg)
	}
	return func() error {
		for i, cp := range cps {
			res, err := ms[i].Run(cp)
			if err != nil {
				return err
			}
			if want[i] == 0 {
				want[i] = res.TotalCycles
			} else if res.TotalCycles != want[i] {
				return fmt.Errorf("%s: %d cycles, the other stepper ran %d", cp.Name, res.TotalCycles, want[i])
			}
		}
		return nil
	}
}

// referenceRatio is the reference stepper's time over the event-driven
// core's for running every program once on warm machines; both must
// simulate the same cycles.
func referenceRatio(n int, cps []*core.CompiledProgram) (float64, error) {
	cycles := make([]int64, len(cps))
	_, evUS, err := perRun(n, runAll(cps, false, cycles))
	if err != nil {
		return 0, err
	}
	_, refUS, err := perRun(n, runAll(cps, true, cycles))
	if err != nil {
		return 0, err
	}
	return refUS / evUS, nil
}

// widen embeds a decoupled program compiled for n cores in a wider machine
// whose extra cores have no code and sleep for the whole run.
func widen(cp *core.CompiledProgram, cores int) (*core.CompiledProgram, error) {
	out := &core.CompiledProgram{Name: fmt.Sprintf("%s-in-%d", cp.Name, cores), Cores: cores, Src: cp.Src}
	for _, r := range cp.Regions {
		if r.Mode == core.Coupled {
			return nil, errors.New("widen: coupled regions need every core awake")
		}
		w := &core.CompiledRegion{
			Name: r.Name, Mode: r.Mode, TxCores: r.TxCores,
			Fallback: r.Fallback, FallbackLabels: r.FallbackLabels,
			Code:       make([][]isa.Inst, cores),
			Labels:     make([]map[int64]int, cores),
			Entry:      make([]int, cores),
			StartAwake: make([]bool, cores),
		}
		copy(w.Code, r.Code)
		copy(w.Labels, r.Labels)
		copy(w.Entry, r.Entry)
		copy(w.StartAwake, r.StartAwake)
		for c := len(r.Labels); c < cores; c++ {
			w.Labels[c] = map[int64]int{}
		}
		out.Regions = append(out.Regions, w)
	}
	return out, out.Validate()
}
