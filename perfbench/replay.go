package main

import (
	"bytes"
	"fmt"
	"slices"
	"time"

	"voltron/internal/compiler"
	"voltron/internal/core"
	"voltron/internal/exp"
	"voltron/internal/ir"
	"voltron/internal/lang"
	"voltron/internal/prof"
	"voltron/internal/spec"
	"voltron/internal/stats"
	"voltron/internal/trace"
)

// The traced run replays a workload's ops through each layer's public entry
// points, one call per layer, under spans recorded by the benchmark itself
// (the program has no spans of its own). A layer's self time is its span
// minus its child spans; a layer's "_us" metric is the mean, over the
// replayed ops that reach it, of its summed self time in the op.

// span is one timed call: its name, the op it belongs to, the enclosing
// span (-1 for a root) and its interval since the tracer's epoch.
type span struct {
	name       string
	op         int
	parent     int
	start, end time.Duration
}

// tracer records spans in memory. With on false, spans run their function
// untimed, which is how the replay measures its own tracing overhead.
type tracer struct {
	on    bool
	epoch time.Time
	spans []span
	open  []int
	op    int
}

func newTracer() *tracer { return &tracer{on: true, epoch: time.Now()} }

// span runs fn as a span named name, nested in the innermost open span.
func (t *tracer) span(name string, fn func() error) error {
	if !t.on {
		return fn()
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{name: name, op: t.op, parent: parent, start: time.Since(t.epoch)})
	t.open = append(t.open, id)
	err := fn()
	t.spans[id].end = time.Since(t.epoch)
	t.open = t.open[:len(t.open)-1]
	return err
}

// selfTimes sums each span name's self time per op: name -> op -> time.
func (t *tracer) selfTimes() map[string]map[int]time.Duration {
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.end - s.start
		if s.parent >= 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	out := map[string]map[int]time.Duration{}
	for i, s := range t.spans {
		if out[s.name] == nil {
			out[s.name] = map[int]time.Duration{}
		}
		out[s.name][s.op] += self[i]
	}
	return out
}

// opTotals returns the duration of every root span with the given name.
func (t *tracer) opTotals(name string) []time.Duration {
	var out []time.Duration
	for _, s := range t.spans {
		if s.parent < 0 && s.name == name {
			out = append(out, s.end-s.start)
		}
	}
	return out
}

// layerStats accumulates the simulator-side counts of the replayed runs.
type layerStats struct {
	runs, compiles, traced                 int64
	cyclesBy                               map[int]int64         // untraced runs' cycles by core count
	timeBy                                 map[int]time.Duration // untraced runs' event-loop time by core count
	coreCycles, tmRollback                 int64
	cacheStall, commStall                  int64
	wallCycles, l2Hits, l2Misses, c2c      int64
	spawns, staticRegions, measuredRegions int64
	selectedRegions                        int64
	traceBytes                             int64
}

func (st *layerStats) addRun(res *core.RunResult) {
	st.runs++
	for i := range res.Cores {
		st.coreCycles += res.Cores[i].Total()
	}
	st.tmRollback += res.Stall(stats.TMRollback)
	st.cacheStall += res.Stall(stats.IStall) + res.Stall(stats.DStall)
	st.commStall += res.Stall(stats.RecvData) + res.Stall(stats.RecvPred) + res.Stall(stats.SendStall)
	st.wallCycles += res.TotalCycles
	st.l2Hits += res.MemStats.L2Hits
	st.l2Misses += res.MemStats.L2Misses
	st.c2c += res.MemStats.C2CTransfers
	st.spawns += res.Spawns
}

// pipeline replays jobs layer by layer. Machines are pooled by machine key
// like the server's warm pool; an empty key runs on a fresh machine.
type pipeline struct {
	tr       *tracer
	suite    *exp.Suite
	machines map[string]*core.Machine
	st       layerStats
}

func newPipeline() *pipeline {
	s := exp.NewSuite()
	s.Workers = 1
	return &pipeline{
		tr: newTracer(), suite: s, machines: map[string]*core.Machine{},
		st: layerStats{cyclesBy: map[int]int64{}, timeBy: map[int]time.Duration{}},
	}
}

func (pl *pipeline) known(bench string) bool {
	_, err := pl.suite.Program(bench)
	return err == nil
}

// front replays the request path every job takes, hit or miss: decode,
// normalize (which runs the source frontend) and the content keys.
func (pl *pipeline) front(body []byte) (req *spec.JobRequest, key string, err error) {
	tr := pl.tr
	if err := tr.span("spec.decode", func() (err error) {
		req, _, err = spec.DecodeJob(bytes.NewReader(body))
		return err
	}); err != nil {
		return nil, "", err
	}
	if err := tr.span("spec.normalize", func() error { return req.Normalize(pl.known) }); err != nil {
		return nil, "", err
	}
	tr.span("spec.key", func() error {
		key = req.Key()
		_, _ = req.CompileKey(), req.MachineKey()
		return nil
	})
	return req, key, nil
}

// back replays a normalized job's miss path: build the program (through
// the frontend and lowering for source programs), profile, compile, and run
// on a pooled machine, rendering the trace when the job asks for one.
func (pl *pipeline) back(req *spec.JobRequest) (int64, error) {
	tr := pl.tr
	var (
		p  *ir.Program
		pr *prof.Profile
	)
	if err := tr.span("spec.build", func() (err error) {
		switch req.Program.Kind {
		case spec.KindBench:
			if p, err = pl.suite.Program(req.Program.Bench); err != nil {
				return err
			}
			pr, err = pl.suite.Profile(req.Program.Bench)
			return err
		case spec.KindSource:
			var lp *lang.Program
			if err := tr.span("lang.frontend", func() (err error) {
				lp, err = lang.Frontend(req.Program.Source, req.Program.Inputs)
				return err
			}); err != nil {
				return err
			}
			return tr.span("lang.lower", func() (err error) {
				p, err = lp.Lower(req.Program.Name)
				return err
			})
		}
		p, err = req.Program.Build()
		return err
	}); err != nil {
		return 0, err
	}
	opts := req.CompilerOpts()
	opts.Profile = pr
	return pl.run(p, opts, req.MachineConfig(nil), req.MachineKey(), req.Trace)
}

// run profiles (unless opts has a profile or the job is serial), compiles
// and simulates p.
func (pl *pipeline) run(p *ir.Program, opts compiler.Options, cfg core.Config, poolKey string, traced bool) (int64, error) {
	tr := pl.tr
	if opts.Profile == nil && opts.Strategy != compiler.Serial {
		if err := tr.span("prof.collect", func() (err error) {
			opts.Profile, err = prof.Collect(p)
			return err
		}); err != nil {
			return 0, err
		}
	}
	var cp *core.CompiledProgram
	if err := tr.span("compiler.compile", func() (err error) {
		cp, err = compiler.Compile(p, opts)
		return err
	}); err != nil {
		return 0, err
	}
	sel := cp.Selection
	pl.st.compiles++
	pl.st.staticRegions += int64(sel.Static)
	pl.st.measuredRegions += int64(sel.Escalated + sel.Measured)
	pl.st.selectedRegions += int64(sel.Static + sel.Escalated + sel.Measured)

	var tt *trace.Tracer
	if traced {
		tt = trace.New()
	}
	cfg.Tracer = tt
	m := pl.machines[poolKey]
	if m != nil {
		tr.span("core.reset", func() error { m.Reset(cfg); return nil })
	} else {
		tr.span("core.new", func() error { m = core.New(cfg); return nil })
		if poolKey != "" {
			pl.machines[poolKey] = m
		}
	}
	var (
		res  *core.RunResult
		loop time.Duration
	)
	if err := tr.span("core.run", func() (err error) {
		t0 := time.Now()
		res, err = m.Run(cp)
		loop = time.Since(t0)
		return err
	}); err != nil {
		return 0, err
	}
	pl.st.addRun(res)
	if tt == nil {
		pl.st.cyclesBy[cfg.Cores] += res.TotalCycles
		pl.st.timeBy[cfg.Cores] += loop
		return res.TotalCycles, nil
	}
	var buf bytes.Buffer
	if err := tr.span("trace.render", func() error { return tt.WriteChrome(&buf) }); err != nil {
		return 0, err
	}
	tr.span("trace.report", func() error { _ = tt.Report(); return nil })
	pl.st.traced++
	pl.st.traceBytes += int64(buf.Len())
	return res.TotalCycles, nil
}

// classify runs the static classifier over a job's program as a root span
// of its own: the job path runs it only inside auto-selected compiles, so
// it stays out of the op's layer sum.
func (pl *pipeline) classify(req *spec.JobRequest) error {
	var p *ir.Program
	var err error
	if req.Program.Kind == spec.KindBench {
		p, err = pl.suite.Program(req.Program.Bench)
	} else {
		p, err = req.Program.Build()
	}
	if err != nil {
		return err
	}
	opts := req.CompilerOpts()
	if req.Program.Kind == spec.KindBench {
		if opts.Profile, err = pl.suite.Profile(req.Program.Bench); err != nil {
			return err
		}
	}
	return pl.tr.span("compiler.classify", func() error {
		_, err := compiler.ClassifyProgram(p, opts)
		return err
	})
}

// replayPairs replays ops 0, 1, ... until budget is spent, each op twice —
// with spans and without, alternating which goes first — and returns how
// many ops it replayed and the tracing overhead: summed traced op time over
// summed untraced op time, minus one.
func replayPairs(pl *pipeline, budget time.Duration, op func(k int) error) (int, float64, error) {
	var on, off time.Duration
	end := time.Now().Add(budget)
	k := 0
	for ; k == 0 || time.Now().Before(end); k++ {
		for pass := 0; pass < 2; pass++ {
			traced := (k+pass)%2 == 0
			pl.tr.on = traced
			pl.tr.op = k
			t0 := time.Now()
			err := pl.tr.span("op", func() error { return op(k) })
			d := time.Since(t0)
			if err != nil {
				pl.tr.on = true
				return k, 0, fmt.Errorf("replay op %d: %w", k, err)
			}
			if traced {
				on += d
			} else {
				off += d
			}
		}
	}
	pl.tr.on = true
	return k, float64(on)/float64(off) - 1, nil
}

// meanUS is the mean of a layer's per-op self time over the ops that reach
// the layer, in µs (0 when none did). Means, unlike medians, add up: the
// layers' means sum to the mean op.
func meanUS(perOp map[int]time.Duration) float64 {
	if len(perOp) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range perOp {
		sum += d
	}
	return float64(sum) / 1e3 / float64(len(perOp))
}

// layerNames are the span names reported as "<name>_us" self times.
var layerNames = []string{
	"spec.decode", "spec.normalize", "spec.key", "spec.build",
	"lang.frontend", "lang.lower", "prof.collect",
	"compiler.compile", "compiler.classify",
	"core.reset", "core.run",
	"trace.render", "trace.report",
}

// expFigures names the exp.* metrics in regeneration order.
var expFigures = []string{"fig3", "fig7_9", "fig10", "fig11", "fig12", "fig13", "fig14", "scaling"}

// layerMetrics records every per-layer metric. Layers a workload does not
// exercise read 0: e2eP50 is 0 when the workload has no server (then the
// server ratios are 0 too), and exp is nil outside the figures workload.
func layerMetrics(r *report, pl *pipeline, e2eP50 time.Duration, m *serverStats, traceOverhead float64, exp map[string]time.Duration) {
	self := pl.tr.selfTimes()
	for _, n := range layerNames {
		r.set(n+"_us", meanUS(self[n]), "us")
	}
	st := &pl.st
	r.set("compiler.static_frac", ratio(st.staticRegions, st.selectedRegions), "ratio")
	r.set("compiler.measured_regions", float64(st.measuredRegions)/float64(max(st.compiles, 1)), "regions/op")
	for _, c := range []int{2, 4, 16, 64} {
		v := 0.0
		if d := st.timeBy[c]; d > 0 {
			v = float64(st.cyclesBy[c]) / 1e6 / d.Seconds()
		}
		r.set(fmt.Sprintf("core.mcycles_per_s.c%d", c), v, "Mcycles/s")
	}
	r.set("core.tm_rollback_frac", ratio(st.tmRollback, st.coreCycles), "ratio")
	r.set("mem.l2_miss_ratio", ratio(st.l2Misses, st.l2Hits+st.l2Misses), "ratio")
	r.set("mem.c2c_per_kcycle", 1e3*ratio(st.c2c, st.wallCycles), "1/kcycle")
	r.set("mem.cache_stall_frac", ratio(st.cacheStall, st.coreCycles), "ratio")
	r.set("xnet.comm_stall_frac", ratio(st.commStall, st.coreCycles), "ratio")
	r.set("xnet.spawns_per_op", ratio(st.spawns, st.runs), "count")
	r.set("trace.kb_per_trace", ratio(st.traceBytes, st.traced)/1024, "KB")

	var sm serverStats
	overhead := 0.0
	if m != nil {
		sm = *m
		ops := pl.tr.opTotals("op")
		overhead = float64(e2eP50-median(ops)) / 1e3
	}
	r.set("server.cache_hit_ratio", sm.cacheHit, "ratio")
	r.set("server.compile_cache_hit_ratio", sm.compileHit, "ratio")
	r.set("server.pool_hit_ratio", sm.poolHit, "ratio")
	r.set("server.batched_frac", sm.batched, "ratio")
	r.set("server.overhead_us", overhead, "us")
	for _, f := range expFigures {
		r.set("exp."+f+"_ms", float64(exp[f])/1e6, "ms")
	}
	r.set("bench.trace_overhead_frac", traceOverhead, "ratio")
}

// checkNesting verifies the span tree: every child lies inside its parent,
// belongs to the parent's op, and the children's total never exceeds the
// parent's duration.
func (t *tracer) checkNesting() error {
	child := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		if s.end < s.start {
			return fmt.Errorf("span %d (%s) ends before it starts", i, s.name)
		}
		if s.parent < 0 {
			continue
		}
		p := t.spans[s.parent]
		if s.op != p.op || s.start < p.start || s.end > p.end {
			return fmt.Errorf("span %d (%s, op %d) is not inside its parent %s (op %d)", i, s.name, s.op, p.name, p.op)
		}
		child[s.parent] += s.end - s.start
	}
	for i, s := range t.spans {
		if child[i] > s.end-s.start {
			return fmt.Errorf("span %d (%s): children take %v of its %v", i, s.name, child[i], s.end-s.start)
		}
	}
	return nil
}

// p50 is the median of a window's latencies.
func p50(lat []time.Duration) time.Duration {
	s := slices.Clone(lat)
	slices.Sort(s)
	v, _ := percentile(s, 0.5)
	return v
}
