package voltron

// One benchmark per table/figure of the paper's evaluation (§5), plus
// ablation benches for the design choices DESIGN.md calls out. Each bench
// regenerates its figure's data and reports the headline number as a
// custom metric, so `go test -bench=. -benchmem` reproduces the entire
// evaluation. b.N loops re-run the full harness (simulations are
// deterministic; the Suite cache is rebuilt per iteration to measure real
// work).

import (
	"testing"

	"voltron/internal/compiler"
	"voltron/internal/core"
	"voltron/internal/exp"
	"voltron/internal/ir"
	"voltron/internal/prof"
	"voltron/internal/stats"
	"voltron/internal/workload"
)

// benchFigure runs one figure harness per iteration and reports the
// averages of its columns as custom metrics.
func benchFigure(b *testing.B, fig int) {
	b.Helper()
	var last *exp.Table
	for i := 0; i < b.N; i++ {
		harness, err := exp.NewSuite().Harness(fig)
		if err != nil {
			b.Fatal(err)
		}
		t, err := harness()
		if err != nil {
			b.Fatal(err)
		}
		last = t
	}
	avg := last.Average()
	for i, c := range last.Columns {
		b.ReportMetric(avg.Values[i], "avg_"+sanitize(c))
	}
}

func sanitize(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		if r == ' ' {
			r = '_'
		}
		out = append(out, r)
	}
	return string(out)
}

// BenchmarkFig3 regenerates the parallelism breakdown (Figure 3).
func BenchmarkFig3(b *testing.B) { benchFigure(b, 3) }

// BenchmarkFig7to9 regenerates the worked kernel speedups (Figures 7-9).
func BenchmarkFig7to9(b *testing.B) {
	var res []exp.KernelResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = exp.Fig7to9()
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range res {
		b.ReportMetric(r.Measured2Core, sanitize(r.Name)+"_x")
	}
}

// BenchmarkFig10 regenerates the 2-core per-technique speedups.
func BenchmarkFig10(b *testing.B) { benchFigure(b, 10) }

// BenchmarkFig11 regenerates the 4-core per-technique speedups.
func BenchmarkFig11(b *testing.B) { benchFigure(b, 11) }

// BenchmarkFig12 regenerates the coupled-vs-decoupled stall breakdown.
func BenchmarkFig12(b *testing.B) { benchFigure(b, 12) }

// BenchmarkFig13 regenerates the hybrid speedups (the headline result).
func BenchmarkFig13(b *testing.B) { benchFigure(b, 13) }

// BenchmarkFig14 regenerates the execution-mode occupancy breakdown.
func BenchmarkFig14(b *testing.B) { benchFigure(b, 14) }

// ---- ablations ----

// speedupWith measures a benchmark's 4-core speedup under custom options.
func speedupWith(b *testing.B, bench string, opts compiler.Options) float64 {
	b.Helper()
	p, err := workload.Build(bench)
	if err != nil {
		b.Fatal(err)
	}
	pr, err := prof.Collect(p)
	if err != nil {
		b.Fatal(err)
	}
	opts.Profile = pr
	run := func(o compiler.Options, cores int) int64 {
		o.Cores = cores
		cp, err := compiler.Compile(p, o)
		if err != nil {
			b.Fatal(err)
		}
		res, err := core.New(core.DefaultConfig(cores)).Run(cp)
		if err != nil {
			b.Fatal(err)
		}
		return res.TotalCycles
	}
	serial := opts
	serial.Strategy = compiler.Serial
	base := run(serial, 1)
	par := run(opts, 4)
	return float64(base) / float64(par)
}

// BenchmarkAblationEBUGWeights compares eBUG with and without its
// profile-driven weights (likely-miss latencies, memory-dependence,
// memory-balance) on 164.gzip, whose strand split depends on them.
func BenchmarkAblationEBUGWeights(b *testing.B) {
	var with, without float64
	for i := 0; i < b.N; i++ {
		with = speedupWith(b, "164.gzip", compiler.Options{Strategy: compiler.ForceFTLP})
		without = speedupWith(b, "164.gzip", compiler.Options{Strategy: compiler.ForceFTLP, DisableEBUGWeights: true})
	}
	b.ReportMetric(with, "eBUG_x")
	b.ReportMetric(without, "plainBUG_x")
}

// BenchmarkAblationPredReplication compares decoupled branch handling:
// control-slice replication (default) vs always sending predicates.
func BenchmarkAblationPredReplication(b *testing.B) {
	var repl, send float64
	for i := 0; i < b.N; i++ {
		repl = speedupWith(b, "183.equake", compiler.Options{Strategy: compiler.ForceFTLP})
		send = speedupWith(b, "183.equake", compiler.Options{Strategy: compiler.ForceFTLP, ForcePredSend: true})
	}
	b.ReportMetric(repl, "replicate_x")
	b.ReportMetric(send, "send_x")
}

// BenchmarkAblationQueueLatency sweeps the queue-mode base latency (the
// paper assumes 2 + hops) and reports fine-grain TLP speedups on 179.art.
func BenchmarkAblationQueueLatency(b *testing.B) {
	p, err := workload.Build("179.art")
	if err != nil {
		b.Fatal(err)
	}
	pr, err := prof.Collect(p)
	if err != nil {
		b.Fatal(err)
	}
	base := runCycles(b, p, pr, compiler.Serial, 1, 0)
	for i := 0; i < b.N; i++ {
		for _, lat := range []int64{2, 4, 8} {
			cy := runCycles(b, p, pr, compiler.ForceFTLP, 4, lat)
			if i == b.N-1 {
				b.ReportMetric(float64(base)/float64(cy), speedLabel(lat))
			}
		}
	}
}

func speedLabel(lat int64) string {
	switch lat {
	case 2:
		return "base2_x"
	case 4:
		return "base4_x"
	default:
		return "base8_x"
	}
}

func runCycles(b *testing.B, p *ir.Program, pr *prof.Profile, s compiler.Strategy, cores int, qbase int64) int64 {
	b.Helper()
	cp, err := compiler.Compile(p, compiler.Options{Cores: cores, Strategy: s, Profile: pr})
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.DefaultConfig(cores)
	if qbase > 0 {
		cfg.QueueBaseLat = qbase
	}
	res, err := core.New(cfg).Run(cp)
	if err != nil {
		b.Fatal(err)
	}
	return res.TotalCycles
}

// BenchmarkAblationDSWPThreshold sweeps the pipeline-extraction gate
// (paper: 1.25) on the DSWP-friendly epic.
func BenchmarkAblationDSWPThreshold(b *testing.B) {
	var lo, hi float64
	for i := 0; i < b.N; i++ {
		lo = speedupWith(b, "epic", compiler.Options{Strategy: compiler.ForceFTLP, DSWPThreshold: 1.01})
		hi = speedupWith(b, "epic", compiler.Options{Strategy: compiler.ForceFTLP, DSWPThreshold: 10})
	}
	b.ReportMetric(lo, "thresh1.01_x")
	b.ReportMetric(hi, "noDSWP_x")
}

// BenchmarkAblationDOALLTrip sweeps the speculative-parallelization trip
// threshold on gsmdecode.
func BenchmarkAblationDOALLTrip(b *testing.B) {
	var lo, hi float64
	for i := 0; i < b.N; i++ {
		lo = speedupWith(b, "gsmdecode", compiler.Options{Strategy: compiler.ForceLLP, DOALLTripThreshold: 4})
		hi = speedupWith(b, "gsmdecode", compiler.Options{Strategy: compiler.ForceLLP, DOALLTripThreshold: 1000})
	}
	b.ReportMetric(lo, "trip4_x")
	b.ReportMetric(hi, "trip1000_x")
}

// BenchmarkAblationStaticSelection compares measured hybrid selection with
// the static-estimator variant.
func BenchmarkAblationStaticSelection(b *testing.B) {
	var meas, stat float64
	for i := 0; i < b.N; i++ {
		meas = speedupWith(b, "cjpeg", compiler.Options{Strategy: compiler.Hybrid})
		stat = speedupWith(b, "cjpeg", compiler.Options{Strategy: compiler.Hybrid, Selection: compiler.SelectStatic})
	}
	b.ReportMetric(meas, "measured_x")
	b.ReportMetric(stat, "static_x")
}

// BenchmarkSimulatorThroughput measures raw simulation speed (cycles
// simulated per second) on the largest benchmark.
func BenchmarkSimulatorThroughput(b *testing.B) {
	p, err := workload.Build("171.swim")
	if err != nil {
		b.Fatal(err)
	}
	cp, err := compiler.Compile(p, compiler.Options{Cores: 4, Strategy: compiler.Hybrid})
	if err != nil {
		b.Fatal(err)
	}
	var cycles int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.New(core.DefaultConfig(4)).Run(cp)
		if err != nil {
			b.Fatal(err)
		}
		cycles = res.TotalCycles
	}
	b.ReportMetric(float64(cycles), "cycles/run")
	_ = stats.Busy
}
