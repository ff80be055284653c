package compiler

import (
	"context"
	"fmt"
	"runtime"

	"voltron/internal/core"
	"voltron/internal/ir"
	"voltron/internal/prof"
)

// Strategy selects how regions are parallelized.
type Strategy int

// Strategies. The Force* strategies compile every region with one
// parallelization technique (falling back to serial where it does not
// apply) — used for the paper's per-technique evaluations (Figures 10/11).
// Hybrid selects per region (paper §4.2, Figures 13/14). Serial compiles
// everything for the master core only (the single-core baseline).
const (
	Serial Strategy = iota
	ForceILP
	ForceFTLP
	ForceLLP
	Hybrid
)

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case Serial:
		return "serial"
	case ForceILP:
		return "ilp"
	case ForceFTLP:
		return "fine-grain-tlp"
	case ForceLLP:
		return "llp"
	case Hybrid:
		return "hybrid"
	}
	return "strategy?"
}

// NoThreshold disables a threshold gate explicitly. The threshold fields
// of Options use 0 as "unset, apply the paper's default", which makes a
// literal zero threshold unrepresentable; pass NoThreshold (any negative
// value) to request "no gate at all".
const NoThreshold = -1.0

// SelectionMode picks how the multicore strategies (Hybrid and the Force*
// techniques) decide each region's lowering.
type SelectionMode int

const (
	// SelectMeasured simulates every candidate lowering in the context of
	// the program compiled so far (paper §4.2). The most faithful and the
	// most expensive mode; the default.
	SelectMeasured SelectionMode = iota
	// SelectStatic trusts the static cycle estimator for every region —
	// zero selection simulations (the ablation mode).
	SelectStatic
	// SelectAuto runs the tiered classifier: confident regions are decided
	// statically, low-confidence regions escalate to measured selection.
	SelectAuto
)

// String names the selection mode.
func (m SelectionMode) String() string {
	switch m {
	case SelectStatic:
		return "static"
	case SelectAuto:
		return "auto"
	}
	return "measured"
}

// DefaultSelectThreshold is the classifier-confidence floor below which
// SelectAuto escalates a region to measured selection. Confidence is the
// relative margin between the best and runner-up static estimates, so 0.08
// escalates regions whose ranking is decided by less than an 8% margin.
// Tuned on the 25-workload suite: wrong static picks cluster below 0.077
// (single-vs-parallel calls the estimator cannot settle) while correct
// picks start at 0.089, so 0.08 splits the gap.
const DefaultSelectThreshold = 0.08

// Options configures compilation.
type Options struct {
	Cores    int
	Strategy Strategy
	// Profile supplies trip counts, carried-dep observations and miss
	// rates. When nil, a profile is collected automatically.
	Profile *prof.Profile
	// Workers bounds the goroutines used by measured strategy selection
	// (candidate lowerings are simulated concurrently). 0 means
	// runtime.GOMAXPROCS(0); 1 forces the sequential path. The selected
	// program is identical for every worker count.
	Workers int
	// DSWPThreshold is the estimated-speedup gate for pipeline extraction
	// (paper: 1.25). 0 means the default; NoThreshold disables the gate.
	DSWPThreshold float64
	// DOALLTripThreshold is the minimum profiled trip count for
	// speculative loop parallelization. 0 means the default (8);
	// NoThreshold admits every trip count.
	DOALLTripThreshold float64
	// DisableEBUGWeights turns eBUG into plain BUG for strand extraction
	// (ablation).
	DisableEBUGWeights bool
	// ForcePredSend disables control-slice replication so branch
	// conditions always travel over the network (ablation).
	ForcePredSend bool
	// Selection picks how per-region strategy selection runs: measured
	// (default), static, or the tiered auto mode that decides confident
	// regions statically and escalates only the rest.
	Selection SelectionMode
	// SelectThreshold is the classifier-confidence floor for SelectAuto.
	// 0 means DefaultSelectThreshold; NoThreshold trusts every static pick.
	SelectThreshold float64
}

// withDefaults fills unset thresholds (0 = default) and resolves the
// NoThreshold sentinel (negative = no gate, normalized to 0 so every
// comparison site passes trivially). Static selection is auto selection
// with the confidence gate disabled: every classifier pick is trusted,
// nothing escalates, zero selection simulations.
func (o Options) withDefaults() Options {
	if o.Cores == 0 {
		o.Cores = 1
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	o.DSWPThreshold = resolveThreshold(o.DSWPThreshold, 1.25)
	o.DOALLTripThreshold = resolveThreshold(o.DOALLTripThreshold, 8)
	o.SelectThreshold = resolveThreshold(o.SelectThreshold, DefaultSelectThreshold)
	if o.Selection == SelectStatic {
		o.SelectThreshold = NoThreshold
	}
	return o
}

// selects reports whether the compile runs per-region strategy selection:
// multicore Hybrid, ILP and FTLP compiles do; every other compile lowers
// each region directly (compileRegion).
func (o Options) selects() bool {
	return o.Cores > 1 && (o.Strategy == Hybrid || o.Strategy == ForceILP || o.Strategy == ForceFTLP)
}

// resolveThreshold maps the Options threshold encoding to an effective
// value: 0 is "unset" (use the paper's default). A negative sentinel
// (NoThreshold) is preserved as-is — comparison sites treat any negative
// threshold as a disabled gate — so applying withDefaults twice is safe.
func resolveThreshold(v, def float64) float64 {
	if v == 0 {
		return def
	}
	return v
}

// Compile lowers a program for an n-core Voltron machine.
//
// Compile is safe to call concurrently on a shared *ir.Program: the only
// in-place IR mutation (the classical cleanup passes) runs exactly once per
// program under PrepareOnce, and everything after it only reads the IR.
func Compile(p *ir.Program, opts Options) (*core.CompiledProgram, error) {
	cp, _, err := compile(context.Background(), p, opts, nil)
	return cp, err
}

// CompileRun compiles p like Compile and simulates the result on a machine
// configured by cfg. Measured selection simulates on
// core.DefaultConfig(opts.Cores) machines; when it simulated at least one
// region and cfg.CanResume that configuration, it has already run the
// selected program region by region, and CompileRun returns that end state
// instead of simulating the program again. The result is the same either
// way. Canceling ctx aborts
// selection and the run with an error wrapping ctx.Err(); the program is
// returned whenever compilation succeeded.
func CompileRun(ctx context.Context, p *ir.Program, opts Options, cfg core.Config) (*core.CompiledProgram, *core.RunResult, error) {
	cp, res, err := compile(ctx, p, opts, &cfg)
	if err != nil || res != nil {
		return cp, res, err
	}
	res, err = core.New(cfg).RunContext(ctx, cp)
	return cp, res, err
}

// compile lowers p. With a final machine configuration it also returns the
// selected program's run on it, when measured selection can provide one.
func compile(ctx context.Context, p *ir.Program, opts Options, final *core.Config) (*core.CompiledProgram, *core.RunResult, error) {
	opts, err := prepare(p, opts, "compile")
	if err != nil {
		return nil, nil, err
	}
	if opts.selects() {
		return compileSelected(ctx, p, opts, final)
	}
	cp := &core.CompiledProgram{Name: p.Name, Cores: opts.Cores, Src: p}
	for _, r := range p.Regions {
		cr, err := compileRegion(r, opts)
		if err != nil {
			return nil, nil, fmt.Errorf("region %q: %w", r.Name, err)
		}
		cp.Regions = append(cp.Regions, cr)
	}
	if err := cp.Validate(); err != nil {
		return nil, nil, err
	}
	return cp, nil, nil
}

// prepare resolves opts and readies p for a compile or a classification
// (verb names which in errors). The classical cleanup runs in place, once
// per program under PrepareOnce and before Verify, so concurrent compiles
// of one cached program never race; it is idempotent and
// semantics-preserving, so op-keyed profiles stay valid. Every strategy
// but Serial gets a profile when the caller supplied none.
func prepare(p *ir.Program, opts Options, verb string) (Options, error) {
	opts = opts.withDefaults()
	p.PrepareOnce(func() { Optimize(p) })
	if err := p.Verify(); err != nil {
		return opts, fmt.Errorf("%s %q: %w", verb, p.Name, err)
	}
	if opts.Profile == nil && opts.Strategy != Serial {
		pr, err := prof.Collect(p)
		if err != nil {
			return opts, fmt.Errorf("profiling %q: %w", p.Name, err)
		}
		opts.Profile = pr
	}
	return opts, nil
}

// compileRegion lowers one region of a compile that does not select:
// statistical DOALL where it applies under a multicore ForceLLP, serial
// otherwise.
func compileRegion(r *ir.Region, opts Options) (*core.CompiledRegion, error) {
	if opts.Cores > 1 && opts.Strategy == ForceLLP {
		if cr, ok, err := tryDOALL(r, opts); err != nil || ok {
			return cr, err
		}
	}
	return genSerial(r, opts.Cores)
}

// genSerial emits the region as a master-only decoupled thread — the
// single-core baseline codegen, also used for regions a forced strategy
// cannot parallelize and for DOALL serial fallbacks.
func genSerial(r *ir.Region, width int) (*core.CompiledRegion, error) {
	return GenDecoupled(r, uniform(r, 0), width)
}

// genFTLP extracts fine-grain TLP: DSWP when a loop pipelines profitably,
// otherwise eBUG strands (paper §4.2's fine-grain path).
func genFTLP(r *ir.Region, opts Options) (*core.CompiledRegion, error) {
	gen := GenDecoupled
	if opts.ForcePredSend {
		gen = GenDecoupledPredSend
	}
	if part, est := tryDSWP(r, opts); part != nil && est >= opts.DSWPThreshold {
		return gen(r, part, opts.Cores)
	}
	part := EBUG(r, opts)
	return gen(r, part, opts.Cores)
}
