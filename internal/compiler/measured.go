package compiler

import (
	"context"
	"fmt"
	"sync"

	"voltron/internal/core"
	"voltron/internal/ir"
	"voltron/internal/par"
)

// Measured strategy selection (paper §4.2): each region's candidate
// lowerings are simulated in the context of the program compiled so far and
// the candidate with the best region time wins. Serial is candidate 0 of
// every measured region, so a technique is never applied where it hurts.
// For Hybrid the candidates are every technique with statistical DOALL
// taken outright as the most efficient parallelism; for the Force*
// strategies the single technique competes against serial only — the
// per-technique bars of Figures 10/11.
//
// One driver (compileSelected) serves measured, static and auto selection,
// and Recheck re-measures through the same measureRegions. It is the
// compiler's hot path, so it is organized for host parallelism while
// staying bit-identical to the sequential pipeline (Workers=1):
//
//   - candidate lowerings are generated concurrently per region (pure
//     reads of the IR; every generator clones before mutating);
//   - candidate simulations run on up to maxCandidatesPerRegion workers,
//     one reusable core.Machine plus one cloned background CompiledProgram
//     each, with worker w taking candidates w, w+n, … and a barrier per
//     region so later regions are always measured against the committed
//     winners of earlier ones;
//   - a candidate run, serial's included, simulates only its own region:
//     it resumes from a checkpoint of the machine at the boundary before
//     the region, taken after the committed regions, and stops after the
//     region, since later regions cannot change its time. The winner's end
//     state becomes the next checkpoint; the unmeasured regions between
//     measured ones are simulated once to advance it. Once a region cannot
//     be passed — every candidate failed, or an advance failed — every
//     later candidate scores -1, exactly as a run through the failing
//     region would. Compared with a full run, stopping early changes the
//     outcome only for a candidate whose region would make a *later*
//     region fail: it can win instead of scoring -1. Such a candidate is a
//     miscompile, and the compile-vs-interpreter differentials exclude it;
//   - the winner is chosen by fixed candidate order, never completion
//     order, so ties go to serial and the selected program does not depend
//     on scheduling;
//   - the eval machines are default machines that keep full stats, so
//     resuming the last committed checkpoint through the regions after the
//     last measured one yields the selected program's complete run.
//     CompileRun's machine serves as worker 0 when it has the default
//     shape, and holds that end state afterwards instead of simulating the
//     program again.

// maxCandidatesPerRegion bounds the simulations one region's barrier can
// overlap, and so the machines one compile builds. A region has at most
// three candidates (serial, coupled ILP and fine-grain TLP; DOALL is taken
// without a race), so with two workers the third runs after the first.
const maxCandidatesPerRegion = 2

// regionCandidate is one measurable lowering with the metadata selection
// needs: which technique it embodies and its static cycle estimate (the
// classifier's ranking signal).
type regionCandidate struct {
	cr     *core.CompiledRegion
	choice Choice
	est    float64
}

// regionPlan is the precomputed selection work for one region.
type regionPlan struct {
	small bool
	// serial is the always-competing lowering, candidate 0 of every
	// measured region; serialEst is its static estimate.
	serial    *core.CompiledRegion
	serialEst float64
	// doall is the statistical-DOALL lowering, taken outright (Hybrid).
	doall *core.CompiledRegion
	// candidates in fixed order: coupled ILP first, then fine-grain TLP.
	candidates []regionCandidate
}

// lowering returns the plan's compiled region for a choice (serial when the
// choice has no candidate, which cannot happen for classifier picks).
func (pl *regionPlan) lowering(c Choice) *core.CompiledRegion {
	if c == ChoseLLP && pl.doall != nil {
		return pl.doall
	}
	for _, cand := range pl.candidates {
		if cand.choice == c {
			return cand.cr
		}
	}
	return pl.serial
}

// compileSelected is the one selection driver for every mode. It plans
// every region, installs each pick that needs no simulation (small, DOALL,
// the classifier's picks, serial where nothing can be ranked), then
// measures a list of regions in ascending order: in measured mode every
// region with candidates, in auto mode the TierHard ones, in static mode
// none. Regions awaiting measurement are serial until measured. Installing
// later picks before measuring is safe: a candidate run stops after its
// region, so later regions cannot change its time.
//
// Given the caller's machine it also returns the selected program's run on
// it, when measureRegions can provide one (see CompileRun).
func compileSelected(ctx context.Context, p *ir.Program, opts Options, final *core.Machine) (*core.CompiledProgram, *core.RunResult, error) {
	plans, err := planRegions(p, opts)
	if err != nil {
		return nil, nil, err
	}
	cp := &core.CompiledProgram{
		Name: p.Name, Cores: opts.Cores, Src: p,
		Regions: make([]*core.CompiledRegion, len(plans)),
	}
	sel := &cp.Selection
	sel.Regions = make([]core.RegionSelection, len(plans))
	measured := opts.Selection == SelectMeasured
	var idx []int
	for i, pl := range plans {
		cl := classifyPlan(pl, opts)
		measure := cl.Tier == TierHard
		if measured && (cl.Tier == TierEasy || cl.Tier == TierHard) {
			// Measured mode ranks by simulation alone.
			cl = Classification{Tier: TierMeasured, Choice: ChoseSingle, Confidence: 1}
			measure = len(pl.candidates) > 0
		}
		sel.Regions[i] = core.RegionSelection{Tier: cl.Tier.String(), Choice: cl.Choice.String(), Confidence: cl.Confidence}
		cp.Regions[i] = pl.lowering(cl.Choice)
		if measure {
			cp.Regions[i] = pl.serial
			idx = append(idx, i)
		}
	}
	switch {
	case measured:
		sel.Mode, sel.Measured = SelectMeasured.String(), len(idx)
	case len(idx) > 0:
		sel.Mode, sel.Static, sel.Escalated = "escalated", len(plans)-len(idx), len(idx)
	default:
		sel.Mode, sel.Static = SelectStatic.String(), len(plans)
	}
	choices, res, err := measureRegions(ctx, opts, cp, plans, idx, final)
	if err != nil {
		return nil, nil, err
	}
	for k, i := range idx {
		sel.Regions[i].Choice = choices[k].String()
	}
	if err := cp.Validate(); err != nil {
		return nil, nil, err
	}
	return cp, res, nil
}

// measureRegions measures the listed regions of cp in ascending order, each
// against the background of cp's committed picks and the winners of the
// regions before it, installs each winner into cp and returns the choices.
// It is the only place selection simulates, and nothing is simulated when
// the list is empty. Canceling ctx aborts it with an error wrapping
// ctx.Err().
//
// A non-nil final is the caller's machine. It serves as worker 0 when it
// has the eval shape and is reset to its own configuration before
// measureRegions returns. When that configuration can resume the eval
// machines' checkpoints, measureRegions also returns the selected
// program's run on final: the committed checkpoint, resumed through the
// regions after the last measured one. The result is nil when the
// committed state or that resume failed; a fresh run then reports why.
func measureRegions(ctx context.Context, opts Options, cp *core.CompiledProgram, plans []*regionPlan, idx []int, final *core.Machine) ([]Choice, *core.RunResult, error) {
	if len(idx) == 0 {
		return nil, nil, nil
	}
	pool := newEvalPool(opts, cp, final)
	defer pool.release()
	choices := make([]Choice, len(idx))
	for k, i := range idx {
		choices[k] = measureRegion(ctx, pool, cp, i, plans[i])
		if err := ctx.Err(); err != nil {
			return nil, nil, fmt.Errorf("%s: measured selection: %w", cp.Name, err)
		}
	}
	m := pool.final
	if m == nil || !pool.finalCfg.CanResume(pool.cfg) || pool.failed {
		return choices, nil, nil
	}
	pool.restore()
	// A failed resume returns no result; the caller's fresh run reports why.
	res, _ := m.ResumeContext(ctx, pool.committed, cp)
	return choices, res, nil
}

// measureRegion simulates one region's candidates, serial first, against
// the committed background, installs the winner into cp, and returns its
// choice. A candidate must strictly beat the best so far in fixed candidate
// order, so ties keep the earlier entry (serial first) — exactly the
// sequential pipeline's tie-breaking. When every candidate fails, serial is
// installed.
func measureRegion(ctx context.Context, pool *evalPool, cp *core.CompiledProgram, i int, pl *regionPlan) Choice {
	crs := make([]*core.CompiledRegion, 1, 1+len(pl.candidates))
	crs[0] = pl.serial
	for _, cand := range pl.candidates {
		crs = append(crs, cand.cr)
	}
	cycles := pool.measure(ctx, i, crs)
	winner := -1
	for k, c := range cycles {
		if c >= 0 && (winner < 0 || c < cycles[winner]) {
			winner = k
		}
	}
	best, choice := pl.serial, ChoseSingle
	if winner > 0 {
		best, choice = crs[winner], pl.candidates[winner-1].choice
	}
	cp.Regions[i] = best
	pool.commit(i, best, winner)
	return choice
}

// planRegions generates every region's candidate lowerings concurrently
// (bounded by opts.Workers) and returns the first generation error in
// region order. Generation only reads the shared IR, so the fan-out is
// race-free; results are slotted by region index so the outcome is
// independent of scheduling.
func planRegions(p *ir.Program, opts Options) ([]*regionPlan, error) {
	plans := make([]*regionPlan, len(p.Regions))
	err := par.Each(len(plans), opts.Workers, func(i int) (err error) {
		plans[i], err = planRegion(p.Regions[i], opts)
		return err
	})
	if err != nil {
		return nil, err
	}
	return plans, nil
}

// planRegion computes one region's selection plan: the serial lowering,
// the outright DOALL take (Hybrid), and the measurable candidates with
// their static estimates, or the generation failure that must abort
// compilation.
func planRegion(r *ir.Region, opts Options) (*regionPlan, error) {
	pl := &regionPlan{}
	serial, err := genSerial(r, opts.Cores)
	if err != nil {
		return nil, fmt.Errorf("region %q: %w", r.Name, err)
	}
	pl.serial = serial
	pl.serialEst = EstimateCycles(serial, r, opts.Profile)
	pl.small = opts.Profile != nil && opts.Profile.RegionOps != nil &&
		r.ID < len(opts.Profile.RegionOps) && opts.Profile.RegionOps[r.ID] < minRegionOps
	if pl.small {
		return pl, nil
	}
	if opts.Strategy == Hybrid {
		if cr, ok, err := tryDOALL(r, opts); err != nil {
			return nil, err
		} else if ok {
			pl.doall = cr
			return pl, nil
		}
	}
	if opts.Strategy == Hybrid || opts.Strategy == ForceILP {
		if coupled, target, upr, err := genCoupledCandidate(r, opts); err == nil {
			pl.candidates = append(pl.candidates,
				regionCandidate{cr: coupled, choice: ChoseILP, est: EstimateCycles(coupled, target, upr)})
		}
	}
	if opts.Strategy == Hybrid || opts.Strategy == ForceFTLP {
		if ftlp, err := genFTLP(r, opts); err == nil {
			est := EstimateCycles(ftlp, r, opts.Profile) + EstimateQueueComm(ftlp, r, opts.Profile)
			pl.candidates = append(pl.candidates,
				regionCandidate{cr: ftlp, choice: ChoseFTLP, est: est})
		}
	}
	return pl, nil
}

// evalPool simulates candidate lowerings concurrently, each resuming from
// the committed region-boundary checkpoint. Each worker owns one reusable
// Machine and one clone of the background program, kept in sync with the
// winners committed so far.
type evalPool struct {
	// cfg configures every worker's machine.
	cfg     core.Config
	workers []*evalWorker
	// final is the caller's machine while worker 0 borrows it, and
	// finalCfg its own configuration, reinstated by restore.
	final    *core.Machine
	finalCfg core.Config
	// committed is the machine state after the first at regions of the
	// background (nil while at is 0: candidate runs start from scratch).
	// failed records that a committed region could not be passed.
	committed *core.Checkpoint
	at        int
	failed    bool
	// ends[k] receives candidate k's end state. A winner's buffer trades
	// places with committed, so no two runs ever share one.
	ends []*core.Checkpoint
}

type evalWorker struct {
	machine *core.Machine
	bg      *core.CompiledProgram
}

// newEvalPool builds the workers for selecting cp. Worker 0 borrows final
// when it has the eval shape — the same Cores, Mem and MeshCols, so that
// Reset keeps its allocations — and every other worker builds a machine.
func newEvalPool(opts Options, cp *core.CompiledProgram, final *core.Machine) *evalPool {
	n := min(max(opts.Workers, 1), maxCandidatesPerRegion)
	pool := &evalPool{cfg: core.DefaultConfig(cp.Cores), workers: make([]*evalWorker, n)}
	if final != nil {
		c := final.Config()
		if c.Cores == pool.cfg.Cores && c.Mem == pool.cfg.Mem && c.MeshCols == pool.cfg.MeshCols {
			pool.final, pool.finalCfg = final, c
			final.Reset(pool.cfg)
		}
	}
	for w := range pool.workers {
		m := pool.final
		if w > 0 || m == nil {
			m = core.New(pool.cfg)
		}
		pool.workers[w] = &evalWorker{
			machine: m,
			bg: &core.CompiledProgram{
				Name: cp.Name, Cores: cp.Cores, Src: cp.Src,
				Regions: append([]*core.CompiledRegion(nil), cp.Regions...),
			},
		}
	}
	return pool
}

// measure simulates one region's candidates and returns their region times
// in candidate order (-1 marks a failed simulation); each successful run's
// end state is saved into ends, ready to be committed. Worker w runs
// candidates w, w+n, … in order; the fixed assignment is safe because a
// result depends only on the committed checkpoint and the candidate, and a
// reused machine runs exactly like a fresh one. It returns only after every
// candidate finished — the per-region barrier — and a candidate's panic is
// re-raised on the caller's goroutine (par.Each).
func (p *evalPool) measure(ctx context.Context, region int, cands []*core.CompiledRegion) []int64 {
	cycles := make([]int64, len(cands))
	if !p.advance(ctx, region) {
		for k := range cycles {
			cycles[k] = -1
		}
		return cycles
	}
	for k := range cands {
		if k == len(p.ends) {
			p.ends = append(p.ends, nil)
		}
		if p.ends[k] == nil {
			p.ends[k] = checkpoints.Get().(*core.Checkpoint)
		}
	}
	n := min(len(p.workers), len(cands))
	par.Each(n, n, func(w int) error {
		for k := w; k < len(cands); k += len(p.workers) {
			cycles[k] = p.workers[w].run(ctx, p.committed, region, cands[k], p.ends[k])
		}
		return nil
	})
	return cycles
}

// advance moves the committed checkpoint forward to the boundary before
// region, simulating the committed regions no candidate run covered: the
// regions that are not measured. It reports false once a committed region
// could not be passed; every later candidate then scores -1, as a run
// through the failing region would.
func (p *evalPool) advance(ctx context.Context, region int) bool {
	if p.failed || p.at == region {
		return !p.failed
	}
	ew := p.workers[0]
	_, err := ew.runTo(ctx, p.committed, region)
	if err == nil {
		if p.committed == nil {
			p.committed = checkpoints.Get().(*core.Checkpoint)
		}
		err = ew.machine.Save(p.committed)
	}
	p.failed, p.at = err != nil, region
	return !p.failed
}

// run simulates cand as the region'th region of the worker's background,
// resuming from ck, saves the end state into end and returns the region
// time, or -1 when the run fails or cannot be checkpointed (a misbehaving
// candidate never wins). Regions after the measured one cannot change its
// time, so the run stops after it.
func (ew *evalWorker) run(ctx context.Context, ck *core.Checkpoint, region int, cand *core.CompiledRegion, end *core.Checkpoint) int64 {
	ew.bg.Regions[region] = cand
	res, err := ew.runTo(ctx, ck, region+1)
	if err != nil || ew.machine.Save(end) != nil {
		return -1
	}
	return res.RegionCycles[region]
}

// runTo simulates the background's first n regions, from the start when ck
// is nil and from ck otherwise.
func (ew *evalWorker) runTo(ctx context.Context, ck *core.Checkpoint, n int) (*core.RunResult, error) {
	prefix := *ew.bg
	prefix.Regions = ew.bg.Regions[:n]
	if ck == nil {
		return ew.machine.RunContext(ctx, &prefix)
	}
	return ew.machine.ResumeContext(ctx, ck, &prefix)
}

// commit installs a region's winning lowering into every worker's
// background program, so later regions are measured against the winners of
// earlier ones — the same context the sequential pipeline used — and makes
// candidate k's end state the committed checkpoint. k < 0 means no
// candidate passed the region, so neither can the committed state. Callers
// only commit between barriers, when every worker is idle.
func (p *evalPool) commit(region int, cr *core.CompiledRegion, k int) {
	for _, w := range p.workers {
		w.bg.Regions[region] = cr
	}
	if k < 0 {
		p.failed = true
		return
	}
	p.committed, p.ends[k] = p.ends[k], p.committed
	p.at = region + 1
}

// checkpoints recycles checkpoint buffers across compiles: a checkpoint
// holds a copy of every cache and of the memory image, too large to
// reallocate per compile.
var checkpoints = sync.Pool{New: func() any { return new(core.Checkpoint) }}

// restore resets the borrowed caller's machine, if any, to its own
// configuration and ends the loan.
func (p *evalPool) restore() {
	if p.final != nil {
		p.final.Reset(p.finalCfg)
		p.final = nil
	}
}

// release ends the loan of the caller's machine and returns the pool's
// checkpoints for reuse by later compiles.
func (p *evalPool) release() {
	p.restore()
	if p.committed != nil {
		checkpoints.Put(p.committed)
	}
	for _, ck := range p.ends {
		if ck != nil {
			checkpoints.Put(ck)
		}
	}
}
