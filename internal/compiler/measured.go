package compiler

import (
	"context"
	"fmt"
	"sync"

	"voltron/internal/core"
	"voltron/internal/ir"
)

// Measured strategy selection (paper §4.2): each region's candidate
// lowerings are simulated in the context of the program compiled so far and
// the candidate with the best region time wins (serial always competes, so
// a technique is never applied where it hurts). For Hybrid the candidates
// are every technique with statistical DOALL taken outright as the most
// efficient parallelism; for the Force* strategies the single technique
// competes against serial only — the per-technique bars of Figures 10/11.
//
// One driver (compileSelected) serves measured, static and auto selection,
// and Recheck re-measures through the same measureRegions. It is the
// compiler's hot path, so it is organized for host parallelism while
// staying bit-identical to the sequential pipeline (Workers=1):
//
//   - the serial baseline is simulated at most ONCE per selection pass —
//     one run of the all-serial lowering, up to the last measured region,
//     yields every measured region's serial time at once. It runs on the
//     eval pool's first machine, so a compile builds no other machine,
//     and not at all when nothing is measured;
//   - candidate lowerings are generated concurrently per region (pure
//     reads of the IR; every generator clones before mutating);
//   - candidate simulations run on up to maxCandidatesPerRegion workers,
//     one reusable core.Machine plus one cloned background CompiledProgram
//     each, with worker w taking candidates w, w+n, … and a barrier per
//     region so later regions are always measured against the committed
//     winners of earlier ones;
//   - a candidate run simulates only its own region: it resumes from a
//     checkpoint of the machine at the boundary before the region, taken
//     after the committed regions, and stops after the region, since
//     later regions cannot change its time. A winning candidate's end
//     state becomes the next checkpoint; the regions no candidate run
//     covered (unmeasured gaps, serial winners) are simulated once to
//     advance it. If that advance fails, every later candidate scores -1,
//     exactly as a run through the failing region would. Compared with a
//     full run, stopping early changes the outcome only for a candidate
//     whose region would make a *later* region fail: it can win instead
//     of scoring -1. Such a candidate is a miscompile, and the
//     compile-vs-interpreter differentials exclude it;
//   - the winner is chosen by fixed candidate order, never completion
//     order, so the selected program does not depend on scheduling.

// maxCandidatesPerRegion bounds the simulations one region's barrier can
// overlap (coupled ILP and fine-grain TLP; DOALL is taken without a race).
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
	// serial is the always-competing baseline lowering; serialEst is its
	// static estimate.
	serial    *core.CompiledRegion
	serialEst float64
	// doall is the statistical-DOALL lowering, taken outright (Hybrid).
	doall *core.CompiledRegion
	// err is a generation failure that must abort compilation, reported in
	// region order.
	err error
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
func compileSelected(p *ir.Program, opts Options) (*core.CompiledProgram, error) {
	plans, err := planRegions(p, opts)
	if err != nil {
		return nil, err
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
	choices, err := measureRegions(opts, cp, plans, idx)
	if err != nil {
		return nil, err
	}
	for k, i := range idx {
		sel.Regions[i].Choice = choices[k].String()
	}
	if err := cp.Validate(); err != nil {
		return nil, err
	}
	return cp, nil
}

// measureRegions measures the listed regions of cp in ascending order, each
// against the background of cp's committed picks and the winners of the
// regions before it, installs each winner into cp and returns the choices.
// It is the only place selection simulates. The all-serial baseline runs
// once, on the eval pool's first machine, and yields every measured
// region's serial time. A failed baseline is a hard error: without serial
// times no candidate could be compared against serial. Nothing is
// simulated when the list is empty.
func measureRegions(opts Options, cp *core.CompiledProgram, plans []*regionPlan, idx []int) ([]Choice, error) {
	if len(idx) == 0 {
		return nil, nil
	}
	pool := newEvalPool(opts, cp)
	// Later regions cannot change earlier region times.
	last := idx[len(idx)-1]
	base := &core.CompiledProgram{
		Name: cp.Name, Cores: cp.Cores, Src: cp.Src,
		Regions: make([]*core.CompiledRegion, last+1),
	}
	for i := range base.Regions {
		base.Regions[i] = plans[i].serial
	}
	baseline, err := pool.workers[0].machine.Run(base)
	if err != nil {
		return nil, fmt.Errorf("%s: serial baseline: %w", cp.Name, err)
	}
	choices := make([]Choice, len(idx))
	for k, i := range idx {
		choices[k] = measureRegion(pool, baseline.RegionCycles[i], cp, i, plans[i])
	}
	pool.release()
	return choices, nil
}

// measureRegion simulates one region's candidates against the committed
// background, installs the winner into cp, and returns its choice. A
// candidate must strictly beat the best so far in fixed candidate order, so
// ties keep the earlier entry (serial first) — exactly the sequential
// pipeline's tie-breaking. serialCycles is the region's time in the
// all-serial baseline.
func measureRegion(pool *evalPool, serialCycles int64, cp *core.CompiledProgram, i int, pl *regionPlan) Choice {
	crs := make([]*core.CompiledRegion, len(pl.candidates))
	for k := range pl.candidates {
		crs[k] = pl.candidates[k].cr
	}
	cycles := pool.measure(i, crs, serialCycles)
	best, bestCycles, bestChoice, winner := pl.serial, serialCycles, ChoseSingle, -1
	for k, cand := range pl.candidates {
		if cycles[k] >= 0 && cycles[k] < bestCycles {
			best, bestCycles, bestChoice, winner = cand.cr, cycles[k], cand.choice, k
		}
	}
	cp.Regions[i] = best
	pool.commit(i, best, winner)
	return bestChoice
}

// planRegions generates every region's candidate lowerings concurrently
// (bounded by opts.Workers) and returns the first generation error in
// region order. Generation only reads the shared IR, so the fan-out is
// race-free; results are slotted by region index so the outcome is
// independent of scheduling.
func planRegions(p *ir.Program, opts Options) ([]*regionPlan, error) {
	plans := make([]*regionPlan, len(p.Regions))
	sem := make(chan struct{}, opts.Workers)
	var wg sync.WaitGroup
	for i, r := range p.Regions {
		wg.Add(1)
		go func(i int, r *ir.Region) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			plans[i] = planRegion(r, opts)
		}(i, r)
	}
	wg.Wait()
	for _, pl := range plans {
		if pl.err != nil {
			return nil, pl.err
		}
	}
	return plans, nil
}

// planRegion computes one region's selection plan: the serial baseline
// lowering, the outright DOALL take (Hybrid), and the measurable candidates
// with their static estimates.
func planRegion(r *ir.Region, opts Options) *regionPlan {
	pl := &regionPlan{}
	serial, err := genSerial(r, opts.Cores)
	if err != nil {
		pl.err = fmt.Errorf("region %q: %w", r.Name, err)
		return pl
	}
	pl.serial = serial
	pl.serialEst = EstimateCycles(serial, r, opts.Profile)
	pl.small = opts.Profile != nil && opts.Profile.RegionOps != nil &&
		r.ID < len(opts.Profile.RegionOps) && opts.Profile.RegionOps[r.ID] < minRegionOps
	if pl.small {
		return pl
	}
	if opts.Strategy == Hybrid {
		if cr, ok, err := tryDOALL(r, opts); err != nil {
			pl.err = err
			return pl
		} else if ok {
			pl.doall = cr
			return pl
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
	return pl
}

// evalPool simulates candidate lowerings concurrently, each resuming from
// the committed region-boundary checkpoint. Each worker owns one reusable
// Machine and one clone of the background program, kept in sync with the
// winners committed so far.
type evalPool struct {
	workers []*evalWorker
	// committed is the machine state after the first at regions of the
	// background (nil while at is 0: candidate runs start from scratch).
	// failed records that advancing it through a committed region failed.
	committed *core.Checkpoint
	at        int
	failed    bool
	// ends[k] receives candidate k's end state when it could win. A
	// winner's buffer trades places with committed, so no two runs ever
	// share one.
	ends []*core.Checkpoint
}

type evalWorker struct {
	machine *core.Machine
	bg      *core.CompiledProgram
}

func newEvalPool(opts Options, cp *core.CompiledProgram) *evalPool {
	n := min(max(opts.Workers, 1), maxCandidatesPerRegion)
	// Measurement machines are throwaways whose stats nobody reads.
	evalCfg := core.DefaultConfig(cp.Cores)
	evalCfg.NoStats = true
	pool := &evalPool{workers: make([]*evalWorker, n)}
	for w := range pool.workers {
		pool.workers[w] = &evalWorker{
			machine: core.New(evalCfg),
			bg: &core.CompiledProgram{
				Name: cp.Name, Cores: cp.Cores, Src: cp.Src,
				Regions: append([]*core.CompiledRegion(nil), cp.Regions...),
			},
		}
	}
	return pool
}

// measure simulates one region's candidates and returns their region times
// in candidate order (-1 marks a failed simulation). bound is the time a
// candidate must beat to win (the region's serial time); only such a
// candidate's end state is saved. Worker w runs candidates w, w+n, … in
// order; the fixed assignment is safe because a result depends only on the
// committed checkpoint and the candidate, and a reused machine runs exactly
// like a fresh one. It returns only after every candidate finished — the
// per-region barrier.
func (p *evalPool) measure(region int, cands []*core.CompiledRegion, bound int64) []int64 {
	cycles := make([]int64, len(cands))
	if !p.advance(region) {
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
	var wg sync.WaitGroup
	for w, ew := range p.workers[:min(len(p.workers), len(cands))] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := w; k < len(cands); k += len(p.workers) {
				cycles[k] = ew.run(p.committed, region, cands[k], bound, p.ends[k])
			}
		}()
	}
	wg.Wait()
	return cycles
}

// advance moves the committed checkpoint forward to the boundary before
// region, simulating the committed regions no candidate run covered: gaps
// of regions that are not measured, and serial winners. It reports false
// once an advance has failed; every later candidate then scores -1, as a
// run through the failing region would.
func (p *evalPool) advance(region int) bool {
	if p.failed || p.at == region {
		return !p.failed
	}
	ew := p.workers[0]
	_, err := ew.runTo(p.committed, region)
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
// resuming from ck, and returns its region time, or -1 when the run fails
// or, when it could win, cannot be checkpointed (a misbehaving candidate
// never wins). Regions after the measured one
// cannot change its time, so the run stops after it. A time below bound
// saves the end state into end, ready to be committed.
func (ew *evalWorker) run(ck *core.Checkpoint, region int, cand *core.CompiledRegion, bound int64, end *core.Checkpoint) int64 {
	ew.bg.Regions[region] = cand
	res, err := ew.runTo(ck, region+1)
	if err != nil {
		return -1
	}
	cycles := res.RegionCycles[region]
	if cycles < bound && ew.machine.Save(end) != nil {
		return -1
	}
	return cycles
}

// runTo simulates the background's first n regions, from the start when ck
// is nil and from ck otherwise.
func (ew *evalWorker) runTo(ck *core.Checkpoint, n int) (*core.RunResult, error) {
	prefix := *ew.bg
	prefix.Regions = ew.bg.Regions[:n]
	if ck == nil {
		return ew.machine.Run(&prefix)
	}
	return ew.machine.ResumeContext(context.Background(), ck, &prefix)
}

// commit installs a region's winning lowering into every worker's
// background program, so later regions are measured against the winners of
// earlier ones — the same context the sequential pipeline used. When
// candidate k won, its end state becomes the committed checkpoint; after a
// serial win (k < 0) the checkpoint stays put and the next advance
// simulates the region. Callers only commit between barriers, when every
// worker is idle.
func (p *evalPool) commit(region int, cr *core.CompiledRegion, k int) {
	for _, w := range p.workers {
		w.bg.Regions[region] = cr
	}
	if k >= 0 {
		p.committed, p.ends[k] = p.ends[k], p.committed
		p.at = region + 1
	}
}

// checkpoints recycles checkpoint buffers across compiles: a checkpoint
// holds a copy of every cache and of the memory image, too large to
// reallocate per compile.
var checkpoints = sync.Pool{New: func() any { return new(core.Checkpoint) }}

// release returns the pool's checkpoints for reuse by later compiles.
func (p *evalPool) release() {
	if p.committed != nil {
		checkpoints.Put(p.committed)
	}
	for _, ck := range p.ends {
		if ck != nil {
			checkpoints.Put(ck)
		}
	}
}
