package compiler

import (
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
// This is the compiler's hot path, so it is organized for host parallelism
// while staying bit-identical to the sequential pipeline (Workers=1):
//
//   - the serial baseline is simulated ONCE per selection pass — one
//     full-program run of the all-serial lowering yields every region's
//     serial time at once, where the old pipeline re-simulated the whole
//     program per region just to read RegionCycles[i]. It runs on the
//     eval pool's first machine, so a compile builds no other machine;
//   - candidate lowerings are generated concurrently per region (pure
//     reads of the IR; every generator clones before mutating);
//   - candidate simulations run on a bounded worker pool, one reusable
//     core.Machine plus one cloned background CompiledProgram per worker,
//     with a barrier per region so later regions are always measured
//     against the committed winners of earlier ones;
//   - a candidate run simulates only the regions up to and including the
//     measured one: the machine runs regions in order, so later regions
//     cannot change its time. Compared with a full run, this changes the
//     outcome only for a candidate whose region would make a *later*
//     region fail: it can win instead of scoring -1. Such a candidate is a
//     miscompile, and the compile-vs-interpreter differentials exclude it;
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

func compileMeasured(p *ir.Program, opts Options) (*core.CompiledProgram, error) {
	plans := planRegions(p, opts)
	cp := &core.CompiledProgram{
		Name: p.Name, Cores: opts.Cores, Src: p,
		Regions: make([]*core.CompiledRegion, len(p.Regions)),
	}
	cp.Selection = core.SelectionSummary{
		Mode:    SelectMeasured.String(),
		Regions: make([]core.RegionSelection, len(p.Regions)),
	}
	for i, pl := range plans {
		if pl.err != nil {
			return nil, pl.err
		}
		cp.Regions[i] = pl.serial
	}
	pool := newEvalPool(opts, cp)
	defer pool.close()
	baseline, err := pool.serialBaseline(cp)
	if err != nil {
		return nil, err
	}
	for i := range p.Regions {
		pl := plans[i]
		sel := &cp.Selection.Regions[i]
		*sel = core.RegionSelection{Tier: TierMeasured.String(), Choice: ChoseSingle.String(), Confidence: 1}
		if pl.small {
			sel.Tier = TierSmall.String()
			continue // not worth parallelizing; stays serial
		}
		if pl.doall != nil {
			cp.Regions[i] = pl.doall
			*sel = core.RegionSelection{Tier: TierDOALL.String(), Choice: ChoseLLP.String(), Confidence: 1}
			pool.commit(i, pl.doall)
			continue
		}
		if len(pl.candidates) == 0 {
			continue
		}
		sel.Choice = measureRegion(pool, baseline.RegionCycles[i], cp, i, pl).String()
		cp.Selection.Measured++
	}
	if err := cp.Validate(); err != nil {
		return nil, err
	}
	return cp, nil
}

// serialBaseline simulates the all-serial lowering once — one
// full-program run yields every region's serial time at once. A failed
// baseline is a hard error: without serial region times no candidate could
// ever be compared against serial, and silently letting the first
// non-failing candidate win would ship a lowering that was never measured
// to help. It runs on worker 0's machine before any candidate is queued (a
// reused machine's run is identical to a fresh one's), so a compile builds
// no machine beyond the pool's.
func (p *evalPool) serialBaseline(cp *core.CompiledProgram) (*core.RunResult, error) {
	res, err := p.workers[0].machine.Run(cp)
	if err != nil {
		return nil, fmt.Errorf("%s: serial baseline: %w", cp.Name, err)
	}
	return res, nil
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
	cycles := pool.measure(i, crs)
	best, bestCycles, bestChoice := pl.serial, serialCycles, ChoseSingle
	for k, cand := range pl.candidates {
		if cycles[k] >= 0 && cycles[k] < bestCycles {
			best, bestCycles, bestChoice = cand.cr, cycles[k], cand.choice
		}
	}
	cp.Regions[i] = best
	pool.commit(i, best)
	return bestChoice
}

// planRegions generates every region's candidate lowerings concurrently
// (bounded by opts.Workers). Generation only reads the shared IR, so the
// fan-out is race-free; results are slotted by region index so the outcome
// is independent of scheduling.
func planRegions(p *ir.Program, opts Options) []*regionPlan {
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
	return plans
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

// evalPool simulates candidate lowerings concurrently. Each worker owns one
// reusable Machine and one clone of the background program, kept in sync
// with the winners committed so far.
type evalPool struct {
	jobs    chan evalJob
	wg      sync.WaitGroup
	workers []*evalWorker
}

type evalWorker struct {
	machine *core.Machine
	bg      *core.CompiledProgram
}

type evalJob struct {
	region int
	cand   *core.CompiledRegion
	cycles *int64
	done   *sync.WaitGroup
}

func newEvalPool(opts Options, cp *core.CompiledProgram) *evalPool {
	n := opts.Workers
	if n > maxCandidatesPerRegion {
		n = maxCandidatesPerRegion
	}
	if n < 1 {
		n = 1
	}
	pool := &evalPool{jobs: make(chan evalJob)}
	// Measurement machines are throwaways whose stats nobody reads.
	evalCfg := core.DefaultConfig(cp.Cores)
	evalCfg.NoStats = true
	for w := 0; w < n; w++ {
		ew := &evalWorker{
			machine: core.New(evalCfg),
			bg: &core.CompiledProgram{
				Name: cp.Name, Cores: cp.Cores, Src: cp.Src,
				Regions: append([]*core.CompiledRegion(nil), cp.Regions...),
			},
		}
		pool.workers = append(pool.workers, ew)
		pool.wg.Add(1)
		go func() {
			defer pool.wg.Done()
			for job := range pool.jobs {
				ew.bg.Regions[job.region] = job.cand
				// Regions after the measured one cannot change its
				// time, so the run stops after it.
				prefix := *ew.bg
				prefix.Regions = ew.bg.Regions[:job.region+1]
				res, err := ew.machine.Run(&prefix)
				if err != nil {
					*job.cycles = -1 // a misbehaving candidate never wins
				} else {
					*job.cycles = res.RegionCycles[job.region]
				}
				job.done.Done()
			}
		}()
	}
	return pool
}

// measure simulates one region's candidates and returns their region times
// in candidate order (-1 marks a failed simulation). It returns only after
// every candidate finished — the per-region barrier.
func (p *evalPool) measure(region int, cands []*core.CompiledRegion) []int64 {
	cycles := make([]int64, len(cands))
	var done sync.WaitGroup
	done.Add(len(cands))
	for k, cand := range cands {
		p.jobs <- evalJob{region: region, cand: cand, cycles: &cycles[k], done: &done}
	}
	done.Wait()
	return cycles
}

// commit installs a region's winning lowering into every worker's
// background program, so later regions are measured against the winners of
// earlier ones — the same context the sequential pipeline used. Callers
// only commit between barriers, when every worker is idle.
func (p *evalPool) commit(region int, cr *core.CompiledRegion) {
	for _, w := range p.workers {
		w.bg.Regions[region] = cr
	}
}

func (p *evalPool) close() {
	close(p.jobs)
	p.wg.Wait()
}
