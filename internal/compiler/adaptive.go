package compiler

import (
	"context"
	"fmt"
	"math"

	"voltron/internal/core"
	"voltron/internal/ir"
	"voltron/internal/isa"
	"voltron/internal/prof"
	"voltron/internal/stats"
	"voltron/internal/trace"
	"voltron/internal/xnet"
)

// Tiered strategy selection (the adaptive flow director): a static
// classifier over the dependence-analyzed IR and the profile labels each
// region by how confidently the cycle estimator can rank its candidate
// lowerings. Confident regions take the estimator's pick directly — zero
// selection simulations — and only low-confidence regions escalate to the
// measured pipeline (paper §4.2), each against the background of the
// already-committed picks. The classifier mirrors measured selection's
// structure exactly (same small-region floor, same outright DOALL take,
// same serial-always-competes tie-breaking), so wherever its ranking
// agrees with measurement the compiled output is identical.

// Tier labels the classifier's verdict for one region.
type Tier int

const (
	// TierSmall: below the minRegionOps floor; serial by construction
	// (measured selection skips these too, so the outcome always agrees).
	TierSmall Tier = iota
	// TierDOALL: statistical DOALL applies and is taken outright, exactly
	// as measured selection would.
	TierDOALL
	// TierEasy: the estimate ranking has a winner above the confidence
	// threshold, or there is nothing to rank; auto mode installs it without
	// measuring.
	TierEasy
	// TierHard: the ranking margin is below the threshold; auto mode
	// escalates the region to measured selection.
	TierHard
	// TierMeasured marks a region decided by simulation in measured mode.
	TierMeasured
	// TierRechecked marks a region re-selected by the stall-report
	// feedback check (Recheck).
	TierRechecked
)

// String names the tier.
func (t Tier) String() string {
	switch t {
	case TierSmall:
		return "small"
	case TierDOALL:
		return "doall"
	case TierEasy:
		return "easy"
	case TierHard:
		return "hard"
	case TierMeasured:
		return "measured"
	case TierRechecked:
		return "rechecked"
	}
	return "tier?"
}

// Classification is the static classifier's verdict for one region.
type Classification struct {
	Tier   Tier
	Choice Choice
	// Confidence is the relative margin of the winning estimate over the
	// runner-up, in [0, 1]; tiers decided without ranking score 1.
	Confidence float64
}

// estReliableSerialCycles is the serial-estimate floor below which a ranked
// region is escalated outright: in regions this small, per-invocation
// overheads the estimator does not model (region entry/exit sync,
// cold-start instruction fetch) dominate realized time, so estimate margins
// — however wide — are noise. Measured selection is cheapest exactly there,
// so auto mode never trusts a static parallel ranking on them.
const estReliableSerialCycles = 2000

// classifyPlan classifies one planned region. The choice replays measured
// selection's candidate order and strict-beat tie-breaking over static
// estimates instead of measured cycles, so agreement with measurement is
// limited only by the estimator, never by ordering artifacts. A negative
// opts.SelectThreshold (static mode) disables both escalation gates.
func classifyPlan(pl *regionPlan, opts Options) Classification {
	if pl.small {
		return Classification{Tier: TierSmall, Choice: ChoseSingle, Confidence: 1}
	}
	if pl.doall != nil {
		return Classification{Tier: TierDOALL, Choice: ChoseLLP, Confidence: 1}
	}
	if len(pl.candidates) == 0 {
		// Nothing to rank: measured mode keeps serial here too.
		return Classification{Tier: TierEasy, Choice: ChoseSingle, Confidence: 1}
	}
	best, bestEst := ChoseSingle, pl.serialEst
	second := math.Inf(1)
	for _, c := range pl.candidates {
		switch {
		case c.est < bestEst:
			second = bestEst
			best, bestEst = c.choice, c.est
		case c.est < second:
			second = c.est
		}
	}
	cl := Classification{Tier: TierEasy, Choice: best, Confidence: confidence(bestEst, second)}
	if opts.SelectThreshold >= 0 &&
		(cl.Confidence < opts.SelectThreshold || pl.serialEst < estReliableSerialCycles) {
		cl.Tier = TierHard
	}
	return cl
}

// estQueueLatency is the unloaded scalar-operand-network cost per queued
// message (xnet base latency plus one hop), charged per dynamic SEND/SPAWN
// by the classifier's communication term.
const estQueueLatency = float64(xnet.DefaultBaseLat + xnet.DefaultHopLat)

// EstimateQueueComm predicts the cycles a decoupled region spends feeding
// the scalar operand network: every SEND and SPAWN, weighted by its block's
// profiled execution count, at the queue's unloaded latency. EstimateCycles
// models decoupled cores as fully independent — that is what lets it see
// memory-level parallelism — so it is blind to cross-core traffic and
// systematically flatters communication-dense partitions (eBUG strand webs
// especially). The classifier adds this term to decoupled candidates before
// ranking them; the generators' gates keep using EstimateCycles alone.
func EstimateQueueComm(cr *core.CompiledRegion, r *ir.Region, pr *prof.Profile) float64 {
	if cr.Mode == core.Coupled {
		// Coupled mode moves operands over direct wires; the PUT/GET slots
		// are already in the schedule length.
		return 0
	}
	blockByID := regionBlocks(r)
	var msgs float64
	for c, code := range cr.Code {
		// An instruction's weight is the count of the block whose extent
		// holds it (prologue instructions weigh 1).
		exts := blockExtents(cr, c, blockByID)
		for i, in := range code {
			if in.Op != isa.SEND && in.Op != isa.SPAWN {
				continue
			}
			w := 1.0
			for k := len(exts) - 1; k >= 0; k-- {
				if exts[k].start <= i {
					w = blockCount(pr, exts[k].blk)
					break
				}
			}
			msgs += w
		}
	}
	return msgs * estQueueLatency
}

// confidence scores how decisively the best estimate beats the runner-up:
// the relative margin 1 - best/second, in [0, 1]. Two zero estimates give
// no basis to separate and score 0.
func confidence(best, second float64) float64 {
	if second <= 0 {
		return 0
	}
	if math.IsInf(second, 1) {
		return 1
	}
	return 1 - best/second
}

// ClassifyProgram reports, without simulating anything, the per-region plan
// Compile would install under the same options. For a compile that selects
// it mirrors compileSelected's classification exactly: a region classified
// TierEasy/TierSmall/TierDOALL here is what auto and static modes install.
// A compile that does not select lowers each region directly, so each
// region classifies as that lowering: TierDOALL/LLP where a multicore
// ForceLLP compile installs DOALL, TierEasy/single core otherwise.
func ClassifyProgram(p *ir.Program, opts Options) ([]Classification, error) {
	opts, err := prepare(context.Background(), p, opts, "classify")
	if err != nil {
		return nil, err
	}
	if !opts.selects() {
		out := make([]Classification, len(p.Regions))
		for i, r := range p.Regions {
			cr, err := compileRegion(r, opts)
			if err != nil {
				return nil, fmt.Errorf("region %q: %w", r.Name, err)
			}
			out[i] = Classification{Tier: TierEasy, Choice: ChoseSingle, Confidence: 1}
			if cr.TxCores > 0 {
				out[i] = Classification{Tier: TierDOALL, Choice: ChoseLLP, Confidence: 1}
			}
		}
		return out, nil
	}
	plans, err := planRegions(p, opts)
	if err != nil {
		return nil, err
	}
	out := make([]Classification, len(plans))
	for i, pl := range plans {
		out[i] = classifyPlan(pl, opts)
	}
	return out, nil
}

// recheckStallFraction is the realized-overhead fraction above which a
// static pick is contradicted: when the picked mode's characteristic
// overhead ate more than this share of a region's accounted cycles, the
// estimate that promised a win was wrong enough to re-measure.
const recheckStallFraction = 0.5

// Recheck feeds a traced run's stall-attribution report back into
// selection: every region the classifier decided statically (TierEasy)
// whose realized stall profile contradicts the pick — a coupled region
// dominated by lock-step and data stalls, a decoupled pipeline dominated
// by queue traffic — is re-run through measured selection against the
// committed program. It returns the corrected program and the indices of
// the re-selected regions; when nothing is contradicted the input program
// is returned unchanged with a nil index list. cp must be a program
// compiled from p with selection metadata (auto or static mode). Canceling
// ctx aborts the re-measurement with an error wrapping ctx.Err().
//
// A non-nil m is the caller's machine, lent to the re-measurement as eval
// worker 0 as in CompileRun, and reset to its own configuration before
// Recheck returns. A traced m skips measured selection's resumed final run
// and comes back ready to run the corrected program under its tracer.
func Recheck(ctx context.Context, p *ir.Program, cp *core.CompiledProgram, rep *trace.Report, opts Options, m *core.Machine) (*core.CompiledProgram, []int, error) {
	var suspect []int
	for i, sel := range cp.Selection.Regions {
		if sel.Tier != TierEasy.String() || i >= len(rep.Regions) {
			continue
		}
		if rep.Regions[i].Name != cp.Regions[i].Name {
			continue // report and program disagree on layout; don't guess
		}
		if contradicted(rep.Regions[i], sel.Choice) {
			suspect = append(suspect, i)
		}
	}
	if len(suspect) == 0 {
		return cp, nil, nil
	}
	opts, err := prepare(ctx, p, opts, "recheck")
	if err != nil {
		return nil, nil, err
	}
	plans := make([]*regionPlan, len(p.Regions)) // only the suspects are re-measured
	for _, i := range suspect {
		if plans[i], err = planRegion(p.Regions[i], opts); err != nil {
			return nil, nil, err
		}
	}
	out := &core.CompiledProgram{
		Name: cp.Name, Cores: cp.Cores, Src: cp.Src,
		Regions: append([]*core.CompiledRegion(nil), cp.Regions...),
	}
	out.Selection = cp.Selection
	out.Selection.Mode = "escalated"
	out.Selection.Static -= len(suspect)
	out.Selection.Escalated += len(suspect)
	out.Selection.Regions = append([]core.RegionSelection(nil), cp.Selection.Regions...)
	choices, _, err := measureRegions(ctx, opts, out, plans, suspect, m)
	if err != nil {
		return nil, nil, err
	}
	for k, i := range suspect {
		out.Selection.Regions[i].Tier = TierRechecked.String()
		out.Selection.Regions[i].Choice = choices[k].String()
	}
	if err := out.Validate(); err != nil {
		return nil, nil, err
	}
	return out, suspect, nil
}

// contradicted reports whether a region's realized stall profile
// undermines its static pick.
func contradicted(rr trace.RegionReport, choice string) bool {
	var total int64
	for _, n := range rr.Cycles {
		total += n
	}
	if total == 0 {
		return false
	}
	var overhead int64
	switch choice {
	case ChoseILP.String():
		overhead = rr.Cycles[stats.DStall.String()] + rr.Cycles[stats.Lockstep.String()]
	case ChoseFTLP.String():
		overhead = rr.Cycles[stats.RecvData.String()] +
			rr.Cycles[stats.RecvPred.String()] + rr.Cycles[stats.SendStall.String()]
	default:
		// Serial picks have no parallel overhead to contradict; DOALL is
		// taken outright in measured mode too.
		return false
	}
	return float64(overhead) > recheckStallFraction*float64(total)
}
