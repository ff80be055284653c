package compiler

import (
	"sort"

	"voltron/internal/core"
	"voltron/internal/ir"
	"voltron/internal/prof"
)

// Static cycle estimation for compiled regions: schedule slots weighted by
// profiled block execution counts, plus expected cache-miss stall cycles.
// Decoupled cores stall independently, so their miss time is per core and
// the region estimate is the maximum over cores (this is what makes the
// estimator see memory-level parallelism); coupled cores stall together, so
// the union of all cores' miss time is added to the (uniform) slot length.
// The selector (paper §4.2) ranks candidate strategies with this estimate.

// estMissPenalty is the expected stall per missing load (between the L2 and
// memory round trips).
const estMissPenalty = 80

// EstimateCycles predicts a compiled region's execution time from the
// profile. It is a ranking heuristic, not a simulator.
func EstimateCycles(cr *core.CompiledRegion, r *ir.Region, pr *prof.Profile) float64 {
	opByID := map[int]*ir.Op{}
	for _, o := range r.AllOps() {
		opByID[o.ID] = o
	}
	blockByID := regionBlocks(r)
	var slots []float64
	var miss []float64
	for c := range cr.Code {
		code := cr.Code[c]
		if len(code) == 0 {
			slots = append(slots, 0)
			miss = append(miss, 0)
			continue
		}
		exts := blockExtents(cr, c, blockByID)
		var s float64
		if len(exts) > 0 {
			s += float64(exts[0].start) // prologue runs once
		}
		for i, e := range exts {
			end := len(code)
			if i+1 < len(exts) {
				end = exts[i+1].start
			}
			s += float64(end-e.start) * blockCount(pr, e.blk)
		}
		// Expected miss stalls of this core's loads.
		var m float64
		if pr != nil {
			for _, in := range code {
				if in.Op.IsLoad() && in.IROp >= 0 {
					if o := opByID[in.IROp]; o != nil {
						m += float64(pr.ExecCount[o]) * pr.MissRate[o] * estMissPenalty
					}
				}
			}
		}
		slots = append(slots, s)
		miss = append(miss, m)
	}
	if cr.Mode == core.Coupled {
		// Lock-step: one schedule length, every core's stalls union.
		var total float64
		maxSlots := 0.0
		for i := range slots {
			total += miss[i]
			if slots[i] > maxSlots {
				maxSlots = slots[i]
			}
		}
		return maxSlots + total
	}
	best := 0.0
	for i := range slots {
		if v := slots[i] + miss[i]; v > best {
			best = v
		}
	}
	return best
}

// blockExtent is the run of one core's code that starts at a block's label
// and ends where the next extent starts.
type blockExtent struct {
	start int
	blk   *ir.Block
}

// regionBlocks indexes a region's blocks by label ID.
func regionBlocks(r *ir.Region) map[int64]*ir.Block {
	m := make(map[int64]*ir.Block, len(r.Blocks))
	for _, b := range r.Blocks {
		m[int64(b.ID)] = b
	}
	return m
}

// blockExtents returns core c's block extents from the label table, in code
// order. Blocks whose labels share an index (an empty block falls through
// to the next) are ordered by label ID, so the estimate never depends on
// map iteration order: the earlier ones get empty extents and the last one
// weighs the code.
func blockExtents(cr *core.CompiledRegion, c int, blockByID map[int64]*ir.Block) []blockExtent {
	var exts []blockExtent
	for lbl, idx := range cr.Labels[c] {
		if b, ok := blockByID[lbl]; ok {
			exts = append(exts, blockExtent{idx, b})
		}
	}
	sort.Slice(exts, func(i, j int) bool {
		if exts[i].start != exts[j].start {
			return exts[i].start < exts[j].start
		}
		return exts[i].blk.ID < exts[j].blk.ID
	})
	return exts
}

// blockCount is a block's profiled execution count as an estimate weight;
// blocks the profile never saw, and every block without a profile, weigh 1.
func blockCount(pr *prof.Profile, b *ir.Block) float64 {
	if pr == nil {
		return 1
	}
	if c, ok := pr.BlockCount[b]; ok {
		return float64(c)
	}
	return 1
}
