package compiler

import (
	"voltron/internal/ir"
)

// Decoupled software pipelining (Ottoni et al., as adopted by the paper):
// the loop-body dependence graph's strongly connected components — which
// contain all recurrences — are merged into single nodes; the resulting
// acyclic graph is greedily partitioned into pipeline stages, one per core,
// assigned in topological order so all cross-stage dependences flow
// forward. Decoupled execution then overlaps the stages across iterations.

// tryDSWP attempts a pipeline partition of the region's hottest loop.
// It returns the assignment and the estimated speedup (serial cost divided
// by the longest stage), or (nil, 0) when no profitable pipeline exists.
func tryDSWP(r *ir.Region, opts Options) (*Assignment, float64) {
	loop := hottestLoop(r, opts)
	if loop == nil {
		return nil, 0
	}
	pdg := r.BuildPDG(loop, r.NewAffineCtx(loop))
	if len(pdg.Nodes) < 2 {
		return nil, 0
	}
	sccs := pdg.SCCs()
	if len(sccs) < 2 {
		return nil, 0 // one big recurrence: no pipeline
	}
	// The control slice (induction, bounds compare) replicates to every
	// core in decoupled codegen — it is not pipeline work, so it carries
	// no cost and cannot form a stage by itself.
	inSlice := map[*ir.Op]bool{}
	for _, o := range controlSliceOps(r, 1<<20) {
		inSlice[o] = true
	}
	cost := func(ops []*ir.Op) float64 {
		var t float64
		for _, o := range ops {
			if inSlice[o] {
				continue
			}
			t += float64(o.Code.Latency())
			if o.Code.IsMemory() && opts.Profile != nil {
				t += opts.Profile.MissRate[o] * 50 // expected miss stall
			}
		}
		return t
	}
	workSCCs := 0
	for _, s := range sccs {
		if cost(s) > 0 {
			workSCCs++
		}
	}
	if workSCCs < 2 {
		return nil, 0 // the loop is one recurrence plus control: no pipeline
	}
	var total float64
	sccCost := make([]float64, len(sccs))
	for i, s := range sccs {
		sccCost[i] = cost(s)
		total += sccCost[i]
	}
	if total == 0 {
		return nil, 0
	}
	// Greedy stage formation in topological order: cut when the running
	// stage reaches its fair share.
	stages := opts.Cores
	target := total / float64(stages)
	a := newAssignment(r)
	stage, acc := 0, 0.0
	maxStage := 0.0
	stageCost := make([]float64, stages)
	for i, s := range sccs {
		if acc >= target && stage < stages-1 {
			stage++
			acc = 0
		}
		acc += sccCost[i]
		stageCost[stage] += sccCost[i]
		for _, o := range s {
			a.Set(o, stage)
		}
	}
	for _, c := range stageCost {
		if c > maxStage {
			maxStage = c
		}
	}
	if maxStage == 0 {
		return nil, 0
	}
	used := 0
	for _, c := range stageCost {
		if c > 0 {
			used++
		}
	}
	if used < 2 {
		return nil, 0
	}
	// Everything outside the loop stays on the master.
	for _, b := range r.Blocks {
		if loop.Blocks[b.ID] {
			continue
		}
		for _, o := range b.Ops {
			a.Set(o, 0)
		}
	}
	return a, total / maxStage
}

// hottestLoop picks the outermost loop covering the most dynamic work.
func hottestLoop(r *ir.Region, opts Options) *ir.Loop {
	var best *ir.Loop
	var bestWeight float64
	for _, l := range r.Loops() {
		if l.Parent != nil {
			continue
		}
		var w float64
		for id := range l.Blocks {
			b := r.Blocks[id]
			n := float64(len(b.Ops))
			if opts.Profile != nil {
				n *= float64(opts.Profile.BlockCount[b])
			}
			w += n
		}
		if w > bestWeight {
			bestWeight, best = w, l
		}
	}
	return best
}
