// Package prof collects the execution profiles the Voltron compiler
// consumes: loop trip counts, observed cross-iteration memory dependences
// (the basis of statistical DOALL detection), and per-load L1 miss rates
// (the basis of eBUG's likely-missing-load weights and of the strategy
// selector's memory-boundedness estimate).
package prof

import (
	"context"

	"voltron/internal/interp"
	"voltron/internal/ir"
	"voltron/internal/mem"
)

// Profile is the collected information, keyed by IR entities.
type Profile struct {
	// TripCount is the average iterations per loop entry, keyed by header.
	TripCount map[*ir.Block]float64
	// CarriedDep marks loop headers whose loops showed a cross-iteration
	// memory dependence during profiling. Loops absent from this set are
	// statistical DOALL candidates.
	CarriedDep map[*ir.Block]bool
	// MissRate is the fraction of profiled accesses that missed a
	// single-core L1, per memory op.
	MissRate map[*ir.Op]float64
	// ExecCount is per-op dynamic execution count.
	ExecCount map[*ir.Op]int64
	// BlockCount is per-block execution count.
	BlockCount map[*ir.Block]int64
	// RegionOps is the dynamic op count per region (serial-work proxy).
	RegionOps []int64
}

// Collect profiles a program by interpreting it with tracing enabled.
func Collect(p *ir.Program) (*Profile, error) {
	return CollectContext(context.Background(), p)
}

// CollectContext is Collect that stops with an error wrapping ctx.Err()
// once ctx ends.
func CollectContext(ctx context.Context, p *ir.Program) (*Profile, error) {
	pr := &Profile{
		TripCount:  map[*ir.Block]float64{},
		CarriedDep: map[*ir.Block]bool{},
		MissRate:   map[*ir.Op]float64{},
		ExecCount:  map[*ir.Op]int64{},
		BlockCount: map[*ir.Block]int64{},
	}
	tr := &tracer{
		p:      pr,
		sim:    mem.NewMissSim(mem.DefaultConfig(1).L1D),
		hits:   map[*ir.Op]int64{},
		misses: map[*ir.Op]int64{},
	}
	res, err := interp.RunContext(ctx, p, interp.Options{Tracer: tr})
	if err != nil {
		return nil, err
	}
	pr.ExecCount = res.OpCounts
	pr.BlockCount = res.BlockCounts
	pr.RegionOps = res.RegionOps
	for op, m := range tr.misses {
		if t := m + tr.hits[op]; t > 0 {
			pr.MissRate[op] = float64(m) / float64(t)
		}
	}
	for _, ls := range tr.allLoops {
		if ls.entries > 0 {
			// The header runs trips+1 times per activation (the final run
			// is the exit test), so subtract one activation's worth.
			pr.TripCount[ls.loop.Header] = float64(ls.iters-ls.entries) / float64(ls.entries)
		}
		if ls.carried {
			pr.CarriedDep[ls.loop.Header] = true
		}
	}
	return pr, nil
}

// loopState tracks one loop's dynamic behaviour.
type loopState struct {
	loop    *ir.Loop
	active  bool
	curIter int64
	iters   int64
	entries int64
	carried bool
	// lastWrite/lastRead map addresses to the iteration that last touched
	// them within the current loop activation.
	lastWrite map[int64]int64
	lastRead  map[int64]int64
}

type tracer struct {
	p   *Profile
	sim *mem.MissSim

	hits, misses map[*ir.Op]int64

	region   *ir.Region
	loops    []*loopState
	allLoops []*loopState
	// blockLoops caches, per block, the loop states whose loop contains it.
	blockLoops map[*ir.Block][]*loopState
	// headerOf maps header blocks to their state.
	headerOf map[*ir.Block]*loopState
}

func (t *tracer) EnterRegion(r *ir.Region) {
	t.region = r
	t.loops = nil
	t.blockLoops = map[*ir.Block][]*loopState{}
	t.headerOf = map[*ir.Block]*loopState{}
	for _, l := range r.Loops() {
		ls := &loopState{loop: l}
		t.loops = append(t.loops, ls)
		t.allLoops = append(t.allLoops, ls)
		t.headerOf[l.Header] = ls
	}
	for _, b := range r.Blocks {
		for _, ls := range t.loops {
			if ls.loop.Blocks[b.ID] {
				t.blockLoops[b] = append(t.blockLoops[b], ls)
			}
		}
	}
}

func (t *tracer) EnterBlock(b *ir.Block) {
	// Leaving a loop: any active loop that does not contain b deactivates.
	for _, ls := range t.loops {
		if ls.active && !ls.loop.Blocks[b.ID] {
			ls.active = false
			ls.lastWrite, ls.lastRead = nil, nil
		}
	}
	if ls := t.headerOf[b]; ls != nil {
		if !ls.active {
			ls.active = true
			ls.entries++
			ls.curIter = 0
			ls.lastWrite = map[int64]int64{}
			ls.lastRead = map[int64]int64{}
		} else {
			ls.curIter++
		}
		ls.iters++
	}
}

func (t *tracer) Mem(o *ir.Op, addr int64, isStore bool) {
	if t.sim.Access(addr) {
		t.hits[o]++
	} else {
		t.misses[o]++
	}
	for _, ls := range t.blockLoops[o.Blk] {
		if !ls.active {
			continue
		}
		if isStore {
			if it, ok := ls.lastWrite[addr]; ok && it != ls.curIter {
				ls.carried = true // WAW across iterations
			}
			if it, ok := ls.lastRead[addr]; ok && it != ls.curIter {
				ls.carried = true // WAR across iterations
			}
			ls.lastWrite[addr] = ls.curIter
		} else {
			if it, ok := ls.lastWrite[addr]; ok && it != ls.curIter {
				ls.carried = true // RAW across iterations
			}
			ls.lastRead[addr] = ls.curIter
		}
	}
}

func (t *tracer) Op(*ir.Op) {}

// StallFraction estimates, for a set of ops (a region), the fraction of
// serial execution time lost to cache-miss stalls — the selector's
// memory-boundedness signal (paper §4.2).
func (p *Profile) StallFraction(r *ir.Region, missPenalty float64) float64 {
	var work, stall float64
	for _, b := range r.Blocks {
		for _, o := range b.Ops {
			n := float64(p.ExecCount[o])
			work += n
			if o.Code.IsMemory() {
				stall += n * p.MissRate[o] * missPenalty
			}
		}
	}
	if work == 0 {
		return 0
	}
	return stall / (work + stall)
}
