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
	m := mem.NewFlatFor(p)
	tr := &tracer{
		sim:   mem.NewMissSim(mem.DefaultConfig(1).L1D),
		words: m.Words(),
		tally: make([][]memTally, len(p.Regions)),
	}
	res, err := interp.RunContext(ctx, p, interp.Options{Tracer: tr, Mem: m})
	if err != nil {
		return nil, err
	}
	// The public maps hold an entry for every executed block and op, and
	// a miss rate for every op that missed at least once.
	var blocks, ops int
	for _, r := range p.Regions {
		for _, b := range r.Blocks {
			if res.BlockCounts[r.ID][b.ID] > 0 {
				blocks++
				ops += len(b.Ops)
			}
		}
	}
	pr := &Profile{
		TripCount:  map[*ir.Block]float64{},
		CarriedDep: map[*ir.Block]bool{},
		MissRate:   map[*ir.Op]float64{},
		ExecCount:  make(map[*ir.Op]int64, ops),
		BlockCount: make(map[*ir.Block]int64, blocks),
		RegionOps:  res.RegionOps,
	}
	for _, r := range p.Regions {
		counts, tally := res.BlockCounts[r.ID], tr.tally[r.ID]
		for _, b := range r.Blocks {
			n := counts[b.ID]
			if n == 0 {
				continue
			}
			pr.BlockCount[b] = n
			for _, o := range b.Ops {
				pr.ExecCount[o] = n
				if t := tally[o.ID]; t.misses > 0 {
					pr.MissRate[o] = float64(t.misses) / float64(t.misses+t.hits)
				}
			}
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

// memTally counts one memory op's single-core L1 hits and misses.
type memTally struct{ hits, misses int64 }

// depStamp records, for one memory word, the iteration serials of the last
// write and the last read a loop made to it (0: never).
type depStamp struct{ wr, rd int64 }

// loopState tracks one loop's dynamic behaviour.
type loopState struct {
	loop *ir.Loop
	// in marks the loop's blocks, indexed by Block.ID.
	in      []bool
	active  bool
	iters   int64
	entries int64
	carried bool
	// base is the tracer's serial before this activation's first iteration
	// and cur the serial of its current iteration, so a stamp in deps
	// belongs to this activation iff it is above base, and to an earlier
	// iteration of it iff it is also not cur.
	base, cur int64
	// deps holds the loop's word-indexed stamps during an activation; nil
	// until its first memory access.
	deps *mem.WordTable[depStamp]
}

type tracer struct {
	sim *mem.MissSim
	// words is the size of the backing store; addresses outside it are not
	// tracked (the interpreter faults on them right after the hook).
	words int64
	// tally is per region, indexed by Op.ID.
	tally [][]memTally

	// cur is the running region's tally and loops its loop states.
	cur      []memTally
	loops    []*loopState
	allLoops []*loopState
	// blockLoops lists, per block ID, the loop states whose loop contains
	// the block; headerOf maps a header's block ID to its loop's state.
	blockLoops [][]*loopState
	headerOf   []*loopState
	// serial numbers every loop iteration the run starts, across all loops,
	// so stamps from any earlier activation compare below a loop's base.
	serial int64
	// free holds the stamp tables of deactivated loops. A loop takes one
	// when it activates, so the run keeps as many tables as loops are ever
	// active at once, not one per loop.
	free []*mem.WordTable[depStamp]
}

func (t *tracer) EnterRegion(r *ir.Region) {
	t.cur = make([]memTally, r.NumOpIDs())
	t.tally[r.ID] = t.cur
	t.loops = nil
	t.blockLoops = make([][]*loopState, len(r.Blocks))
	t.headerOf = make([]*loopState, len(r.Blocks))
	for _, l := range r.Loops() {
		ls := &loopState{loop: l, in: make([]bool, len(r.Blocks))}
		for id := range l.Blocks {
			ls.in[id] = true
			t.blockLoops[id] = append(t.blockLoops[id], ls)
		}
		t.loops = append(t.loops, ls)
		t.allLoops = append(t.allLoops, ls)
		t.headerOf[l.Header.ID] = ls
	}
}

func (t *tracer) EnterBlock(b *ir.Block) {
	// Leaving a loop: any active loop that does not contain b deactivates.
	for _, ls := range t.loops {
		if ls.active && !ls.in[b.ID] {
			ls.active = false
			if ls.deps != nil {
				t.free = append(t.free, ls.deps)
				ls.deps = nil
			}
		}
	}
	if ls := t.headerOf[b.ID]; ls != nil {
		if !ls.active {
			ls.active = true
			ls.entries++
			ls.base = t.serial
			// A pooled table holds stamps no later than base. A loop that
			// finds the pool empty allocates a zeroed table on its first
			// access instead, since one taken later could hold stamps of
			// inner loops that ran after base.
			if n := len(t.free); n > 0 {
				ls.deps, t.free = t.free[n-1], t.free[:n-1]
			}
		}
		t.serial++
		ls.cur = t.serial
		ls.iters++
	}
}

func (t *tracer) Mem(o *ir.Op, addr int64, isStore bool) {
	if t.sim.Access(addr) {
		t.cur[o.ID].hits++
	} else {
		t.cur[o.ID].misses++
	}
	w := uint64(addr >> 3)
	if w >= uint64(t.words) {
		return
	}
	for _, ls := range t.blockLoops[o.Blk.ID] {
		// Only the carried flag is reported, so a loop already known to
		// carry a dependence needs no more stamps.
		if !ls.active || ls.carried {
			continue
		}
		if ls.deps == nil {
			ls.deps = new(mem.WordTable[depStamp])
		}
		d := ls.deps.At(int(w))
		if isStore {
			// WAW or WAR across iterations.
			if d.wr > ls.base && d.wr != ls.cur || d.rd > ls.base && d.rd != ls.cur {
				ls.carried = true
			}
			d.wr = ls.cur
		} else {
			// RAW across iterations.
			if d.wr > ls.base && d.wr != ls.cur {
				ls.carried = true
			}
			d.rd = ls.cur
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
