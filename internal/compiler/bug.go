package compiler

import (
	"voltron/internal/ir"
	"voltron/internal/xnet"
)

// Bottom-Up Greedy (BUG) operation partitioning for multicluster VLIW
// (Ellis' Bulldog algorithm, as used by the paper for coupled mode), and its
// decoupled-mode extension eBUG (paper §4.1), which adds edge weights for
// likely-missing loads and memory dependences plus a memory-balancing
// penalty so that independent misses spread across cores and dependent
// memory operations stay together.

// bugParams tunes the shared partitioner.
type bugParams struct {
	cores int
	// commLat estimates the cycles to move a value between two cores.
	commLat func(a, b int) int
	// Weights (eBUG); zero for plain BUG.
	missWeight    int
	memDepWeight  int
	memBalPenalty int
	missRate      map[*ir.Op]float64
	missThreshold float64
	// missPenalty scales profiled miss rates into expected stall cycles so
	// completion estimates reflect that an in-order core blocks on a
	// missing load.
	missPenalty float64
	// overlapMisses marks decoupled-mode partitioning, where spreading
	// miss-prone loads across cores overlaps their stalls (MLP); coupled
	// lock-step gains nothing from spreading because every miss stalls
	// every core.
	overlapMisses bool
}

// effLat is the profile-weighted expected latency of an op.
func (p *bugParams) effLat(o *ir.Op) int {
	lat := o.Code.Latency()
	if p.missRate != nil && o.Code.IsLoad() {
		lat += int(p.missRate[o] * p.missPenalty)
	}
	return lat
}

// BUG partitions a region's ops for coupled-mode ILP: the communication
// cost model is the direct-mode network (1 cycle/hop).
func BUG(r *ir.Region, opts Options) Assignment {
	top := xnet.TopologyFor(opts.Cores)
	p := bugParams{
		cores:       opts.Cores,
		commLat:     func(a, b int) int { return top.Hops(a, b) },
		missPenalty: 60,
	}
	if opts.Profile != nil {
		p.missRate = opts.Profile.MissRate
	}
	return bugPartition(r, p)
}

// EBUG partitions a region's ops for decoupled-mode strands: queue-mode
// communication costs (2 + hops), plus the eBUG edge weights unless the
// ablation disables them.
func EBUG(r *ir.Region, opts Options) Assignment {
	top := xnet.TopologyFor(opts.Cores)
	p := bugParams{
		cores:         opts.Cores,
		commLat:       func(a, b int) int { return 2 + top.Hops(a, b) },
		overlapMisses: true,
	}
	if !opts.DisableEBUGWeights {
		p.missWeight = 5
		p.memDepWeight = 30
		p.memBalPenalty = 4
		p.missThreshold = 0.05
		p.missPenalty = 60
		if opts.Profile != nil {
			p.missRate = opts.Profile.MissRate
		}
	}
	return bugPartition(r, p)
}

// lineGroups pairs stores that touch the same cache line in the same
// iteration (same array, same affine stride, offsets within a line):
// splitting them across cores would ping-pong the line through the
// coherence protocol every iteration (false sharing), so the partitioner
// pins each group to one core. line is the caller's straight-line affine
// context, used for stores outside every loop.
func lineGroups(r *ir.Region, line *ir.AffineCtx) map[*ir.Op]*ir.Op {
	leader := map[*ir.Op]*ir.Op{}
	var loops []*ir.Loop
	loops = r.Loops()
	loopOf := func(b *ir.Block) *ir.Loop {
		var innermost *ir.Loop
		for _, l := range loops {
			if l.Blocks[b.ID] && (innermost == nil || len(l.Blocks) < len(innermost.Blocks)) {
				innermost = l
			}
		}
		return innermost
	}
	var stores []*ir.Op
	for _, b := range r.Blocks {
		for _, o := range b.Ops {
			if o.Code.IsStore() {
				stores = append(stores, o)
			}
		}
	}
	const lineBytes = 64
	// One derivation context per loop: building a context walks the whole
	// region, and this pairwise scan issues O(stores²) queries.
	ctxs := map[*ir.Loop]*ir.AffineCtx{nil: line}
	ctxFor := func(l *ir.Loop) *ir.AffineCtx {
		c, ok := ctxs[l]
		if !ok {
			c = r.NewAffineCtx(l)
			ctxs[l] = c
		}
		return c
	}
	for i, a := range stores {
		for _, b := range stores[i+1:] {
			if a.Obj == ir.UnknownObj || a.Obj != b.Obj {
				continue
			}
			l := loopOf(a.Blk)
			if loopOf(b.Blk) != l {
				continue
			}
			ctx := ctxFor(l)
			ea := r.AddrExprOf(a, l, ctx)
			eb := r.AddrExprOf(b, l, ctx)
			if !ea.Known || !eb.Known || ea.Stride != eb.Stride {
				continue
			}
			d := ea.Offset - eb.Offset
			if d < 0 {
				d = -d
			}
			if d < lineBytes {
				la, lb := findLeader(leader, a), findLeader(leader, b)
				if la != lb {
					leader[lb] = la
				}
			}
		}
	}
	return leader
}

func findLeader(leader map[*ir.Op]*ir.Op, o *ir.Op) *ir.Op {
	for leader[o] != nil && leader[o] != o {
		o = leader[o]
	}
	return o
}

// bugPartition assigns every op of the region to a core by bottom-up greedy
// estimation of completion times, block by block in reverse postorder.
func bugPartition(r *ir.Region, p bugParams) Assignment {
	a := Assignment{}
	if p.cores <= 1 {
		return uniform(r, 0)
	}
	// One straight-line affine context serves every block's DFG.
	ctx := r.NewAffineCtx(nil)
	groups := lineGroups(r, ctx)
	groupCore := map[*ir.Op]int{}
	// home tracks which core owns each value's latest def.
	home := map[ir.Value]int{}
	// memCount tracks memory ops per core for balancing.
	memCount := make([]int, p.cores)
	totalMem := 0
	likelyMiss := func(o *ir.Op) bool {
		if p.missRate == nil || !o.Code.IsMemory() {
			return false
		}
		return p.missRate[o] > p.missThreshold
	}
	for _, b := range r.ReversePostorder() {
		dfg := r.BuildBlockDFG(b, ctx)
		// estimated completion time of each scheduled op, and per-core
		// next-free slot, within this block.
		done := map[*ir.Op]int{}
		free := make([]int, p.cores)
		// Process in a dependence-respecting order: block program order is
		// one (ops only depend on earlier ops within a block).
		for _, o := range b.Ops {
			// Stores pinned by a false-sharing group follow the first
			// member's core.
			if o.Code.IsStore() {
				if c, ok := groupCore[findLeader(groups, o)]; ok {
					a[o] = []int{c}
					done[o] = free[c] + o.Code.Latency()
					free[c]++
					memCount[c]++
					totalMem++
					if o.Dst != ir.NoValue {
						home[o.Dst] = c
					}
					continue
				}
			}
			bestCore, bestEst := 0, 1<<30
			for c := 0; c < p.cores; c++ {
				est := free[c]
				for _, e := range dfg.Preds(o) {
					t := done[e.Src] // completion within this block
					pc := a.Primary(e.Src)
					if pc != c {
						t += p.commLat(pc, c)
						if e.Kind == ir.DepMem && p.memDepWeight > 0 {
							t += p.memDepWeight
						}
						if e.Kind == ir.DepFlow && likelyMiss(e.Src) {
							t += p.missWeight
						}
					}
					if t > est {
						est = t
					}
				}
				// Cross-block operands: pay communication if the value
				// lives elsewhere.
				for _, u := range o.Uses() {
					if hc, ok := home[u]; ok && !definedInBlock(b, u) && hc != c {
						if lat := p.commLat(hc, c); lat > est {
							est = lat
						}
					}
				}
				// Memory balancing: discourage piling memory ops on one
				// core once it holds more than its share.
				if o.Code.IsMemory() && p.memBalPenalty > 0 && totalMem > 0 {
					share := totalMem/p.cores + 1
					if memCount[c] > share {
						est += p.memBalPenalty * (memCount[c] - share)
					}
				}
				if est < bestEst {
					bestEst, bestCore = est, c
				}
			}
			a[o] = []int{bestCore}
			done[o] = bestEst + p.effLat(o)
			// In-order cores block on missing loads: the expected stall
			// occupies the core, not just one issue slot.
			if o.Code.IsLoad() {
				free[bestCore] = bestEst + p.effLat(o) - o.Code.Latency() + 1
			} else {
				free[bestCore] = bestEst + 1
			}
			// Cross-core operands consume transfer slots (PUT on the
			// producer, GET on the consumer); charge both resources so the
			// greedy estimate reflects the real occupancy of splitting.
			for _, e := range dfg.Preds(o) {
				if e.Kind != ir.DepFlow {
					continue
				}
				if pc := a.Primary(e.Src); pc != bestCore {
					free[pc]++
					free[bestCore]++
				}
			}
			if o.Dst != ir.NoValue {
				home[o.Dst] = bestCore
			}
			if o.Code.IsMemory() {
				memCount[bestCore]++
				totalMem++
			}
			if o.Code.IsStore() {
				groupCore[findLeader(groups, o)] = bestCore
			}
		}
	}
	refine(r, a, p, groups)
	return a
}

// refine runs a Kernighan–Lin-style descent over the greedy assignment:
// each op may move to another core when that reduces the number of
// crossing register-flow edges (each costs two issue slots plus latency)
// without unbalancing the per-core op counts. The greedy pass is myopic
// about patterns like butterflies where the first few source assignments
// decide all later traffic; local moves recover lane-coherent partitions.
func refine(r *ir.Region, a Assignment, p bugParams, groups map[*ir.Op]*ir.Op) {
	// Flow neighbors from the per-block DFGs plus cross-block def-use.
	neigh := map[*ir.Op][]*ir.Op{}
	defs := map[ir.Value][]*ir.Op{}
	for _, b := range r.Blocks {
		for _, o := range b.Ops {
			if o.Dst != ir.NoValue {
				defs[o.Dst] = append(defs[o.Dst], o)
			}
		}
	}
	for _, b := range r.Blocks {
		for _, o := range b.Ops {
			for _, u := range o.Uses() {
				for _, d := range defs[u] {
					if d != o {
						neigh[o] = append(neigh[o], d)
						neigh[d] = append(neigh[d], o)
					}
				}
			}
		}
	}
	cnt := make([]float64, p.cores)
	missLoad := make([]float64, p.cores)
	missOf := func(o *ir.Op) float64 {
		if !p.overlapMisses || p.missRate == nil || !o.Code.IsLoad() {
			return 0
		}
		return p.missRate[o] * p.missPenalty
	}
	for _, o := range r.AllOps() {
		cnt[a.Primary(o)]++
		missLoad[a.Primary(o)] += missOf(o)
	}
	const balWeight = 0.1
	const missBalWeight = 0.1
	movable := func(o *ir.Op) bool {
		// Stores stay where the false-sharing grouping put them.
		return !o.Code.IsStore()
	}
	for pass := 0; pass < 4; pass++ {
		improved := false
		for _, o := range r.AllOps() {
			if !movable(o) {
				continue
			}
			cur := a.Primary(o)
			bestCore, bestGain := cur, 0.0
			for c := 0; c < p.cores; c++ {
				if c == cur {
					continue
				}
				var gain float64
				for _, n := range neigh[o] {
					nc := a.Primary(n)
					if nc == cur && nc != c {
						gain -= 2 // edge becomes crossing
					}
					if nc != cur && nc == c {
						gain += 2 // edge becomes local
					}
				}
				gain -= balWeight * ((cnt[c]+1)*(cnt[c]+1) + (cnt[cur]-1)*(cnt[cur]-1) -
					cnt[c]*cnt[c] - cnt[cur]*cnt[cur])
				// Decoupled mode: keep expected miss time spread so cores
				// overlap their stalls (the eBUG memory-balancing factor).
				if m := missOf(o); m > 0 {
					nc, na := missLoad[c]+m, missLoad[cur]-m
					gain -= missBalWeight * (nc*nc + na*na -
						missLoad[c]*missLoad[c] - missLoad[cur]*missLoad[cur])
				}
				if gain > bestGain {
					bestGain, bestCore = gain, c
				}
			}
			if bestCore != cur {
				a[o] = []int{bestCore}
				cnt[cur]--
				cnt[bestCore]++
				missLoad[cur] -= missOf(o)
				missLoad[bestCore] += missOf(o)
				improved = true
			}
		}
		if !improved {
			break
		}
	}
}

// definedInBlock reports whether v has a def among b's ops (before-use
// precision is handled by the DFG edges; this guards the cross-block
// operand cost only).
func definedInBlock(b *ir.Block, v ir.Value) bool {
	for _, o := range b.Ops {
		if o.Dst == v {
			return true
		}
	}
	return false
}
