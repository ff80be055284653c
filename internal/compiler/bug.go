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
func BUG(r *ir.Region, opts Options) *Assignment {
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
func EBUG(r *ir.Region, opts Options) *Assignment {
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

// predCost is one in-block dependence of the op being placed, reduced to
// what the candidate-core loop needs: when the producer's value is ready,
// which core produces it, and the eBUG weight added when the edge crosses
// cores.
type predCost struct {
	ready, core, extra int
	flow               bool
}

// bugPartition assigns every op of the region to a core by bottom-up greedy
// estimation of completion times, block by block in reverse postorder.
//
// Everything about an op that does not depend on the candidate core — its
// dependences' ready times, producer cores and edge weights, and the homes
// of its cross-block operands — is gathered once per op, so the loop over
// candidate cores is arithmetic only.
func bugPartition(r *ir.Region, p bugParams) *Assignment {
	if p.cores <= 1 {
		return uniform(r, 0)
	}
	a := newAssignment(r)
	// One straight-line affine context serves every block's DFG.
	ctx := r.NewAffineCtx(nil)
	groups := lineGroups(r, ctx)
	nOps, nVals := r.NumOpIDs(), r.NumValues()
	// groupCore[leader ID] is the core of a false-sharing store group,
	// or -1 before its first member is placed.
	groupCore := make([]int32, nOps)
	for i := range groupCore {
		groupCore[i] = -1
	}
	// home[v] is the core owning v's latest def, or -1 before any def;
	// defBlock[v] is the 1-based position of the last block (in visit
	// order) that defines v, so cross-block operands are the uses whose
	// defBlock is not the current block's.
	home := make([]int32, nVals)
	for i := range home {
		home[i] = -1
	}
	defBlock := make([]int32, nVals)
	// done[id] is an op's estimated completion time within its block;
	// every in-block dependence points at an earlier op of the same block,
	// which is always placed first.
	done := make([]int, nOps)
	// memCount tracks memory ops per core for balancing.
	memCount := make([]int, p.cores)
	totalMem := 0
	likelyMiss := func(o *ir.Op) bool {
		if p.missRate == nil || !o.Code.IsMemory() {
			return false
		}
		return p.missRate[o] > p.missThreshold
	}
	free := make([]int, p.cores)
	var preds []predCost
	var remote []int
	for bi, b := range r.ReversePostorder() {
		dfg := r.BuildBlockDFG(b, ctx)
		for _, o := range b.Ops {
			if o.Dst != ir.NoValue {
				defBlock[o.Dst] = int32(bi + 1)
			}
		}
		// Per-core next-free slot within this block.
		clear(free)
		// Process in a dependence-respecting order: block program order is
		// one (ops only depend on earlier ops within a block).
		for _, o := range b.Ops {
			// Stores pinned by a false-sharing group follow the first
			// member's core.
			if o.Code.IsStore() {
				if c := groupCore[findLeader(groups, o).ID]; c >= 0 {
					a.Set(o, int(c))
					done[o.ID] = free[c] + o.Code.Latency()
					free[c]++
					memCount[c]++
					totalMem++
					if o.Dst != ir.NoValue {
						home[o.Dst] = c
					}
					continue
				}
			}
			preds = preds[:0]
			for _, e := range dfg.Preds(o) {
				pc := predCost{ready: done[e.Src.ID], core: a.Primary(e.Src), flow: e.Kind == ir.DepFlow}
				if e.Kind == ir.DepMem && p.memDepWeight > 0 {
					pc.extra += p.memDepWeight
				}
				if pc.flow && likelyMiss(e.Src) {
					pc.extra += p.missWeight
				}
				preds = append(preds, pc)
			}
			// Cross-block operands: pay communication if the value lives
			// elsewhere.
			remote = remote[:0]
			for _, u := range o.Uses() {
				if hc := home[u]; hc >= 0 && defBlock[u] != int32(bi+1) {
					remote = append(remote, int(hc))
				}
			}
			// Memory balancing: discourage piling memory ops on one core
			// once it holds more than its share.
			balance := o.Code.IsMemory() && p.memBalPenalty > 0 && totalMem > 0
			share := totalMem/p.cores + 1
			bestCore, bestEst := 0, 1<<30
			for c := 0; c < p.cores; c++ {
				est := free[c]
				for _, pd := range preds {
					t := pd.ready
					if pd.core != c {
						t += p.commLat(pd.core, c) + pd.extra
					}
					if t > est {
						est = t
					}
				}
				for _, hc := range remote {
					if hc != c {
						if lat := p.commLat(hc, c); lat > est {
							est = lat
						}
					}
				}
				if balance && memCount[c] > share {
					est += p.memBalPenalty * (memCount[c] - share)
				}
				if est < bestEst {
					bestEst, bestCore = est, c
				}
			}
			a.Set(o, bestCore)
			lat := p.effLat(o)
			done[o.ID] = bestEst + lat
			// In-order cores block on missing loads: the expected stall
			// occupies the core, not just one issue slot.
			if o.Code.IsLoad() {
				free[bestCore] = bestEst + lat - o.Code.Latency() + 1
			} else {
				free[bestCore] = bestEst + 1
			}
			// Cross-core operands consume transfer slots (PUT on the
			// producer, GET on the consumer); charge both resources so the
			// greedy estimate reflects the real occupancy of splitting.
			for _, pd := range preds {
				if pd.flow && pd.core != bestCore {
					free[pd.core]++
					free[bestCore]++
				}
			}
			if o.Dst != ir.NoValue {
				home[o.Dst] = int32(bestCore)
			}
			if o.Code.IsMemory() {
				memCount[bestCore]++
				totalMem++
			}
			if o.Code.IsStore() {
				groupCore[findLeader(groups, o).ID] = int32(bestCore)
			}
		}
	}
	refine(r, a, p)
	return a
}

// refine runs a Kernighan–Lin-style descent over the greedy assignment:
// each op may move to another core when that reduces the number of
// crossing register-flow edges (each costs two issue slots plus latency)
// without unbalancing the per-core op counts. The greedy pass is myopic
// about patterns like butterflies where the first few source assignments
// decide all later traffic; local moves recover lane-coherent partitions.
//
// Moving op o from core cur to core c turns each neighbor edge on cur into
// a crossing edge and each on c into a local one, so with nOn[k] counting
// o's neighbors on core k the edge gain is 2·nOn[c] − 2·nOn[cur]: one pass
// over the neighbors per op, not one per candidate core.
func refine(r *ir.Region, a *Assignment, p bugParams) {
	ops := r.AllOps()
	neigh := flowNeighbors(r, ops)
	// missOf[id] is an op's expected miss time, counted only when
	// spreading misses overlaps them (decoupled mode).
	missOf := make([]float64, r.NumOpIDs())
	if p.overlapMisses && p.missRate != nil {
		for _, o := range ops {
			if o.Code.IsLoad() {
				missOf[o.ID] = p.missRate[o] * p.missPenalty
			}
		}
	}
	cnt := make([]float64, p.cores)
	missLoad := make([]float64, p.cores)
	for _, o := range ops {
		cnt[a.Primary(o)]++
		missLoad[a.Primary(o)] += missOf[o.ID]
	}
	nOn := make([]int, p.cores)
	const balWeight = 0.1
	const missBalWeight = 0.1
	for pass := 0; pass < 4; pass++ {
		improved := false
		for _, o := range ops {
			// Stores stay where the false-sharing grouping put them.
			if o.Code.IsStore() {
				continue
			}
			cur := a.Primary(o)
			ns := neigh.of(o.ID)
			for _, n := range ns {
				nOn[a.primaryOf(int(n))]++
			}
			m := missOf[o.ID]
			bestCore, bestGain := cur, 0.0
			for c := 0; c < p.cores; c++ {
				if c == cur {
					continue
				}
				gain := float64(2*nOn[c] - 2*nOn[cur])
				gain -= balWeight * ((cnt[c]+1)*(cnt[c]+1) + (cnt[cur]-1)*(cnt[cur]-1) -
					cnt[c]*cnt[c] - cnt[cur]*cnt[cur])
				// Decoupled mode: keep expected miss time spread so cores
				// overlap their stalls (the eBUG memory-balancing factor).
				if m > 0 {
					nc, na := missLoad[c]+m, missLoad[cur]-m
					gain -= missBalWeight * (nc*nc + na*na -
						missLoad[c]*missLoad[c] - missLoad[cur]*missLoad[cur])
				}
				if gain > bestGain {
					bestGain, bestCore = gain, c
				}
			}
			for _, n := range ns {
				nOn[a.primaryOf(int(n))] = 0
			}
			if bestCore != cur {
				a.Set(o, bestCore)
				cnt[cur]--
				cnt[bestCore]++
				missLoad[cur] -= m
				missLoad[bestCore] += m
				improved = true
			}
		}
		if !improved {
			break
		}
	}
}

// opGraph is an undirected multigraph over a region's ops in compressed
// form: the neighbors of the op with ID id are adj[start[id]:start[id+1]],
// as op IDs.
type opGraph struct {
	start []int32
	adj   []int32
}

func (g opGraph) of(id int) []int32 { return g.adj[g.start[id]:g.start[id+1]] }

// flowNeighbors links every op to every other def of each value it uses,
// in both directions (one edge per use-def pair, so repeated pairs repeat).
func flowNeighbors(r *ir.Region, ops []*ir.Op) opGraph {
	// Defs per value, compressed the same way.
	nVals := r.NumValues()
	defStart := make([]int32, nVals+1)
	for _, o := range ops {
		if o.Dst != ir.NoValue {
			defStart[o.Dst+1]++
		}
	}
	for v := 1; v <= nVals; v++ {
		defStart[v] += defStart[v-1]
	}
	defs := make([]*ir.Op, defStart[nVals])
	fill := append([]int32(nil), defStart[:nVals]...)
	for _, o := range ops {
		if o.Dst != ir.NoValue {
			defs[fill[o.Dst]] = o
			fill[o.Dst]++
		}
	}
	defsOf := func(v ir.Value) []*ir.Op { return defs[defStart[v]:defStart[v+1]] }
	// Count degrees, then fill.
	nOps := r.NumOpIDs()
	g := opGraph{start: make([]int32, nOps+1)}
	for _, o := range ops {
		for _, u := range o.Uses() {
			for _, d := range defsOf(u) {
				if d != o {
					g.start[o.ID+1]++
					g.start[d.ID+1]++
				}
			}
		}
	}
	for id := 1; id <= nOps; id++ {
		g.start[id] += g.start[id-1]
	}
	g.adj = make([]int32, g.start[nOps])
	pos := append([]int32(nil), g.start[:nOps]...)
	for _, o := range ops {
		for _, u := range o.Uses() {
			for _, d := range defsOf(u) {
				if d != o {
					g.adj[pos[o.ID]] = int32(d.ID)
					pos[o.ID]++
					g.adj[pos[d.ID]] = int32(o.ID)
					pos[d.ID]++
				}
			}
		}
	}
	return g
}
