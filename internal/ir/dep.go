package ir

import "voltron/internal/isa"

// Dependence graphs. Two granularities are used by the compiler:
//
//   - Block DFG: precise flow/anti/output/memory dependences among the ops
//     of a single basic block, in program order — the scheduler's input.
//   - Region PDG: a flow-insensitive program dependence graph over all ops
//     of a region (or one loop), with register flow, output, memory and
//     control dependences — the input to DSWP's SCC partitioning and to
//     BUG/eBUG's region-wide operation-to-core assignment.

// DepKind labels a dependence edge.
type DepKind uint8

// Dependence kinds.
const (
	DepFlow DepKind = iota
	DepAnti
	DepOutput
	DepMem
	DepControl
)

func (k DepKind) String() string {
	switch k {
	case DepFlow:
		return "flow"
	case DepAnti:
		return "anti"
	case DepOutput:
		return "output"
	case DepMem:
		return "mem"
	case DepControl:
		return "control"
	}
	return "dep?"
}

// DepEdge is one dependence from Src to Dst (Dst depends on Src).
type DepEdge struct {
	Src, Dst *Op
	Kind     DepKind
	// Carried marks loop-carried dependences in a PDG built for a loop.
	Carried bool
	// Latency is the minimum issue distance the edge imposes (producer
	// latency for flow edges; 1 otherwise).
	Latency int
}

// BlockDFG holds the dependence edges among one block's ops.
type BlockDFG struct {
	Block *Block
	// Edges lists every edge once. Each edge is added while its Dst is
	// visited, so the edges into one op form one contiguous run, in block
	// order of their destinations.
	Edges []DepEdge
	// span[o.ID-base] is the [start, end) run of Edges entering o; base is
	// the smallest Op.ID in the block.
	base int
	span [][2]int32
}

// Preds returns edges entering o, in the order they were added. The result
// aliases g.Edges; its capacity ends at its length, so an append copies.
func (g *BlockDFG) Preds(o *Op) []DepEdge {
	i := o.ID - g.base
	if i < 0 || i >= len(g.span) {
		return nil
	}
	s := g.span[i]
	return g.Edges[s[0]:s[1]:s[1]]
}

// BuildBlockDFG computes the precise dependence graph of one block.
// Memory dependences use the affine analysis (straight-line: intra only)
// through ctx, a straight-line context of the region (NewAffineCtx(nil));
// a lowering that builds the DFGs of many blocks builds it once and passes
// it to every call.
func (r *Region) BuildBlockDFG(b *Block, ctx *AffineCtx) *BlockDFG {
	// Blocks average about one edge per op.
	g := &BlockDFG{Block: b, Edges: make([]DepEdge, 0, len(b.Ops))}
	if len(b.Ops) > 0 {
		lo, hi := b.Ops[0].ID, b.Ops[0].ID
		for _, o := range b.Ops {
			lo, hi = min(lo, o.ID), max(hi, o.ID)
		}
		g.base, g.span = lo, make([][2]int32, hi-lo+1)
	}
	add := func(src, dst *Op, k DepKind) {
		lat := 1
		if k == DepFlow {
			lat = src.Code.Latency()
		}
		g.Edges = append(g.Edges, DepEdge{Src: src, Dst: dst, Kind: k, Latency: lat})
	}
	lastDef := map[Value]*Op{}
	lastUses := map[Value][]*Op{}
	var mem []*Op
	for _, o := range b.Ops {
		start := len(g.Edges)
		for _, u := range o.Uses() {
			if d := lastDef[u]; d != nil {
				add(d, o, DepFlow)
			}
			lastUses[u] = append(lastUses[u], o)
		}
		if o.Dst != NoValue {
			if d := lastDef[o.Dst]; d != nil {
				add(d, o, DepOutput)
			}
			for _, u := range lastUses[o.Dst] {
				if u != o {
					add(u, o, DepAnti)
				}
			}
			lastDef[o.Dst] = o
			lastUses[o.Dst] = nil
		}
		if o.Code.IsMemory() {
			for _, m := range mem {
				if r.MemDep(m, o, nil, ctx) != MemNoDep {
					add(m, o, DepMem)
				}
			}
			mem = append(mem, o)
		}
		g.span[o.ID-g.base] = [2]int32{int32(start), int32(len(g.Edges))}
	}
	return g
}

// PDG is the region- or loop-level program dependence graph.
type PDG struct {
	Region *Region
	// Loop is non-nil when the graph covers one loop body.
	Loop  *Loop
	Nodes []*Op
	Edges []DepEdge
	succ  map[*Op][]DepEdge
}

// Succs returns edges leaving o.
func (g *PDG) Succs(o *Op) []DepEdge { return g.succ[o] }

func (g *PDG) add(src, dst *Op, k DepKind, carried bool) {
	lat := 1
	if k == DepFlow {
		lat = src.Code.Latency()
	}
	e := DepEdge{Src: src, Dst: dst, Kind: k, Carried: carried, Latency: lat}
	g.Edges = append(g.Edges, e)
	g.succ[src] = append(g.succ[src], e)
}

// controlDeps computes, for every block, the set of blocks it is
// control-dependent on (Ferrante et al. via postdominators).
func (r *Region) controlDeps() map[int][]*Block {
	pdom := r.PostDominators()
	cd := map[int][]*Block{}
	for _, a := range r.Blocks {
		if a.Kind != CondBr {
			continue
		}
		for _, s := range a.Succs() {
			// Walk the postdominator tree from s up to (exclusive) a's
			// immediate postdominator; every block on the way is
			// control-dependent on a.
			stop := pdom.idom[a.ID]
			for b := s; b != nil && b.ID != stop; {
				cd[b.ID] = append(cd[b.ID], a)
				id := pdom.idom[b.ID]
				if id < 0 {
					break
				}
				b = pdom.blocks[id]
			}
		}
	}
	return cd
}

// BuildPDG computes the program dependence graph over the ops of loop l
// (or the whole region when l is nil).
//
// Register dependences are flow-insensitive: every def reaches every use of
// the same value, and multiple defs of one value are tied together with
// output edges in both directions so they land in one SCC / one core.
// Anti-dependences are intentionally omitted: cross-thread register values
// travel through the operand network's queues, which rename per message —
// the property DSWP relies on. Memory dependences come from the affine
// analysis; control dependences from postdominance frontiers, expressed as
// edges from the op defining the controlling branch condition.
//
// ctx is an affine context of the region for l (NewAffineCtx(l)).
func (r *Region) BuildPDG(l *Loop, ctx *AffineCtx) *PDG {
	g := &PDG{Region: r, Loop: l, succ: map[*Op][]DepEdge{}}
	inScope := func(b *Block) bool { return l == nil || l.Blocks[b.ID] }
	defs := map[Value][]*Op{}
	for _, b := range r.Blocks {
		if !inScope(b) {
			continue
		}
		for _, o := range b.Ops {
			g.Nodes = append(g.Nodes, o)
			if o.Dst != NoValue {
				defs[o.Dst] = append(defs[o.Dst], o)
			}
		}
	}
	opInScope := map[*Op]bool{}
	for _, o := range g.Nodes {
		opInScope[o] = true
	}
	// Register flow and output dependences.
	for _, b := range r.Blocks {
		if !inScope(b) {
			continue
		}
		for _, o := range b.Ops {
			for _, u := range o.Uses() {
				for _, d := range defs[u] {
					if d != o {
						g.add(d, o, DepFlow, l != nil)
					} else {
						// Self recurrence (i = i+1): a carried self edge.
						g.add(d, o, DepFlow, true)
					}
				}
			}
		}
	}
	for _, ds := range defs {
		for i := 0; i < len(ds); i++ {
			for j := i + 1; j < len(ds); j++ {
				g.add(ds[i], ds[j], DepOutput, l != nil)
				g.add(ds[j], ds[i], DepOutput, l != nil)
			}
		}
	}
	// Memory dependences.
	var mem []*Op
	for _, o := range g.Nodes {
		if o.Code.IsMemory() {
			mem = append(mem, o)
		}
	}
	for i, a := range mem {
		for _, bop := range mem[i+1:] {
			switch r.MemDep(a, bop, l, ctx) {
			case MemNoDep:
			case MemIntraDep:
				g.add(a, bop, DepMem, false)
			case MemCarriedDep:
				g.add(a, bop, DepMem, true)
				g.add(bop, a, DepMem, true)
			case MemBothDep:
				g.add(a, bop, DepMem, false)
				if l != nil {
					g.add(bop, a, DepMem, true)
				}
			}
		}
	}
	// Control dependences: each op depends on the condition definition of
	// every block its own block is control-dependent on.
	cd := r.controlDeps()
	for _, b := range r.Blocks {
		if !inScope(b) {
			continue
		}
		for _, ctrl := range cd[b.ID] {
			if !inScope(ctrl) || ctrl.Cond == NoValue {
				continue
			}
			for _, d := range defs[ctrl.Cond] {
				for _, o := range b.Ops {
					if d != o {
						g.add(d, o, DepControl, false)
					}
				}
			}
		}
	}
	return g
}

// SCCs computes strongly connected components of the PDG (Tarjan),
// considering carried edges — recurrences collapse into single components.
// Components are returned in a topological order of the condensed DAG
// (sources first).
func (g *PDG) SCCs() [][]*Op {
	index := map[*Op]int{}
	low := map[*Op]int{}
	onStack := map[*Op]bool{}
	var stack []*Op
	var sccs [][]*Op
	next := 0
	var strong func(v *Op)
	strong = func(v *Op) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, e := range g.succ[v] {
			w := e.Dst
			if _, seen := index[w]; !seen {
				strong(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var comp []*Op
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comp = append(comp, w)
				if w == v {
					break
				}
			}
			sccs = append(sccs, comp)
		}
	}
	for _, v := range g.Nodes {
		if _, seen := index[v]; !seen {
			strong(v)
		}
	}
	// Tarjan emits SCCs in reverse topological order; reverse for sources
	// first.
	for i, j := 0, len(sccs)-1; i < j; i, j = i+1, j-1 {
		sccs[i], sccs[j] = sccs[j], sccs[i]
	}
	return sccs
}

// ValueClassOfOp returns the register class an op's destination uses,
// falling back to the region's value table.
func (r *Region) ValueClassOfOp(o *Op) isa.RegClass {
	if o.Dst == NoValue {
		return isa.RegNone
	}
	return r.ValueClass(o.Dst)
}
