package compiler

import (
	"fmt"
	"sort"

	"voltron/internal/core"
	"voltron/internal/ir"
	"voltron/internal/isa"
)

// Decoupled-mode code generation: given an operation-to-core assignment
// (from eBUG strand extraction, DSWP, or the trivial serial assignment),
// emit one fine-grain thread per participating core. Every participating
// core replicates the region's control-flow skeleton (branches are
// replicated; conditions are computed locally when the control slice was
// replicated, otherwise received over the queue network), the master core 0
// SPAWNs the workers, cross-core register flow becomes SEND/RECV pairs
// placed in the defining op's block, and ambiguous cross-core memory
// dependences are synchronized with dummy token messages (paper §3.3).

// entryLabel is the logical label of core c's thread entry.
func entryLabel(c int) int64 { return 1<<20 + int64(c) }

// regOf maps an IR value to its per-core machine register (the register
// index namespace is shared across cores; each core has its own file).
func regOf(r *ir.Region, v ir.Value) isa.Reg {
	return isa.Reg{Class: r.ValueClass(v), Index: int(v)}
}

// instFor lowers one IR op to a machine instruction.
func instFor(r *ir.Region, o *ir.Op) isa.Inst {
	in := isa.Inst{Op: o.Code, Imm: o.Imm, F: o.F, IROp: o.ID}
	if o.Dst != ir.NoValue {
		in.Dst = regOf(r, o.Dst)
	}
	if o.Args[0] != ir.NoValue {
		in.Src1 = regOf(r, o.Args[0])
	}
	if o.Args[1] != ir.NoValue {
		in.Src2 = regOf(r, o.Args[1])
	}
	return in
}

// message is one planned queue-network transfer.
type message struct {
	from, to int
	reg      isa.Reg // value register (data) or token register
	def      *ir.Op  // producing op (data) or dependence source (token)
	consumer *ir.Op  // dependence sink (token only)
	token    bool
	seq      int
}

// decoupledGen carries the state of one region's decoupled lowering.
type decoupledGen struct {
	r     *ir.Region
	a     *Assignment
	width int   // machine cores
	parts []int // participating cores (sorted, includes 0)
	rpo   []*ir.Block
	// msgs per block, in planning order.
	msgs map[*ir.Block][]*message
	// msgOrder per block: global topological transfer order.
	msgOrder map[*ir.Block]map[*message]int
	// defsOf per value.
	defs map[ir.Value][]*ir.Op
	// users[v] lists the ops reading v, each once; isCond[v] marks values
	// some block branches on. Which cores run those ops is read from the
	// assignment at query time, so the index stays valid while
	// rematerialize replicates ops.
	users  [][]*ir.Op
	isCond []bool
	// ctx is the lowering's one straight-line affine context; dfgs holds
	// each block's DFG by block ID, built on first use and shared by
	// orderMessages and every core's blockBody.
	ctx  *ir.AffineCtx
	dfgs []*ir.BlockDFG
	// scratch register indices.
	zeroReg  isa.Reg
	tokenReg isa.Reg
	seq      int
}

// GenDecoupled lowers a region for decoupled execution under the given
// assignment. The assignment is sanitized (multi-def unification, carried
// memory-dependence grouping) and the control slice is replicated to all
// participating cores when it is cheap and load-free; otherwise branch
// conditions travel over the network.
func GenDecoupled(r *ir.Region, a *Assignment, width int) (*core.CompiledRegion, error) {
	return genDecoupled(r, a, width, false)
}

// GenDecoupledPredSend is the ablation variant that never replicates the
// control slice: branch conditions always travel over the queue network.
func GenDecoupledPredSend(r *ir.Region, a *Assignment, width int) (*core.CompiledRegion, error) {
	return genDecoupled(r, a, width, true)
}

func genDecoupled(r *ir.Region, a *Assignment, width int, forcePredSend bool) (*core.CompiledRegion, error) {
	a = sanitize(r, a)
	g := &decoupledGen{
		r: r, a: a, width: width,
		rpo:    r.ReversePostorder(),
		msgs:   map[*ir.Block][]*message{},
		defs:   map[ir.Value][]*ir.Op{},
		users:  make([][]*ir.Op, r.NumValues()),
		isCond: make([]bool, r.NumValues()),
		ctx:    r.NewAffineCtx(nil),
		dfgs:   make([]*ir.BlockDFG, len(r.Blocks)),
	}
	for _, b := range r.Blocks {
		if b.Kind == ir.CondBr {
			g.isCond[b.Cond] = true
		}
		for _, o := range b.Ops {
			if o.Dst != ir.NoValue {
				g.defs[o.Dst] = append(g.defs[o.Dst], o)
			}
			us := o.Uses()
			if len(us) == 2 && us[0] == us[1] {
				us = us[:1]
			}
			for _, u := range us {
				g.users[u] = append(g.users[u], o)
			}
		}
	}
	g.parts = a.Cores()
	for _, c := range g.parts {
		if c >= width {
			return nil, fmt.Errorf("assignment uses core %d on a %d-core machine", c, width)
		}
	}
	base := r.NumValues()
	g.zeroReg = isa.GPR(base + 1)
	g.tokenReg = isa.GPR(base + 2)
	// Replicate the control slice when cheap; recompute participant set
	// afterwards (replication never adds new cores).
	if !forcePredSend {
		g.replicateControlSlice()
	}
	g.rematerialize()
	if err := checkAssignment(r, g.a); err != nil {
		return nil, err
	}
	g.planMessages()
	g.msgOrder = map[*ir.Block]map[*message]int{}
	for _, b := range g.rpo {
		g.msgOrder[b] = g.orderMessages(b)
	}
	if err := g.checkAvailability(); err != nil {
		return nil, err
	}
	cr := &core.CompiledRegion{
		Name:       r.Name,
		Mode:       core.Decoupled,
		Code:       make([][]isa.Inst, width),
		Labels:     make([]map[int64]int, width),
		Entry:      make([]int, width),
		StartAwake: make([]bool, width),
	}
	isPart := map[int]bool{}
	for _, c := range g.parts {
		isPart[c] = true
	}
	for c := 0; c < width; c++ {
		cr.Labels[c] = map[int64]int{}
		if !isPart[c] {
			continue
		}
		code, labels := g.emitCore(c)
		cr.Code[c] = code
		cr.Labels[c] = labels
	}
	cr.StartAwake[0] = true
	return cr, nil
}

// replicateControlSlice replicates the transitive computation of every
// block condition onto all participating cores when the slice is load-free
// and small; each core then resolves branches locally (the paper's
// "computation of the branch conditions can be replicated to other cores to
// save communication and reduce receive stalls").
func (g *decoupledGen) replicateControlSlice() {
	if len(g.parts) == 1 {
		return
	}
	slice := controlSliceOps(g.r, 24)
	if slice == nil {
		return // not replicable; conditions will be sent instead
	}
	for _, o := range slice {
		for _, c := range g.parts {
			g.a.Replicate(o, c)
		}
	}
}

// rematerialize replicates cheap register-only computations (constants,
// address arithmetic) onto cores that would otherwise receive their value
// over the network: a 1-cycle local recompute beats a 3-cycle queue
// message. Works value-at-a-time so multi-def values stay coherent (every
// def is replicated or none), and iterates so chains like
// i -> i<<3 -> base+off replicate bottom-up.
func (g *decoupledGen) rematerialize() {
	if len(g.parts) == 1 {
		return
	}
	for pass := 0; pass < 8; pass++ {
		changed := false
		for v, ds := range g.defs {
			cheap := len(ds) > 0
			for _, d := range ds {
				if d.Code.IsMemory() || d.Code.IsComm() || d.Code.Latency() != 1 {
					cheap = false
				}
			}
			if !cheap {
				continue
			}
			for _, c := range g.parts {
				if !g.needsValue(v, c) {
					continue
				}
				avail := true
				for _, d := range ds {
					for _, u := range d.Uses() {
						for _, ud := range g.defs[u] {
							if !g.a.On(ud, c) {
								avail = false
							}
						}
					}
				}
				if !avail {
					continue
				}
				for _, d := range ds {
					g.a.Replicate(d, c)
				}
				changed = true
			}
		}
		if !changed {
			break
		}
	}
}

// needsValue reports whether core c consumes value v somewhere (as an op
// operand or a branch condition) without having a local def.
func (g *decoupledGen) needsValue(v ir.Value, c int) bool {
	for _, d := range g.defs[v] {
		if g.a.On(d, c) {
			return false // local copy maintained by own defs
		}
	}
	if g.isCond[v] {
		return true // every participant branches on it
	}
	for _, o := range g.users[v] {
		if g.a.On(o, c) {
			return true
		}
	}
	return false
}

// planMessages computes the data and token messages of every block.
func (g *decoupledGen) planMessages() {
	loops := g.r.Loops()
	// Data: push at def to every consuming core lacking the value. A def
	// whose consumers on the target core all lie outside the enclosing
	// loop is a loop live-out: its message hoists to the loop exit so it
	// is sent once instead of every iteration.
	for _, b := range g.rpo {
		for _, d := range b.Ops {
			if d.Dst == ir.NoValue {
				continue
			}
			from := g.a.Primary(d)
			for _, c := range g.parts {
				if g.a.On(d, c) || !g.needsValue(d.Dst, c) {
					continue
				}
				g.seq++
				at := g.hoistBlock(loops, d, c)
				g.msgs[at] = append(g.msgs[at], &message{
					from: from, to: c, reg: regOf(g.r, d.Dst), def: d, seq: g.seq,
				})
			}
		}
	}
	// Tokens: intra-iteration memory dependences crossing cores. With one
	// participant no dependence crosses cores.
	if len(g.parts) == 1 {
		return
	}
	pdg := g.r.BuildPDG(nil, g.ctx)
	done := map[[2]*ir.Op]bool{}
	for _, e := range pdg.Edges {
		if e.Kind != ir.DepMem || e.Carried {
			continue
		}
		from, to := g.a.Primary(e.Src), g.a.Primary(e.Dst)
		if from == to || done[[2]*ir.Op{e.Src, e.Dst}] {
			continue
		}
		done[[2]*ir.Op{e.Src, e.Dst}] = true
		g.seq++
		g.msgs[e.Src.Blk] = append(g.msgs[e.Src.Blk], &message{
			from: from, to: to, reg: g.tokenReg, def: e.Src, consumer: e.Dst,
			token: true, seq: g.seq,
		})
	}
}

// hoistBlock returns the block where the message for def d toward core c
// should be placed: d's own block, or — when every consumer of the value on
// c lies outside an enclosing single-exit loop — that loop's exit block.
func (g *decoupledGen) hoistBlock(loops []*ir.Loop, d *ir.Op, c int) *ir.Block {
	blk := d.Blk
	for hoisted := true; hoisted; {
		hoisted = false
		for _, l := range loops {
			if !l.Blocks[blk.ID] || len(l.Exits) != 1 {
				continue
			}
			if g.consumerInLoop(l, d.Dst, c) {
				continue
			}
			blk = l.Exits[0]
			hoisted = true
			break
		}
	}
	return blk
}

// consumerInLoop reports whether core c consumes v inside loop l (as an
// operand of one of its ops or as a branch condition, which every
// participant evaluates).
func (g *decoupledGen) consumerInLoop(l *ir.Loop, v ir.Value, c int) bool {
	if g.isCond[v] {
		for id := range l.Blocks {
			if b := g.r.Blocks[id]; b.Kind == ir.CondBr && b.Cond == v {
				return true
			}
		}
	}
	for _, o := range g.users[v] {
		if l.Blocks[o.Blk.ID] && g.a.On(o, c) {
			return true
		}
	}
	return false
}

// dfg returns block b's dependence graph, building it on first use.
func (g *decoupledGen) dfg(b *ir.Block) *ir.BlockDFG {
	if g.dfgs[b.ID] == nil {
		g.dfgs[b.ID] = g.r.BuildBlockDFG(b, g.ctx)
	}
	return g.dfgs[b.ID]
}

// orderMessages assigns every message of a block a position in a global
// topological order of the block's joint (all-cores) dependence graph.
// Chaining each core's communication operations in this order makes the
// cross-core schedules deadlock-free: a blocking RECV can never be placed
// before a local SEND that (transitively, through other cores) feeds it.
func (g *decoupledGen) orderMessages(b *ir.Block) map[*message]int {
	msgs := g.msgs[b]
	if len(msgs) == 0 {
		return nil
	}
	// Joint nodes: block ops then messages.
	n := len(b.Ops) + len(msgs)
	adj := make([][]int, n)
	indeg := make([]int, n)
	opIdx := map[*ir.Op]int{}
	for i, o := range b.Ops {
		opIdx[o] = i
	}
	addEdge := func(a, c int) {
		adj[a] = append(adj[a], c)
		indeg[c]++
	}
	for _, e := range g.dfg(b).Edges {
		addEdge(opIdx[e.Src], opIdx[e.Dst])
	}
	for mi, m := range msgs {
		mn := len(b.Ops) + mi
		if di, ok := opIdx[m.def]; ok {
			addEdge(di, mn)
		}
		if m.token {
			if m.consumer.Blk == b {
				addEdge(mn, opIdx[m.consumer])
			}
			continue
		}
		// Data: readers after the def consume the fresh copy (msg -> use);
		// readers before it must finish with the old copy first
		// (use -> msg), mirroring blockBody's anti ordering. Hoisted
		// messages precede every local reader.
		defPos := -1
		if m.def.Blk == b {
			defPos = opPos(b, m.def)
		}
		for _, o := range b.Ops {
			if !g.a.On(o, m.to) {
				continue
			}
			for _, u := range o.Uses() {
				if u == m.def.Dst {
					if opPos(b, o) > defPos {
						addEdge(mn, opIdx[o])
					} else {
						addEdge(opIdx[o], mn)
					}
				}
			}
		}
	}
	// Kahn with stable tie-breaking by node index.
	order := map[*message]int{}
	var ready []int
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			ready = append(ready, i)
		}
	}
	pos := 0
	for len(ready) > 0 {
		sort.Ints(ready)
		x := ready[0]
		ready = ready[1:]
		if x >= len(b.Ops) {
			order[msgs[x-len(b.Ops)]] = pos
		}
		pos++
		for _, y := range adj[x] {
			indeg[y]--
			if indeg[y] == 0 {
				ready = append(ready, y)
			}
		}
	}
	return order
}

// checkAvailability verifies flow-insensitively that every consumed value
// has a local def or an incoming message on each consuming core.
func (g *decoupledGen) checkAvailability() error {
	avail := map[[2]int64]bool{} // (value, core)
	for v, ds := range g.defs {
		for _, d := range ds {
			for _, c := range g.parts {
				if g.a.On(d, c) {
					avail[[2]int64{int64(v), int64(c)}] = true
				}
			}
		}
	}
	for _, ms := range g.msgs {
		for _, m := range ms {
			if !m.token {
				avail[[2]int64{int64(m.def.Dst), int64(m.to)}] = true
			}
		}
	}
	for _, b := range g.r.Blocks {
		for _, o := range b.Ops {
			for _, c := range g.parts {
				if !g.a.On(o, c) {
					continue
				}
				for _, u := range o.Uses() {
					if !avail[[2]int64{int64(u), int64(c)}] {
						return fmt.Errorf("core %d: op %v uses v%d with no local copy or message", c, o, u)
					}
				}
			}
		}
		if b.Kind == ir.CondBr {
			for _, c := range g.parts {
				if !avail[[2]int64{int64(b.Cond), int64(c)}] {
					return fmt.Errorf("core %d: %v condition v%d unavailable", c, b, b.Cond)
				}
			}
		}
	}
	return nil
}

// emitCore produces one core's instruction stream and label table.
func (g *decoupledGen) emitCore(c int) ([]isa.Inst, map[int64]int) {
	var out []isa.Inst
	labels := map[int64]int{entryLabel(c): 0}
	// Prologue: master spawns workers; every participant zeroes the token
	// source register and prepares branch-target registers.
	if c == 0 {
		for _, w := range g.parts {
			if w != 0 {
				out = append(out, isa.Inst{Op: isa.SPAWN, Core: w, Imm: entryLabel(w), IROp: -1})
			}
		}
	}
	out = append(out, isa.Inst{Op: isa.MOVI, Dst: g.zeroReg, Imm: 0, IROp: -1})
	for i, b := range g.rpo {
		next := nextBlock(g.rpo, i)
		switch b.Kind {
		case ir.Jump:
			if b.Succ[0] != next {
				out = append(out, isa.Inst{Op: isa.PBR, Dst: isa.BTR(2 * b.ID), Imm: int64(b.Succ[0].ID), IROp: -1})
			}
		case ir.CondBr:
			out = append(out, isa.Inst{Op: isa.PBR, Dst: isa.BTR(2 * b.ID), Imm: int64(b.Succ[0].ID), IROp: -1})
			if b.Succ[1] != next {
				out = append(out, isa.Inst{Op: isa.PBR, Dst: isa.BTR(2*b.ID + 1), Imm: int64(b.Succ[1].ID), IROp: -1})
			}
		}
	}
	for i, b := range g.rpo {
		labels[int64(b.ID)] = len(out)
		out = append(out, g.blockBody(c, b)...)
		out = append(out, g.blockTail(c, b, nextBlock(g.rpo, i))...)
	}
	return out, labels
}

// nextBlock returns the block physically following index i in layout order.
func nextBlock(rpo []*ir.Block, i int) *ir.Block {
	if i+1 < len(rpo) {
		return rpo[i+1]
	}
	return nil
}

// blockBody builds and schedules one core's portion of a block.
func (g *decoupledGen) blockBody(c int, b *ir.Block) []isa.Inst {
	d := &dag{}
	nodeOf := map[*ir.Op]int{}
	var localOps []*ir.Op
	for _, o := range b.Ops {
		if g.a.On(o, c) {
			localOps = append(localOps, o)
		}
	}
	// Local dependence edges from the precise block DFG.
	dfg := g.dfg(b)
	for _, o := range localOps {
		var preds []dagDep
		for _, e := range dfg.Preds(o) {
			if pn, ok := nodeOf[e.Src]; ok {
				preds = append(preds, dagDep{node: pn, lat: e.Latency})
			}
		}
		nodeOf[o] = d.add(instFor(g.r, o), preds...)
	}
	// Messages of this block involving c.
	type commNode struct {
		m   *message
		idx int
	}
	var sends, recvs []commNode
	for _, m := range g.msgs[b] {
		if m.from == c {
			var preds []dagDep
			if pn, ok := nodeOf[m.def]; ok {
				lat := 1
				if !m.token {
					lat = m.def.Code.Latency()
				}
				preds = append(preds, dagDep{node: pn, lat: lat})
			}
			src := m.reg
			if m.token {
				src = g.zeroReg
			}
			idx := d.add(isa.Inst{Op: isa.SEND, Src1: src, Core: m.to, IROp: -1}, preds...)
			sends = append(sends, commNode{m, idx})
		}
		if m.to == c {
			idx := d.add(isa.Inst{Op: isa.RECV, Dst: m.reg, Core: m.from, IROp: -1})
			recvs = append(recvs, commNode{m, idx})
			if m.token {
				if sn, ok := nodeOf[m.consumer]; ok && m.consumer.Blk == b {
					d.addEdge(idx, sn, 1)
				}
			} else {
				// Order the copy update against local readers of the value:
				// uses before the def read the old copy; uses after read the
				// new one. A hoisted message (def in an earlier block)
				// precedes every local reader.
				defPos := -1
				if m.def.Blk == b {
					defPos = opPos(b, m.def)
				}
				for _, o := range localOps {
					uses := false
					for _, u := range o.Uses() {
						if u == m.def.Dst {
							uses = true
						}
					}
					if !uses {
						continue
					}
					if opPos(b, o) < defPos {
						d.addEdge(nodeOf[o], idx, 1)
					} else {
						d.addEdge(idx, nodeOf[o], 1)
					}
				}
			}
		}
	}
	// Chain every communication op on this core in the block's global
	// transfer order. This both keeps per-sender FIFOs consistent on the
	// two ends and — because the order is one global topological order of
	// the joint dependence graph — guarantees a blocking RECV never
	// precedes a SEND it transitively depends on (deadlock freedom).
	order := g.msgOrder[b]
	all := append(append([]commNode(nil), sends...), recvs...)
	sort.Slice(all, func(i, j int) bool {
		oi, oj := order[all[i].m], order[all[j].m]
		if oi != oj {
			return oi < oj
		}
		return all[i].m.seq < all[j].m.seq
	})
	for i := 1; i < len(all); i++ {
		d.addEdge(all[i-1].idx, all[i].idx, 1)
	}
	return d.schedule()
}

// opPos returns the index of o within its block.
func opPos(b *ir.Block, o *ir.Op) int {
	for i, x := range b.Ops {
		if x == o {
			return i
		}
	}
	return len(b.Ops)
}

// blockTail emits the replicated branch sequence (or thread end). Branches
// to the physically next block fall through (no instruction at all for an
// unconditional jump; only the taken BR for a conditional whose
// fall-through target is next in layout).
func (g *decoupledGen) blockTail(c int, b, next *ir.Block) []isa.Inst {
	switch b.Kind {
	case ir.Jump:
		if b.Succ[0] == next {
			return nil
		}
		return []isa.Inst{{Op: isa.BR, Src1: isa.BTR(2 * b.ID), IROp: -1}}
	case ir.CondBr:
		taken := isa.Inst{Op: isa.BR, Src1: isa.BTR(2 * b.ID), Src2: regOf(g.r, b.Cond), IROp: -1}
		if b.Succ[1] == next {
			return []isa.Inst{taken}
		}
		return []isa.Inst{taken, {Op: isa.BR, Src1: isa.BTR(2*b.ID + 1), IROp: -1}}
	default: // Exit
		if c == 0 {
			return []isa.Inst{{Op: isa.HALT, IROp: -1}}
		}
		return []isa.Inst{{Op: isa.SLEEP, IROp: -1}}
	}
}
