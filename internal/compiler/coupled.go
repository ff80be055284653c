package compiler

import (
	"fmt"

	"voltron/internal/core"
	"voltron/internal/ir"
	"voltron/internal/isa"
	"voltron/internal/prof"
	"voltron/internal/xnet"
)

// Coupled-mode code generation: the region is scheduled as a distributed
// VLIW (paper §3.2). All cores execute in lock-step; every block's schedule
// has identical length on every core (NOP padded); register values move
// over the direct-mode network as same-cycle PUT/GET pairs routed by the
// compiler (multi-hop transfers become PUT/GET chains through intermediate
// cores); branches are unbundled and replicated: PBR targets are prepared
// per core in the entry prologue, the branch condition is computed on its
// owner core and BCAST to the rest, and the BR issues in the same cycle
// everywhere.

// genCoupledCandidate builds the best coupled lowering of a region: the
// hot loop is unrolled (by the core count when the trip count divides it,
// else by 2) to expose cross-iteration ILP, then BUG partitions and the
// lock-step scheduler emits code.
func genCoupledCandidate(r *ir.Region, opts Options) (*core.CompiledRegion, *ir.Region, *prof.Profile, error) {
	target, pr := r, opts.Profile
	for _, factor := range []int{opts.Cores, 2} {
		if u, upr, ok := unrollForILP(r, opts.Profile, factor); ok {
			target, pr = u, upr
			break
		}
	}
	uopts := opts
	uopts.Profile = pr
	a := BUG(target, uopts)
	cr, err := GenCoupled(target, a, opts.Cores)
	if err != nil {
		return nil, nil, nil, err
	}
	return cr, target, pr, nil
}

// slotGrid is the per-core reservation table of one block's schedule.
type slotGrid struct {
	width int
	insts [][]isa.Inst
	busy  [][]bool
}

func newSlotGrid(width int) *slotGrid {
	return &slotGrid{
		width: width,
		insts: make([][]isa.Inst, width),
		busy:  make([][]bool, width),
	}
}

func (g *slotGrid) ensure(core, cycle int) {
	for len(g.insts[core]) <= cycle {
		g.insts[core] = append(g.insts[core], isa.Nop())
		g.busy[core] = append(g.busy[core], false)
	}
}

func (g *slotGrid) free(core, cycle int) bool {
	g.ensure(core, cycle)
	return !g.busy[core][cycle]
}

func (g *slotGrid) place(core, cycle int, in isa.Inst) {
	g.ensure(core, cycle)
	if g.busy[core][cycle] {
		panic(fmt.Sprintf("slot core=%d cycle=%d double-booked", core, cycle))
	}
	g.insts[core][cycle] = in
	g.busy[core][cycle] = true
}

// findFree returns the first free cycle on core at or after from.
func (g *slotGrid) findFree(core, from int) int {
	for c := from; ; c++ {
		if g.free(core, c) {
			return c
		}
	}
}

// end returns the first cycle after all booked slots.
func (g *slotGrid) end() int {
	e := 0
	for c := 0; c < g.width; c++ {
		for i := len(g.busy[c]) - 1; i >= 0; i-- {
			if g.busy[c][i] {
				if i+1 > e {
					e = i + 1
				}
				break
			}
		}
	}
	return e
}

// pad extends every core's row to length n.
func (g *slotGrid) pad(n int) {
	for c := 0; c < g.width; c++ {
		g.ensure(c, n-1)
		g.insts[c] = g.insts[c][:n]
	}
}

// coupledGen carries one region's coupled lowering.
type coupledGen struct {
	r     *ir.Region
	a     *Assignment
	width int
	top   xnet.Topology
	defs  map[ir.Value][]*ir.Op
	rpo   []*ir.Block
	// ctx is the lowering's one straight-line affine context, shared by
	// every block's DFG.
	ctx *ir.AffineCtx
	// needOn[v][c]: core c consumes v as a regular operand.
	needOn map[ir.Value]map[int]bool
}

// fallsTo reports whether block b's edge to target falls through in layout.
func (g *coupledGen) fallsTo(b, target *ir.Block) bool {
	for i, x := range g.rpo {
		if x == b {
			return nextBlock(g.rpo, i) == target
		}
	}
	return false
}

// GenCoupled lowers a region for coupled (lock-step DVLIW) execution.
func GenCoupled(r *ir.Region, a *Assignment, width int) (*core.CompiledRegion, error) {
	if width > 4 {
		return nil, fmt.Errorf("coupled groups are limited to 4 cores (paper §3.2), got %d", width)
	}
	a = sanitize(r, a)
	// Collapse any inherited replicas to primaries, then replicate the
	// control slice to every core when it is cheap and load-free: each
	// core then computes branch conditions locally (Figure 5(c)) instead
	// of receiving them over the BCAST/GET distribution.
	a.dropReplicas()
	if width > 1 {
		if slice := controlSliceOps(r, 24); slice != nil {
			for _, o := range slice {
				for c := 0; c < width; c++ {
					a.Replicate(o, c)
				}
			}
		}
	}
	g := &coupledGen{
		r: r, a: a, width: width,
		top:    xnet.TopologyFor(width),
		ctx:    r.NewAffineCtx(nil),
		defs:   map[ir.Value][]*ir.Op{},
		needOn: map[ir.Value]map[int]bool{},
	}
	for _, o := range r.AllOps() {
		if o.Dst != ir.NoValue {
			g.defs[o.Dst] = append(g.defs[o.Dst], o)
		}
	}
	var sites []int
	for _, o := range r.AllOps() {
		sites = a.AppendSites(sites[:0], o)
		for _, c := range sites {
			for _, u := range o.Uses() {
				if g.needOn[u] == nil {
					g.needOn[u] = map[int]bool{}
				}
				g.needOn[u][c] = true
			}
		}
	}
	cr := &core.CompiledRegion{
		Name:       r.Name,
		Mode:       core.Coupled,
		Code:       make([][]isa.Inst, width),
		Labels:     make([]map[int64]int, width),
		Entry:      make([]int, width),
		StartAwake: make([]bool, width),
	}
	for c := 0; c < width; c++ {
		cr.Labels[c] = map[int64]int{}
		cr.StartAwake[c] = true
	}
	rpo := r.ReversePostorder()
	g.rpo = rpo
	for i, b := range rpo {
		grid, err := g.scheduleBlock(b, nextBlock(rpo, i))
		if err != nil {
			return nil, err
		}
		for c := 0; c < width; c++ {
			cr.Labels[c][int64(b.ID)] = len(cr.Code[c])
			cr.Code[c] = append(cr.Code[c], grid.insts[c]...)
		}
	}
	return cr, nil
}

// scheduleBlock jointly schedules one block across all cores.
func (g *coupledGen) scheduleBlock(b, next *ir.Block) (*slotGrid, error) {
	grid := newSlotGrid(g.width)
	start := 0
	// The entry block leads with the branch-target prologue on every core.
	if b == g.r.Entry {
		cycle := 0
		for _, blk := range g.r.Blocks {
			switch blk.Kind {
			case ir.Jump:
				if g.fallsTo(blk, blk.Succ[0]) {
					continue
				}
				for c := 0; c < g.width; c++ {
					grid.place(c, cycle, isa.Inst{Op: isa.PBR, Dst: isa.BTR(2 * blk.ID), Imm: int64(blk.Succ[0].ID), IROp: -1})
				}
				cycle++
			case ir.CondBr:
				for c := 0; c < g.width; c++ {
					grid.place(c, cycle, isa.Inst{Op: isa.PBR, Dst: isa.BTR(2 * blk.ID), Imm: int64(blk.Succ[0].ID), IROp: -1})
				}
				cycle++
				if !g.fallsTo(blk, blk.Succ[1]) {
					for c := 0; c < g.width; c++ {
						grid.place(c, cycle, isa.Inst{Op: isa.PBR, Dst: isa.BTR(2*blk.ID + 1), Imm: int64(blk.Succ[1].ID), IROp: -1})
					}
					cycle++
				}
			}
		}
		start = cycle
	}
	dfg := g.r.BuildBlockDFG(b, g.ctx)
	// sched holds each placed op copy's issue cycle per executing core.
	sched := map[*ir.Op]map[int]int{}
	readyOn := map[ir.Value]map[int]int{} // cycle v becomes usable per core
	ready := func(v ir.Value, c int) int {
		if m := readyOn[v]; m != nil {
			if t, ok := m[c]; ok {
				return t
			}
		}
		return start // values from earlier blocks are in the file
	}
	setReady := func(v ir.Value, c, t int) {
		if readyOn[v] == nil {
			readyOn[v] = map[int]int{}
		}
		readyOn[v][c] = t
	}
	schedMax := func(o *ir.Op) int {
		m := 0
		for _, t := range sched[o] {
			if t > m {
				m = t
			}
		}
		return m
	}
	var execCores []int
	for _, o := range b.Ops {
		execCores = g.a.AppendSites(execCores[:0], o)
		if len(execCores) == 0 {
			execCores = append(execCores, 0)
		}
		sched[o] = map[int]int{}
		for _, c := range execCores {
			earliest := start
			for _, e := range dfg.Preds(o) {
				var t int
				switch {
				case e.Kind == ir.DepFlow:
					if sc, local := sched[e.Src][c]; local {
						t = sc + e.Latency
					} else {
						// Arrives via the routed transfer pushed at the def.
						t = ready(e.Src.Dst, c)
					}
				default:
					// anti/output/mem ordering: a cycle after the latest
					// copy anywhere (lock-step makes cross-core cycle
					// numbers comparable).
					t = schedMax(e.Src) + 1
				}
				if t > earliest {
					earliest = t
				}
			}
			for _, u := range o.Uses() {
				if t := ready(u, c); t > earliest {
					earliest = t
				}
			}
			cycle := grid.findFree(c, earliest)
			grid.place(c, cycle, instFor(g.r, o))
			sched[o][c] = cycle
			if o.Dst != ir.NoValue {
				setReady(o.Dst, c, cycle+o.Code.Latency())
			}
		}
		if o.Dst != ir.NoValue {
			// Push the fresh value from the primary to consuming cores
			// that neither execute this op nor will recompute it.
			c := g.a.Primary(o)
			// Iterate consumers in core order: transfer routing books
			// network slots first-come-first-served, so the emitted code
			// must not depend on map iteration order.
			for t := 0; t < g.width; t++ {
				if !g.needOn[o.Dst][t] || g.a.On(o, t) {
					continue
				}
				arr, err := g.routeTransfer(grid, c, t, regOf(g.r, o.Dst), sched[o][c]+o.Code.Latency())
				if err != nil {
					return nil, err
				}
				setReady(o.Dst, t, arr)
			}
		}
	}
	return grid, g.appendTail(grid, b, next, readyOn)
}

// routeTransfer schedules a PUT/GET chain moving reg from core a to core b,
// starting no earlier than cycle `from`; returns the cycle the value is
// usable on b.
func (g *coupledGen) routeTransfer(grid *slotGrid, a, b int, reg isa.Reg, from int) (int, error) {
	route := g.top.Route(a, b)
	if len(route) == 0 {
		return from, nil
	}
	// Find t0 such that every hop's sender and receiver slot is free:
	// hop j uses (sender slot t0+j, receiver slot t0+j).
	cores := make([]int, len(route)+1)
	cores[0] = a
	for j, dir := range route {
		cores[j+1] = g.top.Neighbor(cores[j], dir)
		if cores[j+1] < 0 {
			return 0, fmt.Errorf("route off mesh from core %d", a)
		}
	}
	t0 := from
search:
	for {
		for j := range route {
			if !grid.free(cores[j], t0+j) || !grid.free(cores[j+1], t0+j) {
				t0++
				continue search
			}
		}
		break
	}
	for j, dir := range route {
		grid.place(cores[j], t0+j, isa.Inst{Op: isa.PUT, Src1: reg, Dir: dir, IROp: -1})
		grid.place(cores[j+1], t0+j, isa.Inst{Op: isa.GETOP, Dst: reg, Dir: dir.Opposite(), IROp: -1})
	}
	return t0 + len(route), nil
}

// appendTail emits the uniform block ending: condition distribution (BCAST
// plus GETs, with one forward hop for the diagonal core on a 2×2 mesh),
// then the replicated BR pair, or HALT for region exits.
func (g *coupledGen) appendTail(grid *slotGrid, b, next *ir.Block, readyOn map[ir.Value]map[int]int) error {
	L := grid.end()
	switch b.Kind {
	case ir.Exit:
		for c := 0; c < g.width; c++ {
			grid.place(c, L, isa.Inst{Op: isa.HALT, IROp: -1})
		}
		grid.pad(L + 1)
		return nil
	case ir.Jump:
		if b.Succ[0] == next {
			grid.pad(L) // fall through
			return nil
		}
		for c := 0; c < g.width; c++ {
			grid.place(c, L, isa.Inst{Op: isa.BR, Src1: isa.BTR(2 * b.ID), IROp: -1})
		}
		grid.pad(L + 1)
		return nil
	}
	// CondBr: find the condition's owner and its readiness there.
	cond := b.Cond
	owner := 0
	replicatedEverywhere := g.width > 1
	for _, d := range g.defs[cond] {
		owner = g.a.Primary(d)
		for c := 0; c < g.width; c++ {
			if !g.a.On(d, c) {
				replicatedEverywhere = false
			}
		}
	}
	if m := readyOn[cond]; m != nil {
		for _, t := range m {
			if t > L {
				L = t
			}
		}
	}
	dist := 0
	reg := regOf(g.r, cond)
	if g.width > 1 && !replicatedEverywhere {
		// Cycle L: owner broadcasts; all 1-hop cores GET.
		grid.ensure(owner, L)
		if !grid.free(owner, L) {
			L = grid.findFree(owner, L)
		}
		grid.place(owner, L, isa.Inst{Op: isa.BCAST, Src1: reg, IROp: -1})
		dist = 1
		var far []int
		for c := 0; c < g.width; c++ {
			if c == owner {
				continue
			}
			switch g.top.Hops(owner, c) {
			case 1:
				grid.place(c, L, isa.Inst{Op: isa.GETOP, Dst: reg, Dir: dirTo(g.top, c, owner), IROp: -1})
			default:
				far = append(far, c)
			}
		}
		// Forward to 2-hop cores (the diagonal on a 2×2 mesh).
		for _, c := range far {
			route := g.top.Route(owner, c)
			if len(route) != 2 {
				return fmt.Errorf("coupled tail: core %d is %d hops from owner", c, len(route))
			}
			fwd := g.top.Neighbor(owner, route[0])
			grid.place(fwd, L+1, isa.Inst{Op: isa.PUT, Src1: reg, Dir: route[1], IROp: -1})
			grid.place(c, L+1, isa.Inst{Op: isa.GETOP, Dst: reg, Dir: route[1].Opposite(), IROp: -1})
			dist = 2
		}
	}
	for c := 0; c < g.width; c++ {
		grid.place(c, L+dist, isa.Inst{Op: isa.BR, Src1: isa.BTR(2 * b.ID), Src2: reg, IROp: -1})
	}
	if b.Succ[1] == next {
		grid.pad(L + dist + 1) // not-taken falls through
		return nil
	}
	for c := 0; c < g.width; c++ {
		grid.place(c, L+dist+1, isa.Inst{Op: isa.BR, Src1: isa.BTR(2*b.ID + 1), IROp: -1})
	}
	grid.pad(L + dist + 2)
	return nil
}

// dirTo returns the direction from core a toward adjacent core b.
func dirTo(t xnet.Topology, a, b int) isa.Direction {
	for _, d := range []isa.Direction{isa.East, isa.West, isa.North, isa.South} {
		if t.Neighbor(a, d) == b {
			return d
		}
	}
	panic("dirTo: cores not adjacent")
}
