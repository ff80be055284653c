package ir

import "voltron/internal/isa"

// Loop describes one natural loop found in a region.
type Loop struct {
	Header *Block
	// Latches are the blocks with a back edge to the header.
	Latches []*Block
	// Blocks is the loop body (including the header), keyed by block id.
	Blocks map[int]bool
	// Exits are the blocks outside the loop that loop blocks branch to.
	Exits []*Block
	// Parent is the innermost enclosing loop, if any.
	Parent *Loop
	// Induction describes the canonical counter when detected.
	Induction *InductionVar
	// Reductions lists detected accumulator recurrences.
	Reductions []*Reduction
}

// InductionVar describes a canonical counter: a value updated exactly once
// per iteration as v = v + Step (constant step) and tested in the header
// against a loop-invariant bound.
type InductionVar struct {
	Val  Value
	Step int64
	// Update is the op performing the increment.
	Update *Op
	// InitOp is the op initializing the counter before the loop (a MOVI in
	// a block dominating the header outside the loop), if found.
	InitOp *Op
	// CmpOp is the header comparison controlling loop exit.
	CmpOp *Op
	// Limit is the loop-invariant bound value (NoValue if the bound is the
	// comparison's immediate).
	Limit Value
	// LimitImm holds the bound when it is an immediate.
	LimitImm int64
	// ExitOnFalse reports whether the loop continues while CmpOp is true
	// (the canonical while (i < n) shape).
	ExitOnFalse bool
}

// Reduction describes an accumulator recurrence acc = acc OP x where acc is
// not otherwise redefined in the loop; such recurrences are eliminated by
// accumulator expansion when parallelizing DOALL loops.
type Reduction struct {
	Acc  Value
	Op   *Op
	Kind isa.Opcode // ADD, FADD, MUL or FMUL
}

// Loops finds all natural loops in the region, with nesting. Loops sharing
// a header are merged (multiple latches).
func (r *Region) Loops() []*Loop {
	dom := r.Dominators()
	byHeader := map[int]*Loop{}
	var loops []*Loop
	for _, b := range r.Blocks {
		for _, s := range b.Succs() {
			if dom.rpoNum[s.ID] >= 0 && dom.rpoNum[b.ID] >= 0 && dom.Dominates(s, b) {
				// back edge b -> s
				l := byHeader[s.ID]
				if l == nil {
					l = &Loop{Header: s, Blocks: map[int]bool{s.ID: true}}
					byHeader[s.ID] = l
					loops = append(loops, l)
				}
				l.Latches = append(l.Latches, b)
				// Natural loop: all blocks that reach the latch without
				// passing through the header.
				stack := []*Block{b}
				for len(stack) > 0 {
					n := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					if l.Blocks[n.ID] {
						continue
					}
					l.Blocks[n.ID] = true
					for _, p := range n.Preds {
						if !l.Blocks[p.ID] {
							stack = append(stack, p)
						}
					}
				}
			}
		}
	}
	// Exits and nesting.
	for _, l := range loops {
		seen := map[int]bool{}
		for id := range l.Blocks {
			for _, s := range r.Blocks[id].Succs() {
				if !l.Blocks[s.ID] && !seen[s.ID] {
					seen[s.ID] = true
					l.Exits = append(l.Exits, s)
				}
			}
		}
	}
	for _, l := range loops {
		// Parent: the smallest other loop strictly containing this header.
		for _, m := range loops {
			if m == l || !m.Blocks[l.Header.ID] || len(m.Blocks) <= len(l.Blocks) {
				continue
			}
			if l.Parent == nil || len(m.Blocks) < len(l.Parent.Blocks) {
				l.Parent = m
			}
		}
	}
	for _, l := range loops {
		r.detectInduction(l, dom)
		r.detectReductions(l)
	}
	return loops
}

// defsOf returns all ops in the region defining v.
func (r *Region) defsOf(v Value) []*Op {
	var ds []*Op
	for _, b := range r.Blocks {
		for _, o := range b.Ops {
			if o.Dst == v {
				ds = append(ds, o)
			}
		}
	}
	return ds
}

// loopInvariant reports whether v has no defs inside the loop.
func (r *Region) loopInvariant(l *Loop, v Value) bool {
	for _, d := range r.defsOf(v) {
		if l.Blocks[d.Blk.ID] {
			return false
		}
	}
	return true
}

// detectInduction looks for the canonical counter pattern: exactly one def
// of v inside the loop, of the form v = ADD v, #step, in a block that
// dominates all latches; the header terminator is a CondBr on a comparison
// of v against a loop-invariant bound.
func (r *Region) detectInduction(l *Loop, dom *DomTree) {
	h := l.Header
	if h.Kind != CondBr || h.Cond == NoValue {
		return
	}
	// Find the comparison defining the header condition, inside the loop.
	var cmp *Op
	for _, d := range r.defsOf(h.Cond) {
		if l.Blocks[d.Blk.ID] {
			if cmp != nil {
				return // multiple defs; not canonical
			}
			cmp = d
		}
	}
	if cmp == nil || !cmp.Code.IsCompare() {
		return
	}
	// The counter is the compared value with an in-loop increment.
	tryCounter := func(v Value) *InductionVar {
		if v == NoValue {
			return nil
		}
		var upd *Op
		for _, d := range r.defsOf(v) {
			if !l.Blocks[d.Blk.ID] {
				continue
			}
			if d == cmp {
				continue
			}
			if upd != nil {
				return nil
			}
			upd = d
		}
		if upd == nil || upd.Code != isa.ADD && upd.Code != isa.SUB {
			return nil
		}
		if upd.Args[0] != v || upd.Args[1] != NoValue {
			return nil
		}
		// The update must run exactly once per iteration: its block must
		// dominate every latch.
		for _, latch := range l.Latches {
			if !dom.Dominates(upd.Blk, latch) {
				return nil
			}
		}
		step := upd.Imm
		if upd.Code == isa.SUB {
			step = -step
		}
		iv := &InductionVar{Val: v, Step: step, Update: upd, CmpOp: cmp}
		// Bound: the other comparison operand, loop-invariant, or immediate.
		if cmp.Args[0] == v {
			if cmp.Args[1] == NoValue {
				iv.LimitImm = cmp.Imm
			} else if r.loopInvariant(l, cmp.Args[1]) {
				iv.Limit = cmp.Args[1]
			} else {
				return nil
			}
		} else if cmp.Args[1] == v && r.loopInvariant(l, cmp.Args[0]) {
			iv.Limit = cmp.Args[0]
		} else {
			return nil
		}
		// Taken successor inside the loop means "continue while true".
		iv.ExitOnFalse = l.Blocks[h.Succ[0].ID]
		// Initial value: a MOVI def outside the loop.
		for _, d := range r.defsOf(v) {
			if !l.Blocks[d.Blk.ID] && d.Code == isa.MOVI {
				iv.InitOp = d
			}
		}
		return iv
	}
	if iv := tryCounter(cmp.Args[0]); iv != nil {
		l.Induction = iv
		return
	}
	if iv := tryCounter(cmp.Args[1]); iv != nil {
		l.Induction = iv
	}
}

// detectReductions finds accumulator recurrences acc = acc OP x (OP in
// {ADD, FADD, FMUL, MUL}) where acc has exactly one in-loop def and x is not
// acc itself.
func (r *Region) detectReductions(l *Loop) {
	for id := range l.Blocks {
		for _, o := range r.Blocks[id].Ops {
			switch o.Code {
			case isa.ADD, isa.FADD, isa.MUL, isa.FMUL:
			default:
				continue
			}
			if o.Dst == NoValue || o.Args[0] != o.Dst || o.Args[1] == o.Dst {
				continue
			}
			if l.Induction != nil && o == l.Induction.Update {
				continue
			}
			// Exactly one def inside the loop, and acc is not read by any
			// other in-loop op (a true reduction: only the recurrence).
			single := true
			for _, d := range r.defsOf(o.Dst) {
				if d != o && l.Blocks[d.Blk.ID] {
					single = false
				}
			}
			if !single {
				continue
			}
			usedElsewhere := false
			for bid := range l.Blocks {
				for _, u := range r.Blocks[bid].Ops {
					if u == o {
						continue
					}
					for _, a := range u.Uses() {
						if a == o.Dst {
							usedElsewhere = true
						}
					}
				}
				if r.Blocks[bid].Kind == CondBr && r.Blocks[bid].Cond == o.Dst {
					usedElsewhere = true
				}
			}
			if usedElsewhere {
				continue
			}
			l.Reductions = append(l.Reductions, &Reduction{Acc: o.Dst, Op: o, Kind: o.Code})
		}
	}
}
