package compiler

import (
	"fmt"
	"maps"
	"slices"

	"voltron/internal/core"
	"voltron/internal/ir"
	"voltron/internal/isa"
)

// Statistical DOALL parallelization (paper §3, §4.1): a loop whose
// profiling showed no cross-iteration memory dependence is chunked across
// cores and executed speculatively under the transactional memory.
// Induction variables are replicated per core (each chunk carries its own
// patched counter bounds; workers past the first are copies of the first
// worker's chunk with the bounds and core number patched), accumulator
// recurrences are expanded into per-core partial accumulators combined by
// the master after the commit barrier, and a serial fallback stream
// re-executes the region if the speculation was wrong.

// doallInfo captures an eligible loop.
type doallInfo struct {
	loop  *ir.Loop
	iv    *ir.InductionVar
	total int64 // iteration count
	// pre are the blocks before the loop (they dominate the header);
	// exits are the blocks after it. Both exclude loop blocks.
	pre, exits map[int]bool
	exitBlock  *ir.Block // the single loop exit target
}

// findDOALL checks region shape and dependence eligibility.
func findDOALL(r *ir.Region, opts Options) (*doallInfo, error) {
	var outer []*ir.Loop
	loops := r.Loops()
	for _, l := range loops {
		if l.Parent == nil {
			outer = append(outer, l)
		}
	}
	if len(outer) != 1 {
		return nil, fmt.Errorf("region has %d outermost loops", len(outer))
	}
	l := outer[0]
	if len(loops) != 1 {
		return nil, fmt.Errorf("nested loops not chunked (outermost-first policy applies per region)")
	}
	iv := l.Induction
	if iv == nil {
		return nil, fmt.Errorf("no canonical induction variable")
	}
	if iv.Limit != ir.NoValue || iv.InitOp == nil || iv.Step <= 0 || !iv.ExitOnFalse {
		return nil, fmt.Errorf("induction shape not chunkable (needs immediate limit, init, positive step)")
	}
	if iv.CmpOp.Code != isa.CMPLT || iv.CmpOp.Args[0] != iv.Val {
		return nil, fmt.Errorf("loop bound comparison not canonical")
	}
	total := (iv.LimitImm - iv.InitOp.Imm + iv.Step - 1) / iv.Step
	if total < 1 {
		return nil, fmt.Errorf("empty loop")
	}
	// Trip-count threshold (profiled when available, else static).
	trip := float64(total)
	if opts.Profile != nil {
		if t, ok := opts.Profile.TripCount[l.Header]; ok {
			trip = t
		}
	}
	if trip < opts.DOALLTripThreshold {
		return nil, fmt.Errorf("trip count %.0f below threshold %.0f", trip, opts.DOALLTripThreshold)
	}
	// Memory: no observed cross-iteration dependence (statistical DOALL);
	// without a profile fall back to the static affine test.
	if opts.Profile != nil {
		if opts.Profile.CarriedDep[l.Header] {
			return nil, fmt.Errorf("profiled cross-iteration memory dependence")
		}
	} else if staticCarried(r, l) {
		return nil, fmt.Errorf("static cross-iteration memory dependence")
	}
	// Registers: cross-iteration recurrences must be the induction variable
	// or a recognized reduction.
	okVals := map[ir.Value]bool{iv.Val: true}
	for _, red := range l.Reductions {
		okVals[red.Acc] = true
	}
	dom := r.Dominators()
	for id := range l.Blocks {
		for _, o := range r.Blocks[id].Ops {
			if o.Dst == ir.NoValue || okVals[o.Dst] {
				continue
			}
			// A use not dominated by this def may read the previous
			// iteration's value: a disqualifying recurrence.
			for uid := range l.Blocks {
				ub := r.Blocks[uid]
				for pos, u := range ub.Ops {
					reads := false
					for _, x := range u.Uses() {
						if x == o.Dst {
							reads = true
						}
					}
					if !reads {
						continue
					}
					if !defDominatesUse(dom, o, u, pos) {
						return nil, fmt.Errorf("register recurrence on v%d", o.Dst)
					}
				}
				if ub.Kind == ir.CondBr && ub.Cond == o.Dst && !dom.Dominates(o.Blk, ub) {
					return nil, fmt.Errorf("register recurrence on branch condition v%d", o.Dst)
				}
			}
		}
	}
	info := &doallInfo{loop: l, iv: iv, total: total, pre: map[int]bool{}, exits: map[int]bool{}}
	if len(l.Exits) != 1 {
		return nil, fmt.Errorf("loop has %d exits", len(l.Exits))
	}
	info.exitBlock = l.Exits[0]
	for _, b := range r.Blocks {
		if l.Blocks[b.ID] {
			continue
		}
		if dom.Dominates(b, l.Header) {
			info.pre[b.ID] = true
		} else {
			info.exits[b.ID] = true
		}
	}
	// The pre part must flow straight into the loop (no branching around).
	for id := range info.pre {
		b := r.Blocks[id]
		if b.Kind != ir.Jump {
			return nil, fmt.Errorf("preheader block %v does not jump straight to the loop", b)
		}
	}
	return info, nil
}

func defDominatesUse(dom *ir.DomTree, def, use *ir.Op, usePos int) bool {
	if def.Blk == use.Blk {
		return opPos(def.Blk, def) < usePos
	}
	return dom.Dominates(def.Blk, use.Blk)
}

// staticCarried reports whether the affine analysis finds any possible
// cross-iteration memory dependence in the loop.
func staticCarried(r *ir.Region, l *ir.Loop) bool {
	var memOps []*ir.Op
	for id := range l.Blocks {
		for _, o := range r.Blocks[id].Ops {
			if o.Code.IsMemory() {
				memOps = append(memOps, o)
			}
		}
	}
	if len(memOps) < 2 {
		return false
	}
	ctx := r.NewAffineCtx(l)
	for i, a := range memOps {
		for _, b := range memOps[i+1:] {
			switch r.MemDep(a, b, l, ctx) {
			case ir.MemCarriedDep, ir.MemBothDep:
				return true
			}
		}
	}
	return false
}

// tryDOALL compiles the region as a chunked speculative DOALL if eligible.
func tryDOALL(r *ir.Region, opts Options) (*core.CompiledRegion, bool, error) {
	info, err := findDOALL(r, opts)
	if err != nil {
		return nil, false, nil // not eligible; caller picks another strategy
	}
	n := int64(opts.Cores)
	chunk := (info.total + n - 1) / n
	width := opts.Cores
	cr := &core.CompiledRegion{
		Name:       r.Name,
		Mode:       core.DOALL,
		Code:       make([][]isa.Inst, width),
		Labels:     make([]map[int64]int, width),
		Entry:      make([]int, width),
		StartAwake: make([]bool, width),
		TxCores:    width,
	}
	cr.StartAwake[0] = true
	scratchBase := r.NumValues() + 8
	for c := 0; c < width; c++ {
		lo, hi := info.chunkBounds(c, chunk)
		var (
			code   []isa.Inst
			labels map[int64]int
		)
		if c <= 1 {
			// The master and the first worker are generated; every later
			// worker is the first one with its bounds and core patched.
			code, labels, err = genChunk(r, info, c, lo, hi, width, scratchBase)
		} else {
			code, labels, err = patchWorker(cr.Code[1], cr.Labels[1], info, c, lo, hi)
		}
		if err != nil {
			return nil, false, err
		}
		cr.Code[c] = code
		cr.Labels[c] = labels
	}
	// Serial fallback: the untouched region on one core.
	fb, err := genSerial(r, 1)
	if err != nil {
		return nil, false, err
	}
	cr.Fallback = fb.Code[0]
	cr.FallbackLabels = fb.Labels[0]
	return cr, true, nil
}

// chunkBounds returns core c's iteration bounds [lo, hi) for chunks of
// chunk iterations, clamped to the loop limit.
func (info *doallInfo) chunkBounds(c int, chunk int64) (lo, hi int64) {
	iv := info.iv
	lo = iv.InitOp.Imm + int64(c)*chunk*iv.Step
	hi = iv.InitOp.Imm + int64(c+1)*chunk*iv.Step
	if hi > iv.LimitImm {
		hi = iv.LimitImm
	}
	if lo > hi {
		lo = hi
	}
	return lo, hi
}

// patchWorker derives worker c's chunk from worker 1's. Workers differ
// only in three immediates — the induction variable's initial value (lo),
// the loop bound (hi) and TXBEGIN's core — and in the entry label SPAWN
// targets, so the copy patches exactly those. Each patched instruction
// must occur exactly once in the template.
func patchWorker(tmpl []isa.Inst, tmplLabels map[int64]int, info *doallInfo, c int, lo, hi int64) ([]isa.Inst, map[int64]int, error) {
	code := slices.Clone(tmpl)
	var nInit, nCmp, nTx int
	for i := range code {
		in := &code[i]
		switch {
		case in.Op == isa.TXBEGIN:
			in.Imm = int64(c)
			nTx++
		case in.IROp == info.iv.InitOp.ID:
			in.Imm = lo
			nInit++
		case in.IROp == info.iv.CmpOp.ID:
			in.Imm = hi
			nCmp++
		}
	}
	if nInit != 1 || nCmp != 1 || nTx != 1 {
		return nil, nil, fmt.Errorf("DOALL worker template: %d induction inits, %d bound compares, %d TXBEGINs (want one each)",
			nInit, nCmp, nTx)
	}
	labels := maps.Clone(tmplLabels)
	delete(labels, entryLabel(1))
	labels[entryLabel(c)] = 0
	return code, labels, nil
}

// genChunk produces one core's chunk code: patched clone of the region,
// compiled single-core, with transactional framing and reduction
// send/combine sequences spliced in.
func genChunk(r *ir.Region, info *doallInfo, c int, lo, hi int64, width int, scratchBase int) ([]isa.Inst, map[int64]int, error) {
	clone, opMap := r.Clone()
	iv := info.iv
	opMap[iv.InitOp].Imm = lo
	opMap[iv.CmpOp].Imm = hi
	isMaster := c == 0
	if !isMaster {
		// Workers: drop prologue stores, blank the exit blocks, and start
		// accumulators at the reduction identity.
		for id := range info.pre {
			b := clone.Blocks[id]
			var drop []*ir.Op
			for _, o := range b.Ops {
				if o.Code.IsStore() {
					drop = append(drop, o)
				}
			}
			for _, o := range drop {
				b.RemoveOp(o)
			}
		}
		// Workers do not run the post-loop code: every exit-side block
		// becomes an empty region exit (the thread just goes to sleep).
		for id := range info.exits {
			eb := clone.Blocks[id]
			eb.Ops = nil
			eb.ExitRegion()
			eb.Cond = ir.NoValue
		}
		clone.Seal()
		for _, red := range info.loop.Reductions {
			init := findInit(r, info, red.Acc)
			if init == nil {
				return nil, nil, fmt.Errorf("reduction v%d has no prologue init", red.Acc)
			}
			no := opMap[init]
			switch red.Kind {
			case isa.ADD:
				no.Code, no.Imm, no.Args = isa.MOVI, 0, [2]ir.Value{}
			case isa.FADD:
				no.Code, no.F, no.Args = isa.FMOVI, 0, [2]ir.Value{}
			case isa.MUL:
				no.Code, no.Imm, no.Args = isa.MOVI, 1, [2]ir.Value{}
			case isa.FMUL:
				no.Code, no.F, no.Args = isa.FMOVI, 1, [2]ir.Value{}
			}
		}
	}
	crc, err := GenDecoupled(clone, uniform(clone, 0), 1)
	if err != nil {
		return nil, nil, err
	}
	code, labels := crc.Code[0], crc.Labels[0]
	// Splice TXBEGIN into the preheader just before its jump into the loop
	// (the header itself is a branch target re-entered every iteration, so
	// the transaction start cannot live there), and TXCOMMIT (plus
	// reduction traffic) at the loop exit target.
	var preheader *ir.Block
	for id := range info.pre {
		b := r.Blocks[id]
		if b.Succ[0] == info.loop.Header {
			preheader = b
		}
	}
	if preheader == nil {
		return nil, nil, fmt.Errorf("no preheader jumping to the loop header")
	}
	// Place TXBEGIN at the very end of the preheader's emission: before
	// its trailing BR when it has one, or (fall-through layout) right at
	// the header label, shifting the label past it so back edges skip it.
	hdrIdx := labels[int64(info.loop.Header.ID)]
	if hdrIdx > 0 && code[hdrIdx-1].Op == isa.BR {
		code, labels = insertAt(code, labels, hdrIdx-1,
			[]isa.Inst{{Op: isa.TXBEGIN, Imm: int64(c), IROp: -1}})
	} else {
		code, labels = insertAt(code, labels, hdrIdx,
			[]isa.Inst{{Op: isa.TXBEGIN, Imm: int64(c), IROp: -1}})
	}
	var post []isa.Inst
	post = append(post, isa.Inst{Op: isa.TXCOMMIT, IROp: -1})
	for ri, red := range info.loop.Reductions {
		acc := regOf(r, red.Acc)
		if isMaster {
			for w := 1; w < width; w++ {
				scratch := isa.Reg{Class: acc.Class, Index: scratchBase + ri}
				post = append(post, isa.Inst{Op: isa.RECV, Dst: scratch, Core: w, IROp: -1})
				post = append(post, isa.Inst{Op: red.Kind, Dst: acc, Src1: acc, Src2: scratch, IROp: -1})
				for k := 1; k < red.Kind.Latency(); k++ {
					post = append(post, isa.Nop())
				}
			}
		} else {
			post = append(post, isa.Inst{Op: isa.SEND, Src1: acc, Core: 0, IROp: -1})
		}
	}
	// Keep the exit block's label pointing at the spliced TXCOMMIT so the
	// loop-exit branch lands on it and falls through into the combine code.
	code, labels = insertKeep(code, labels, labels[int64(info.exitBlock.ID)], post)
	if isMaster {
		// Prepend worker spawns.
		var pre []isa.Inst
		for w := 1; w < width; w++ {
			pre = append(pre, isa.Inst{Op: isa.SPAWN, Core: w, Imm: entryLabel(w), IROp: -1})
		}
		code, labels = insertAt(code, labels, 0, pre)
	} else {
		// Workers end asleep instead of halting, and are entered by SPAWN.
		for i := range code {
			if code[i].Op == isa.HALT {
				code[i] = isa.Inst{Op: isa.SLEEP, IROp: -1}
			}
		}
		labels[entryLabel(c)] = 0
	}
	return code, labels, nil
}

// findInit locates the out-of-loop def initializing a reduction value.
func findInit(r *ir.Region, info *doallInfo, v ir.Value) *ir.Op {
	for id := range info.pre {
		for _, o := range r.Blocks[id].Ops {
			if o.Dst == v {
				return o
			}
		}
	}
	return nil
}

// insertAt splices seq into code before index idx; labels at or after idx
// shift past the insertion.
func insertAt(code []isa.Inst, labels map[int64]int, idx int, seq []isa.Inst) ([]isa.Inst, map[int64]int) {
	return splice(code, labels, idx, seq, true)
}

// insertKeep splices seq before idx but keeps labels pointing exactly at
// idx anchored to the start of the inserted sequence.
func insertKeep(code []isa.Inst, labels map[int64]int, idx int, seq []isa.Inst) ([]isa.Inst, map[int64]int) {
	return splice(code, labels, idx, seq, false)
}

func splice(code []isa.Inst, labels map[int64]int, idx int, seq []isa.Inst, shiftEqual bool) ([]isa.Inst, map[int64]int) {
	if len(seq) == 0 {
		return code, labels
	}
	out := make([]isa.Inst, 0, len(code)+len(seq))
	out = append(out, code[:idx]...)
	out = append(out, seq...)
	out = append(out, code[idx:]...)
	nl := map[int64]int{}
	for k, v := range labels {
		switch {
		case v > idx, v == idx && shiftEqual:
			nl[k] = v + len(seq)
		default:
			nl[k] = v
		}
	}
	return out, nl
}
