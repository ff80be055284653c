package ir

import "voltron/internal/isa"

// Affine address analysis: for a memory operation inside a loop, derive the
// access pattern base + stride*i + offset in terms of the loop's canonical
// induction variable. This is the compiler's stand-in for the
// pointer/dependence analysis of Nystrom et al. that the paper relies on:
// it lets the dependence graph prove independence of same-array references
// and compute loop-carried dependence distances for affine accesses, while
// anything non-affine stays conservatively "may alias".

// AddrExpr is a symbolic address: base + Stride*iv + Offset (bytes), where
// base is the op's array object's base address. Known reports whether the
// derivation succeeded. An expression with Stride == 0 is a loop-invariant
// address.
type AddrExpr struct {
	Known  bool
	Stride int64 // bytes per induction step
	Offset int64 // bytes from array base at iv = 0 (symbolic origin)
}

// AffineCtx caches single-def lookups during derivation. Building one walks
// every op in the region, so callers issuing many AddrExprOf/MemDep queries
// against the same (region, loop) should build the context once with
// NewAffineCtx and pass it in rather than passing nil per query.
type AffineCtx struct {
	r    *Region
	l    *Loop // may be nil for straight-line analysis
	iv   Value
	defs map[Value][]*Op
}

// NewAffineCtx builds a reusable derivation context for a loop (which may be
// nil for straight-line analysis).
func (r *Region) NewAffineCtx(l *Loop) *AffineCtx { return r.newAffineCtx(l) }

func (r *Region) newAffineCtx(l *Loop) *AffineCtx {
	c := &AffineCtx{r: r, l: l, defs: map[Value][]*Op{}}
	if l != nil && l.Induction != nil {
		c.iv = l.Induction.Val
	}
	for _, b := range r.Blocks {
		for _, o := range b.Ops {
			if o.Dst != NoValue {
				c.defs[o.Dst] = append(c.defs[o.Dst], o)
			}
		}
	}
	return c
}

// term is an intermediate linear form a*iv + b.
type term struct {
	ok   bool
	a, b int64
}

func (c *AffineCtx) eval(v Value, depth int) term {
	if depth > 16 {
		return term{}
	}
	if v == c.iv && c.iv != NoValue {
		return term{ok: true, a: 1}
	}
	ds := c.defs[v]
	// The value must have a single reaching definition for the linear form
	// to be well-defined; the induction variable itself is handled above.
	var d *Op
	for _, o := range ds {
		if c.l != nil && !c.l.Blocks[o.Blk.ID] {
			// defs outside the loop are fine if they are the only ones
			continue
		}
		if d != nil {
			return term{}
		}
		d = o
	}
	if d == nil {
		if len(ds) == 1 {
			d = ds[0]
		} else {
			return term{}
		}
	} else if len(ds) > 1 {
		// One in-loop def plus out-of-loop init: not a stable linear form
		// unless it is the iv (handled above).
		return term{}
	}
	switch d.Code {
	case isa.MOVI:
		return term{ok: true, b: d.Imm}
	case isa.ADD:
		x := c.eval(d.Args[0], depth+1)
		if !x.ok {
			return term{}
		}
		if d.Args[1] == NoValue {
			return term{ok: true, a: x.a, b: x.b + d.Imm}
		}
		y := c.eval(d.Args[1], depth+1)
		if !y.ok {
			return term{}
		}
		return term{ok: true, a: x.a + y.a, b: x.b + y.b}
	case isa.SUB:
		x := c.eval(d.Args[0], depth+1)
		if !x.ok {
			return term{}
		}
		if d.Args[1] == NoValue {
			return term{ok: true, a: x.a, b: x.b - d.Imm}
		}
		y := c.eval(d.Args[1], depth+1)
		if !y.ok {
			return term{}
		}
		return term{ok: true, a: x.a - y.a, b: x.b - y.b}
	case isa.SHL:
		x := c.eval(d.Args[0], depth+1)
		if !x.ok || d.Args[1] != NoValue {
			return term{}
		}
		return term{ok: true, a: x.a << uint(d.Imm), b: x.b << uint(d.Imm)}
	case isa.MUL:
		x := c.eval(d.Args[0], depth+1)
		if !x.ok || d.Args[1] != NoValue {
			return term{}
		}
		return term{ok: true, a: x.a * d.Imm, b: x.b * d.Imm}
	}
	return term{}
}

// AddrExprOf derives the affine address expression of a memory op relative
// to loop l (may be nil: then only loop-invariant constant addresses
// resolve). The result's Offset is absolute when the op has no known array
// object.
func (r *Region) AddrExprOf(o *Op, l *Loop, ctx *AffineCtx) AddrExpr {
	if !o.Code.IsMemory() {
		return AddrExpr{}
	}
	if ctx == nil {
		ctx = r.newAffineCtx(l)
	}
	t := ctx.eval(o.Args[0], 0)
	if !t.ok {
		return AddrExpr{}
	}
	addr0 := t.b + o.Imm
	if o.Obj != UnknownObj && o.Obj >= 0 && o.Obj < len(r.Program.Arrays) {
		addr0 -= r.Program.Arrays[o.Obj].Base
	}
	// Scale stride by the induction step (iv advances Step per iteration).
	stride := t.a
	if l != nil && l.Induction != nil {
		stride *= l.Induction.Step
	}
	return AddrExpr{Known: true, Stride: stride, Offset: addr0}
}

// MemDepKind classifies the relation between two memory references.
type MemDepKind uint8

// Memory dependence classifications.
const (
	// MemNoDep: proven independent.
	MemNoDep MemDepKind = iota
	// MemIntraDep: may touch the same address within one iteration (or in
	// straight-line code).
	MemIntraDep
	// MemCarriedDep: may touch the same address across iterations.
	MemCarriedDep
	// MemBothDep: may conflict both within and across iterations (the
	// conservative answer for unanalyzable references).
	MemBothDep
)

// MemDep classifies the dependence between memory ops a and b with respect
// to loop l (nil = straight-line: only intra matters). At least one of the
// two must be a store for a dependence to exist.
func (r *Region) MemDep(a, b *Op, l *Loop, ctx *AffineCtx) MemDepKind {
	if !a.Code.IsStore() && !b.Code.IsStore() {
		return MemNoDep
	}
	// Distinct known objects never alias.
	if a.Obj != UnknownObj && b.Obj != UnknownObj && a.Obj != b.Obj {
		return MemNoDep
	}
	if a.Obj == UnknownObj || b.Obj == UnknownObj {
		return MemBothDep
	}
	ea := r.AddrExprOf(a, l, ctx)
	eb := r.AddrExprOf(b, l, ctx)
	if !ea.Known || !eb.Known {
		return MemBothDep
	}
	if ea.Stride == eb.Stride {
		d := eb.Offset - ea.Offset
		if ea.Stride == 0 {
			if d == 0 {
				return MemIntraDep // same invariant address every iteration
			}
			return MemNoDep
		}
		if d == 0 {
			return MemIntraDep
		}
		if d%ea.Stride == 0 {
			return MemCarriedDep
		}
		return MemNoDep
	}
	// Different strides: give the conservative answer unless one is
	// invariant and provably outside the other's footprint — skipped for
	// simplicity; the profiler refines this for statistical DOALL.
	return MemBothDep
}
