package ir

import (
	"reflect"
	"slices"
	"testing"

	"voltron/internal/isa"
)

// buildSimpleLoop constructs: for (i=0; i<8; i++) dst[i] = src[i] + 1
func buildSimpleLoop(t *testing.T) (*Program, *Region) {
	t.Helper()
	p := NewProgram("simple")
	src := p.Array("src", 8)
	dst := p.Array("dst", 8)
	r := p.Region("loop")
	pre := r.NewBlock()
	srcBase := pre.AddrOf(src)
	dstBase := pre.AddrOf(dst)
	after := BuildCountedLoop(pre, LoopSpec{Start: 0, Limit: 8, Step: 1}, func(b *Block, i Value) *Block {
		off := b.ShlI(i, 3)
		sa := b.Add(srcBase, off)
		da := b.Add(dstBase, off)
		v := b.Load(src, sa, 0)
		v2 := b.AddI(v, 1)
		b.Store(dst, da, 0, v2)
		return b
	})
	after.ExitRegion()
	r.Seal()
	if err := p.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	return p, r
}

func TestVerifySimpleLoop(t *testing.T) {
	buildSimpleLoop(t)
}

func TestVerifyCatchesUndefinedUse(t *testing.T) {
	p := NewProgram("bad")
	r := p.Region("r")
	b := r.NewBlock()
	o := r.NewOp(isa.ADD)
	o.Args[0] = 99 // never defined
	o.Dst = r.NewValue(isa.RegGPR)
	o.Blk = b
	b.Ops = append(b.Ops, o)
	b.ExitRegion()
	r.Seal()
	if err := p.Verify(); err == nil {
		t.Fatal("Verify accepted use of undefined value")
	}
}

func TestVerifyCatchesBadTerminator(t *testing.T) {
	p := NewProgram("bad")
	r := p.Region("r")
	b := r.NewBlock()
	b.Kind = Jump // nil successor
	r.Seal()
	if err := p.Verify(); err == nil {
		t.Fatal("Verify accepted jump to nil")
	}
}

func TestDominators(t *testing.T) {
	_, r := buildSimpleLoop(t)
	dom := r.Dominators()
	// Blocks: 0=pre, 1=header, 2=body, 3=after
	pre, header, body, after := r.Blocks[0], r.Blocks[1], r.Blocks[2], r.Blocks[3]
	if dom.IDom(pre) != nil {
		t.Errorf("entry idom = %v, want nil", dom.IDom(pre))
	}
	if dom.IDom(header) != pre {
		t.Errorf("header idom = %v, want pre", dom.IDom(header))
	}
	if dom.IDom(body) != header || dom.IDom(after) != header {
		t.Errorf("body/after idom = %v/%v, want header", dom.IDom(body), dom.IDom(after))
	}
	if !dom.Dominates(pre, after) || dom.Dominates(body, after) {
		t.Error("Dominates relation wrong")
	}
}

func TestPostDominators(t *testing.T) {
	_, r := buildSimpleLoop(t)
	pdom := r.PostDominators()
	pre, header, body, after := r.Blocks[0], r.Blocks[1], r.Blocks[2], r.Blocks[3]
	if pdom.IDom(after) != nil {
		t.Errorf("exit ipostdom = %v, want nil", pdom.IDom(after))
	}
	if pdom.IDom(header) != after {
		t.Errorf("header ipostdom = %v, want after", pdom.IDom(header))
	}
	if pdom.IDom(body) != header {
		t.Errorf("body ipostdom = %v, want header", pdom.IDom(body))
	}
	if pdom.IDom(pre) != header {
		t.Errorf("pre ipostdom = %v, want header", pdom.IDom(pre))
	}
}

func TestLoopDetection(t *testing.T) {
	_, r := buildSimpleLoop(t)
	loops := r.Loops()
	if len(loops) != 1 {
		t.Fatalf("found %d loops, want 1", len(loops))
	}
	l := loops[0]
	if l.Header != r.Blocks[1] {
		t.Errorf("loop header = %v, want B1", l.Header)
	}
	if len(l.Latches) != 1 || l.Latches[0] != r.Blocks[2] {
		t.Errorf("latches = %v, want [B2]", l.Latches)
	}
	if !l.Blocks[1] || !l.Blocks[2] || l.Blocks[0] || l.Blocks[3] {
		t.Errorf("loop blocks = %v", l.Blocks)
	}
	if len(l.Exits) != 1 || l.Exits[0] != r.Blocks[3] {
		t.Errorf("exits = %v", l.Exits)
	}
}

func TestInductionDetection(t *testing.T) {
	_, r := buildSimpleLoop(t)
	l := r.Loops()[0]
	iv := l.Induction
	if iv == nil {
		t.Fatal("induction variable not detected")
	}
	if iv.Step != 1 {
		t.Errorf("step = %d, want 1", iv.Step)
	}
	if iv.LimitImm != 8 || iv.Limit != NoValue {
		t.Errorf("limit = v%d imm=%d, want imm 8", iv.Limit, iv.LimitImm)
	}
	if !iv.ExitOnFalse {
		t.Error("ExitOnFalse = false, want true")
	}
	if iv.InitOp == nil || iv.InitOp.Imm != 0 {
		t.Errorf("init op = %v", iv.InitOp)
	}
}

func TestReductionDetection(t *testing.T) {
	p := NewProgram("red")
	src := p.Array("src", 16)
	out := p.Array("out", 1)
	r := p.Region("sum")
	pre := r.NewBlock()
	base := pre.AddrOf(src)
	sum := pre.MovI(0)
	after := BuildCountedLoop(pre, LoopSpec{Start: 0, Limit: 16, Step: 1}, func(b *Block, i Value) *Block {
		off := b.ShlI(i, 3)
		a := b.Add(base, off)
		v := b.Load(src, a, 0)
		b.Accum(isa.ADD, sum, v)
		return b
	})
	outBase := after.AddrOf(out)
	after.Store(out, outBase, 0, sum)
	after.ExitRegion()
	r.Seal()
	if err := p.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	l := r.Loops()[0]
	if len(l.Reductions) != 1 {
		t.Fatalf("found %d reductions, want 1", len(l.Reductions))
	}
	if l.Reductions[0].Acc != sum {
		t.Errorf("reduction acc = v%d, want v%d", l.Reductions[0].Acc, sum)
	}
	if l.Reductions[0].Kind != isa.ADD {
		t.Errorf("reduction kind = %v", l.Reductions[0].Kind)
	}
}

func TestAffineAddrAndMemDep(t *testing.T) {
	_, r := buildSimpleLoop(t)
	l := r.Loops()[0]
	var load, store *Op
	for _, o := range r.AllOps() {
		if o.Code == isa.LOAD {
			load = o
		}
		if o.Code == isa.STORE {
			store = o
		}
	}
	le := r.AddrExprOf(load, l, nil)
	if !le.Known || le.Stride != 8 || le.Offset != 0 {
		t.Errorf("load addr expr = %+v, want stride 8 offset 0", le)
	}
	se := r.AddrExprOf(store, l, nil)
	if !se.Known || se.Stride != 8 {
		t.Errorf("store addr expr = %+v", se)
	}
	// Load from src, store to dst: distinct arrays, no dependence.
	if d := r.MemDep(load, store, l, nil); d != MemNoDep {
		t.Errorf("MemDep(load src, store dst) = %v, want none", d)
	}
}

func TestMemDepSameArray(t *testing.T) {
	// for i: a[i+1] = a[i]  → carried dependence, distance 1.
	p := NewProgram("carried")
	a := p.Array("a", 16)
	r := p.Region("loop")
	pre := r.NewBlock()
	base := pre.AddrOf(a)
	after := BuildCountedLoop(pre, LoopSpec{Start: 0, Limit: 15, Step: 1}, func(b *Block, i Value) *Block {
		off := b.ShlI(i, 3)
		ad := b.Add(base, off)
		v := b.Load(a, ad, 0)
		b.Store(a, ad, 8, v)
		return b
	})
	after.ExitRegion()
	r.Seal()
	l := r.Loops()[0]
	var load, store *Op
	for _, o := range r.AllOps() {
		if o.Code == isa.LOAD {
			load = o
		}
		if o.Code == isa.STORE {
			store = o
		}
	}
	if d := r.MemDep(load, store, l, nil); d != MemCarriedDep {
		t.Errorf("MemDep = %v, want carried", d)
	}
	// Same offset: a[i] = a[i] + ... is intra-iteration.
	store.Imm = 0
	if d := r.MemDep(load, store, l, nil); d != MemIntraDep {
		t.Errorf("MemDep same offset = %v, want intra", d)
	}
}

func TestBlockDFG(t *testing.T) {
	p := NewProgram("dfg")
	a := p.Array("a", 4)
	r := p.Region("r")
	b := r.NewBlock()
	base := b.AddrOf(a)
	x := b.Load(a, base, 0)
	y := b.AddI(x, 1)
	b.Store(a, base, 0, y)
	z := b.Load(a, base, 0) // must depend on the store (same address)
	_ = z
	b.ExitRegion()
	r.Seal()
	g := r.BuildBlockDFG(b, r.NewAffineCtx(nil))
	// Find the store and the second load.
	var store, load2 *Op
	for _, o := range b.Ops {
		if o.Code == isa.STORE {
			store = o
		}
	}
	for _, o := range b.Ops {
		if o.Code == isa.LOAD && o.Dst == z {
			load2 = o
		}
	}
	found := false
	for _, e := range g.Preds(load2) {
		if e.Src == store && e.Kind == DepMem {
			found = true
		}
	}
	if !found {
		t.Error("missing mem dependence store -> load at same address")
	}
	// Flow dep: load1 -> add with latency = load latency.
	var add *Op
	for _, o := range b.Ops {
		if o.Code == isa.ADD && o.Dst == y {
			add = o
		}
	}
	foundFlow := false
	for _, e := range g.Preds(add) {
		if e.Kind == DepFlow && e.Src.Dst == x {
			foundFlow = true
			if e.Latency != isa.LOAD.Latency() {
				t.Errorf("flow latency = %d, want %d", e.Latency, isa.LOAD.Latency())
			}
		}
	}
	if !foundFlow {
		t.Error("missing flow dependence load -> add")
	}
	// Preds keeps the order of the per-op lists the graph used to build:
	// Edges filtered by destination.
	for _, o := range b.Ops {
		var want []DepEdge
		for _, e := range g.Edges {
			if e.Dst == o {
				want = append(want, e)
			}
		}
		if got := g.Preds(o); !slices.Equal(got, want) {
			t.Errorf("Preds(%v) = %v, want %v", o, got, want)
		}
	}
}

func TestPDGAndSCCs(t *testing.T) {
	_, r := buildSimpleLoop(t)
	l := r.Loops()[0]
	g := r.BuildPDG(l, r.NewAffineCtx(l))
	if len(g.Nodes) == 0 {
		t.Fatal("empty PDG")
	}
	sccs := g.SCCs()
	// The induction update (i = i+1) must be in its own cyclic SCC; the
	// load/store chain is acyclic.
	ivOp := l.Induction.Update
	var ivSCC []*Op
	for _, s := range sccs {
		for _, o := range s {
			if o == ivOp {
				ivSCC = s
			}
		}
	}
	if ivSCC == nil {
		t.Fatal("induction op missing from SCCs")
	}
	// Topological ordering: the SCC containing the iv update must come
	// before the SCC containing the store (store depends on iv via flow).
	pos := map[*Op]int{}
	for i, s := range sccs {
		for _, o := range s {
			pos[o] = i
		}
	}
	var store *Op
	for _, o := range g.Nodes {
		if o.Code == isa.STORE {
			store = o
		}
	}
	if pos[ivOp] > pos[store] {
		t.Errorf("SCC order wrong: iv at %d, store at %d", pos[ivOp], pos[store])
	}
	total := 0
	for _, s := range sccs {
		total += len(s)
	}
	if total != len(g.Nodes) {
		t.Errorf("SCCs cover %d ops, want %d", total, len(g.Nodes))
	}
}

func TestControlDeps(t *testing.T) {
	// diamond: entry condbr -> then / else -> join
	p := NewProgram("diamond")
	a := p.Array("a", 4)
	r := p.Region("r")
	entry := r.NewBlock()
	base := entry.AddrOf(a)
	x := entry.Load(a, base, 0)
	c := entry.CmpLTI(x, 5)
	then := r.NewBlock()
	els := r.NewBlock()
	join := r.NewBlock()
	v1 := then.MovI(1)
	then.Store(a, base, 8, v1)
	then.JumpTo(join)
	v2 := els.MovI(2)
	els.Store(a, base, 8, v2)
	els.JumpTo(join)
	join.ExitRegion()
	entry.BranchIf(c, then, els)
	r.Seal()
	if err := p.Verify(); err != nil {
		t.Fatal(err)
	}
	cd := r.controlDeps()
	if len(cd[then.ID]) != 1 || cd[then.ID][0] != entry {
		t.Errorf("then control deps = %v, want [entry]", cd[then.ID])
	}
	if len(cd[els.ID]) != 1 || cd[els.ID][0] != entry {
		t.Errorf("else control deps = %v, want [entry]", cd[els.ID])
	}
	if len(cd[join.ID]) != 0 {
		t.Errorf("join control deps = %v, want none", cd[join.ID])
	}
	// PDG: ops in then must have control edges from the cmp.
	g := r.BuildPDG(nil, r.NewAffineCtx(nil))
	var cmp *Op
	for _, o := range entry.Ops {
		if o.Code == isa.CMPLT {
			cmp = o
		}
	}
	found := false
	for _, e := range g.Succs(cmp) {
		if e.Kind == DepControl && e.Dst.Blk == then {
			found = true
		}
	}
	if !found {
		t.Error("missing control dependence cmp -> then ops")
	}
}

func TestReversePostorder(t *testing.T) {
	_, r := buildSimpleLoop(t)
	rpo := r.ReversePostorder()
	if len(rpo) != 4 {
		t.Fatalf("rpo has %d blocks, want 4", len(rpo))
	}
	if rpo[0] != r.Entry {
		t.Errorf("rpo[0] = %v, want entry", rpo[0])
	}
	pos := map[int]int{}
	for i, b := range rpo {
		pos[b.ID] = i
	}
	if pos[1] > pos[2] { // header before body
		t.Error("header should precede body in RPO")
	}
}

func TestProgramLayout(t *testing.T) {
	p := NewProgram("layout")
	a := p.Array("a", 3)
	b := p.Array("b", 5)
	if a.Base%64 != 0 && a.Base%8 != 0 {
		t.Errorf("array a base %d misaligned", a.Base)
	}
	if b.Base < a.End() {
		t.Errorf("arrays overlap: a ends %d, b starts %d", a.End(), b.Base)
	}
	if b.Base%64 != 0 {
		t.Errorf("array b not line-aligned: %d", b.Base)
	}
	p.SetInit(a, 2, -7)
	if got := p.Init[a.Base+16]; int64(got) != -7 {
		t.Errorf("init = %d, want -7", int64(got))
	}
	if p.ObjectAt(a.Base+8) != a || p.ObjectAt(b.Base) != b || p.ObjectAt(0) != nil {
		t.Error("ObjectAt wrong")
	}
}

// usesSink keeps the benchmarked Uses results live.
var usesSink []Value

func TestOpUsesNoAlloc(t *testing.T) {
	for _, c := range []struct {
		args [2]Value
		want []Value
	}{
		{[2]Value{3, 4}, []Value{3, 4}},
		{[2]Value{3, NoValue}, []Value{3}},
		{[2]Value{NoValue, 4}, []Value{4}},
		{[2]Value{NoValue, NoValue}, nil},
	} {
		o := &Op{Args: c.args}
		if got := o.Uses(); !reflect.DeepEqual(got, c.want) {
			t.Errorf("Args %v: Uses() = %v, want %v", c.args, got, c.want)
		}
		if n := testing.AllocsPerRun(100, func() { usesSink = o.Uses() }); n != 0 {
			t.Errorf("Args %v: Uses allocates %.0f times", c.args, n)
		}
	}
}
