package compiler

import (
	"testing"

	"voltron/internal/ir"
	"voltron/internal/isa"
)

func TestBUGAssignsEverythingInRange(t *testing.T) {
	for _, tc := range corpus {
		p := tc.mk()
		pr := mustProfile(t, p)
		for _, cores := range []int{2, 4} {
			opts := Options{Cores: cores, Profile: pr}.withDefaults()
			for _, r := range p.Regions {
				a := BUG(r, opts)
				for _, o := range r.AllOps() {
					c := a.Primary(o)
					if c < 0 || c >= cores {
						t.Fatalf("%s/%s: op %v assigned to core %d", tc.name, r.Name, o, c)
					}
				}
			}
		}
	}
}

func TestBUGSingleCoreIsUniform(t *testing.T) {
	p := progCopyAdd(16)
	a := BUG(p.Regions[0], Options{Cores: 1}.withDefaults())
	for _, o := range p.Regions[0].AllOps() {
		if a.Primary(o) != 0 {
			t.Fatal("single-core BUG strayed from core 0")
		}
	}
}

func TestBUGBalancesIndependentChains(t *testing.T) {
	// Eight independent chains over 2 cores: neither core should hold
	// more than 6 of the 8 chain heads after refinement.
	p := ir.NewProgram("chains")
	x := p.Array("x", 64)
	y := p.Array("y", 64)
	r := p.Region("r")
	b := r.NewBlock()
	xb := b.AddrOf(x)
	yb := b.AddrOf(y)
	var heads []*ir.Op
	for c := int64(0); c < 8; c++ {
		v := b.Load(x, xb, c*64)
		heads = append(heads, b.Ops[len(b.Ops)-1])
		for k := 0; k < 4; k++ {
			v = b.AddI(v, c+int64(k))
		}
		b.Store(y, yb, c*64, v)
	}
	b.ExitRegion()
	r.Seal()
	a := BUG(r, Options{Cores: 2}.withDefaults())
	count := map[int]int{}
	for _, h := range heads {
		count[a.Primary(h)]++
	}
	if count[0] > 6 || count[1] > 6 {
		t.Errorf("chain heads unbalanced: %v", count)
	}
}

func TestLineGroupsPinSameLineStores(t *testing.T) {
	// Two stores 8 bytes apart in the same array and iteration share a
	// cache line: the partitioner must keep them on one core.
	p := ir.NewProgram("fs")
	a := p.Array("a", 64)
	out := p.Array("out", 8)
	r := p.Region("r")
	pre := r.NewBlock()
	ab := pre.AddrOf(a)
	ob := pre.AddrOf(out)
	after := ir.BuildCountedLoop(pre, ir.LoopSpec{Start: 0, Limit: 16, Step: 1}, func(b *ir.Block, i ir.Value) *ir.Block {
		v1 := b.Load(a, b.Add(ab, b.ShlI(i, 3)), 0)
		v2 := b.MulI(v1, 2)
		b.Store(out, ob, 0, v1)
		b.Store(out, ob, 8, v2)
		return b
	})
	after.ExitRegion()
	r.Seal()
	var stores []*ir.Op
	for _, o := range r.AllOps() {
		if o.Code.IsStore() {
			stores = append(stores, o)
		}
	}
	if len(stores) != 2 {
		t.Fatalf("found %d stores", len(stores))
	}
	for _, cores := range []int{2, 4} {
		a := BUG(r, Options{Cores: cores}.withDefaults())
		if a.Primary(stores[0]) != a.Primary(stores[1]) {
			t.Errorf("%d cores: same-line stores split: %d vs %d",
				cores, a.Primary(stores[0]), a.Primary(stores[1]))
		}
		e := EBUG(r, Options{Cores: cores}.withDefaults())
		if e.Primary(stores[0]) != e.Primary(stores[1]) {
			t.Errorf("%d cores: eBUG split same-line stores", cores)
		}
	}
}

func TestEBUGSplitsMissProneStreams(t *testing.T) {
	// The Figure 8 shape: two miss-prone streams must land on different
	// cores under eBUG with a profile.
	p := ir.NewProgram("streams")
	s1 := p.Array("s1", 2048)
	s2 := p.Array("s2", 2048)
	out := p.Array("out", 1)
	r := p.Region("r")
	pre := r.NewBlock()
	b1 := pre.AddrOf(s1)
	b2 := pre.AddrOf(s2)
	acc := pre.MovI(0)
	after := ir.BuildCountedLoop(pre, ir.LoopSpec{Start: 0, Limit: 2048, Step: 1}, func(b *ir.Block, i ir.Value) *ir.Block {
		off := b.ShlI(i, 3)
		v1 := b.Load(s1, b.Add(b1, off), 0)
		v2 := b.Load(s2, b.Add(b2, off), 0)
		b.Accum(isa.ADD, acc, b.Sub(v1, v2))
		return b
	})
	after.Store(out, after.AddrOf(out), 0, acc)
	after.ExitRegion()
	r.Seal()
	pr := mustProfile(t, p)
	a := EBUG(r, Options{Cores: 2, Profile: pr}.withDefaults())
	var loads []*ir.Op
	for _, o := range r.AllOps() {
		if o.Code == isa.LOAD {
			loads = append(loads, o)
		}
	}
	if len(loads) != 2 {
		t.Fatalf("found %d loads", len(loads))
	}
	if a.Primary(loads[0]) == a.Primary(loads[1]) {
		t.Error("eBUG kept both miss-prone streams on one core (no MLP)")
	}
}

func TestEffLatUsesProfile(t *testing.T) {
	p := ir.NewProgram("el")
	a := p.Array("a", 4)
	r := p.Region("r")
	b := r.NewBlock()
	ab := b.AddrOf(a)
	b.Load(a, ab, 0)
	b.ExitRegion()
	r.Seal()
	var load *ir.Op
	for _, o := range r.AllOps() {
		if o.Code == isa.LOAD {
			load = o
		}
	}
	params := bugParams{missRate: map[*ir.Op]float64{load: 0.5}, missPenalty: 60}
	if got := params.effLat(load); got != 32 {
		t.Errorf("effLat = %d, want 2 + 30", got)
	}
	none := bugParams{}
	if got := none.effLat(load); got != 2 {
		t.Errorf("effLat without profile = %d, want 2", got)
	}
}

func TestSanitizeUnifiesMultiDefValues(t *testing.T) {
	p := progCopyAdd(16) // the induction i has two defs (init + update)
	r := p.Regions[0]
	a := newAssignment(r)
	ops := r.AllOps()
	// Adversarial assignment: alternate cores op by op.
	for i, o := range ops {
		a.Set(o, i%2)
	}
	a = sanitize(r, a)
	defs := map[ir.Value][]*ir.Op{}
	for _, o := range ops {
		if o.Dst != ir.NoValue {
			defs[o.Dst] = append(defs[o.Dst], o)
		}
	}
	for v, ds := range defs {
		if len(ds) < 2 {
			continue
		}
		home := a.Primary(ds[0])
		for _, d := range ds[1:] {
			if a.Primary(d) != home {
				t.Errorf("value v%d defs on cores %d and %d after sanitize", v, home, a.Primary(d))
			}
		}
	}
}

func TestSanitizeGroupsCarriedMemDeps(t *testing.T) {
	p := progCarried(16) // a[i] = a[i-1]+1: load and store carried-dependent
	r := p.Regions[0]
	var load, store *ir.Op
	for _, o := range r.AllOps() {
		if o.Code == isa.LOAD {
			load = o
		}
		if o.Code == isa.STORE {
			store = o
		}
	}
	a := newAssignment(r)
	for _, o := range r.AllOps() {
		a.Set(o, 0)
	}
	a.Set(store, 1)
	a = sanitize(r, a)
	if a.Primary(load) != a.Primary(store) {
		t.Error("carried memory dependence left split across cores")
	}
}

func TestControlSliceOpsLoadFree(t *testing.T) {
	p := progCopyAdd(16)
	slice := controlSliceOps(p.Regions[0], 24)
	if len(slice) == 0 {
		t.Fatal("counted loop has no replicable control slice")
	}
	for _, o := range slice {
		if o.Code.IsMemory() {
			t.Errorf("memory op %v in replicable slice", o)
		}
	}
	// The strand shape (predicate depends on loads): the loads and the
	// compares feeding through them must NOT be replicable; the induction
	// part must be.
	ps := progStrands(32)
	slice2 := controlSliceOps(ps.Regions[0], 64)
	for _, o := range slice2 {
		if o.Code.IsMemory() {
			t.Errorf("load in strand slice: %v", o)
		}
		if o.Code == isa.CMPEQ || o.Code == isa.PAND {
			t.Errorf("load-dependent predicate op %v marked replicable", o)
		}
	}
	foundInduction := false
	for _, o := range slice2 {
		if o.Code == isa.CMPLT {
			foundInduction = true
		}
	}
	if !foundInduction {
		t.Error("induction compare missing from partial slice")
	}
}
