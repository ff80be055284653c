package interp

import (
	"context"
	"errors"
	"testing"
	"testing/quick"
	"time"

	"voltron/internal/ir"
	"voltron/internal/isa"
	"voltron/internal/mem"
)

// buildCopyAdd builds: for (i=0;i<n;i++) dst[i] = src[i] + k
func buildCopyAdd(n, k int64) (*ir.Program, *ir.Array, *ir.Array) {
	p := ir.NewProgram("copyadd")
	src := p.Array("src", n)
	dst := p.Array("dst", n)
	for i := int64(0); i < n; i++ {
		p.SetInit(src, i, i*3)
	}
	r := p.Region("loop")
	pre := r.NewBlock()
	sb := pre.AddrOf(src)
	db := pre.AddrOf(dst)
	after := ir.BuildCountedLoop(pre, ir.LoopSpec{Start: 0, Limit: n, Step: 1}, func(b *ir.Block, i ir.Value) *ir.Block {
		off := b.ShlI(i, 3)
		sa := b.Add(sb, off)
		da := b.Add(db, off)
		v := b.Load(src, sa, 0)
		v2 := b.AddI(v, k)
		b.Store(dst, da, 0, v2)
		return b
	})
	after.ExitRegion()
	r.Seal()
	return p, src, dst
}

func TestRunCopyAdd(t *testing.T) {
	p, _, dst := buildCopyAdd(10, 7)
	res, err := Run(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 10; i++ {
		got := int64(res.Mem.LoadW(dst.Base + i*8))
		want := i*3 + 7
		if got != want {
			t.Errorf("dst[%d] = %d, want %d", i, got, want)
		}
	}
	if res.DynOps <= 0 {
		t.Error("no ops counted")
	}
}

func TestRunTripCountsAndBlockCounts(t *testing.T) {
	p, _, _ := buildCopyAdd(10, 1)
	res, err := Run(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	r := p.Regions[0]
	header, body := r.Blocks[1], r.Blocks[2]
	if res.BlockCounts[r.ID][header.ID] != 11 {
		t.Errorf("header count = %d, want 11", res.BlockCounts[r.ID][header.ID])
	}
	if res.BlockCounts[r.ID][body.ID] != 10 {
		t.Errorf("body count = %d, want 10", res.BlockCounts[r.ID][body.ID])
	}
}

func TestArithmeticSemantics(t *testing.T) {
	// Property: interpreting v = a OP b matches Go semantics.
	f := func(a, b int64) bool {
		p := ir.NewProgram("t")
		out := p.Array("out", 8)
		r := p.Region("r")
		blk := r.NewBlock()
		va := blk.MovI(a)
		vb := blk.MovI(b)
		base := blk.AddrOf(out)
		blk.Store(out, base, 0, blk.Add(va, vb))
		blk.Store(out, base, 8, blk.Sub(va, vb))
		blk.Store(out, base, 16, blk.Mul(va, vb))
		blk.Store(out, base, 24, blk.And(va, vb))
		blk.Store(out, base, 32, blk.Or(va, vb))
		blk.Store(out, base, 40, blk.Xor(va, vb))
		blk.Store(out, base, 48, blk.Div(va, vb))
		blk.Store(out, base, 56, blk.Rem(va, vb))
		blk.ExitRegion()
		r.Seal()
		res, err := Run(p, Options{})
		if err != nil {
			return false
		}
		g := func(i int64) int64 { return int64(res.Mem.LoadW(out.Base + i*8)) }
		wantDiv, wantRem := int64(0), int64(0)
		if b != 0 {
			// Guard against the single INT_MIN / -1 overflow trap.
			if !(a == -1<<63 && b == -1) {
				wantDiv, wantRem = a/b, a%b
			} else {
				wantDiv, wantRem = a/b, a%b
			}
		}
		return g(0) == a+b && g(1) == a-b && g(2) == a*b &&
			g(3) == a&b && g(4) == a|b && g(5) == a^b &&
			g(6) == wantDiv && g(7) == wantRem
	}
	cfg := &quick.Config{MaxCount: 200}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestFloatSemantics(t *testing.T) {
	p := ir.NewProgram("f")
	out := p.FloatArray("out", 4)
	r := p.Region("r")
	b := r.NewBlock()
	x := b.MovF(2.5)
	y := b.MovF(4.0)
	base := b.AddrOf(out)
	b.FStore(out, base, 0, b.FAdd(x, y))
	b.FStore(out, base, 8, b.FMul(x, y))
	b.FStore(out, base, 16, b.FDiv(y, x))
	b.FStore(out, base, 24, b.IToF(b.FToI(b.FSub(y, x))))
	b.ExitRegion()
	r.Seal()
	res, err := Run(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	g := func(i int64) float64 { return ir.U2F(res.Mem.LoadW(out.Base + i*8)) }
	if g(0) != 6.5 || g(1) != 10.0 || g(2) != 1.6 || g(3) != 1.0 {
		t.Errorf("float results = %g %g %g %g", g(0), g(1), g(2), g(3))
	}
}

func TestComparisonsAndPredicates(t *testing.T) {
	p := ir.NewProgram("c")
	out := p.Array("out", 4)
	r := p.Region("r")
	b := r.NewBlock()
	x := b.MovI(3)
	y := b.MovI(5)
	base := b.AddrOf(out)
	lt := b.CmpLT(x, y)
	gt := b.CmpGT(x, y)
	// Select via branch: out[0] = lt ? 1 : 0 through a diamond.
	then := r.NewBlock()
	els := r.NewBlock()
	join := r.NewBlock()
	one := then.MovI(1)
	then.Store(out, base, 0, one)
	then.JumpTo(join)
	zero := els.MovI(0)
	els.Store(out, base, 0, zero)
	els.JumpTo(join)
	both := join.Region.NewOp(isa.PAND)
	both.Args[0], both.Args[1] = lt, gt
	both.Dst = r.NewValue(isa.RegPR)
	both.Blk = join
	join.Ops = append(join.Ops, both)
	// Store the PAND result (0) via a second diamond collapse: use PNOT.
	notBoth := join.Region.NewOp(isa.PNOT)
	notBoth.Args[0] = both.Dst
	notBoth.Dst = r.NewValue(isa.RegPR)
	notBoth.Blk = join
	join.Ops = append(join.Ops, notBoth)
	join.ExitRegion()
	b.BranchIf(lt, then, els)
	r.Seal()
	if err := p.Verify(); err != nil {
		t.Fatal(err)
	}
	res, err := Run(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := int64(res.Mem.LoadW(out.Base)); got != 1 {
		t.Errorf("branch took wrong arm: out[0] = %d, want 1", got)
	}
}

func TestTracerObservesMemory(t *testing.T) {
	p, src, dst := buildCopyAdd(4, 1)
	tr := &recordingTracer{}
	_, err := Run(p, Options{Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.loads) != 4 || len(tr.stores) != 4 {
		t.Fatalf("tracer saw %d loads, %d stores; want 4, 4", len(tr.loads), len(tr.stores))
	}
	for i, a := range tr.loads {
		if want := src.Base + int64(i)*8; a != want {
			t.Errorf("load %d at %#x, want %#x", i, a, want)
		}
	}
	for i, a := range tr.stores {
		if want := dst.Base + int64(i)*8; a != want {
			t.Errorf("store %d at %#x, want %#x", i, a, want)
		}
	}
	if tr.regions != 1 {
		t.Errorf("regions entered = %d, want 1", tr.regions)
	}
}

type recordingTracer struct {
	loads, stores []int64
	regions       int
	blocks        int
}

func (t *recordingTracer) EnterRegion(*ir.Region) { t.regions++ }
func (t *recordingTracer) EnterBlock(*ir.Block)   { t.blocks++ }
func (t *recordingTracer) Op(*ir.Op)              {}
func (t *recordingTracer) Mem(_ *ir.Op, addr int64, isStore bool) {
	if isStore {
		t.stores = append(t.stores, addr)
	} else {
		t.loads = append(t.loads, addr)
	}
}

func TestOpBudget(t *testing.T) {
	// An infinite loop must be cut off by MaxOps, not hang.
	p := ir.NewProgram("inf")
	r := p.Region("r")
	b := r.NewBlock()
	b.MovI(1)
	b.JumpTo(b)
	// Need an exit block for Verify; unreachable.
	e := r.NewBlock()
	e.ExitRegion()
	r.Seal()
	_, err := Run(p, Options{MaxOps: 1000})
	if err == nil {
		t.Fatal("expected op-budget error")
	}
}

// TestRunContextStops: a run polls its ctx, so an endless loop stops at
// the deadline instead of running to the op budget.
func TestRunContextStops(t *testing.T) {
	p := ir.NewProgram("inf")
	r := p.Region("r")
	b := r.NewBlock()
	b.MovI(1)
	b.JumpTo(b)
	e := r.NewBlock()
	e.ExitRegion()
	r.Seal()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := RunContext(ctx, p, Options{})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want the deadline", err)
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Errorf("stopped after %v", took)
	}
}

func TestMemOutOfBoundsPanics(t *testing.T) {
	m := mem.NewFlat(4)
	defer func() {
		if recover() == nil {
			t.Error("expected panic on out-of-bounds access")
		}
	}()
	m.LoadW(4 * 8)
}

func TestMemUnalignedPanics(t *testing.T) {
	m := mem.NewFlat(4)
	defer func() {
		if recover() == nil {
			t.Error("expected panic on unaligned access")
		}
	}()
	m.LoadW(3)
}

func TestFlatCloneEqualDiff(t *testing.T) {
	a := mem.NewFlat(8)
	a.StoreW(16, 42)
	b := a.Clone()
	if !a.Equal(b) {
		t.Error("clone not equal")
	}
	b.StoreW(24, 7)
	if a.Equal(b) {
		t.Error("diverged clones compare equal")
	}
	addr, av, bv, ok := a.FirstDiff(b)
	if !ok || addr != 24 || av != 0 || bv != 7 {
		t.Errorf("FirstDiff = %#x %d %d %v", addr, av, bv, ok)
	}
}
