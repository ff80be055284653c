package compiler

import (
	"fmt"
	"testing"

	"voltron/internal/core"
	"voltron/internal/interp"
	"voltron/internal/ir"
	"voltron/internal/isa"
	"voltron/internal/prof"
)

// ---- test program corpus ----

// progCopyAdd: for i<n: dst[i] = src[i]+7 — a clean statistical DOALL loop.
func progCopyAdd(n int64) *ir.Program {
	p := ir.NewProgram("copyadd")
	src := p.Array("src", n)
	dst := p.Array("dst", n)
	for i := int64(0); i < n; i++ {
		p.SetInit(src, i, i*i-3)
	}
	r := p.Region("loop")
	pre := r.NewBlock()
	sb := pre.AddrOf(src)
	db := pre.AddrOf(dst)
	after := ir.BuildCountedLoop(pre, ir.LoopSpec{Start: 0, Limit: n, Step: 1}, func(b *ir.Block, i ir.Value) *ir.Block {
		off := b.ShlI(i, 3)
		v := b.Load(src, b.Add(sb, off), 0)
		b.Store(dst, b.Add(db, off), 0, b.AddI(v, 7))
		return b
	})
	after.ExitRegion()
	r.Seal()
	return p
}

// progReduction: out[0] = Σ src[i]; out[1] = 5 (post-loop code using sum).
func progReduction(n int64) *ir.Program {
	p := ir.NewProgram("reduction")
	src := p.Array("src", n)
	out := p.Array("out", 2)
	for i := int64(0); i < n; i++ {
		p.SetInit(src, i, 2*i+1)
	}
	r := p.Region("sum")
	pre := r.NewBlock()
	sb := pre.AddrOf(src)
	sum := pre.MovI(0)
	after := ir.BuildCountedLoop(pre, ir.LoopSpec{Start: 0, Limit: n, Step: 1}, func(b *ir.Block, i ir.Value) *ir.Block {
		off := b.ShlI(i, 3)
		v := b.Load(src, b.Add(sb, off), 0)
		b.Accum(isa.ADD, sum, v)
		return b
	})
	ob := after.AddrOf(out)
	after.Store(out, ob, 0, sum)
	after.Store(out, ob, 8, after.AddI(sum, 5))
	after.ExitRegion()
	r.Seal()
	return p
}

// progCarried: for i in [1,n): a[i] = a[i-1]+1 — a serial recurrence; no
// strategy may parallelize it incorrectly.
func progCarried(n int64) *ir.Program {
	p := ir.NewProgram("carried")
	a := p.Array("a", n)
	p.SetInit(a, 0, 100)
	r := p.Region("chain")
	pre := r.NewBlock()
	base := pre.AddrOf(a)
	after := ir.BuildCountedLoop(pre, ir.LoopSpec{Start: 1, Limit: n, Step: 1}, func(b *ir.Block, i ir.Value) *ir.Block {
		off := b.ShlI(i, 3)
		ad := b.Add(base, off)
		v := b.Load(a, ad, -8)
		b.Store(a, ad, 0, b.AddI(v, 1))
		return b
	})
	after.ExitRegion()
	r.Seal()
	return p
}

// progDiamond: per element, branchy control flow (if a[i] < k then b[i]=1
// else b[i]=a[i]*2).
func progDiamond(n int64) *ir.Program {
	p := ir.NewProgram("diamond")
	a := p.Array("a", n)
	b := p.Array("b", n)
	for i := int64(0); i < n; i++ {
		p.SetInit(a, i, (i*7)%13)
	}
	r := p.Region("branchy")
	pre := r.NewBlock()
	ab := pre.AddrOf(a)
	bb := pre.AddrOf(b)
	after := ir.BuildCountedLoop(pre, ir.LoopSpec{Start: 0, Limit: n, Step: 1}, func(body *ir.Block, i ir.Value) *ir.Block {
		off := body.ShlI(i, 3)
		av := body.Load(a, body.Add(ab, off), 0)
		bd := body.Add(bb, off)
		c := body.CmpLTI(av, 6)
		reg := r
		then := reg.NewBlock()
		els := reg.NewBlock()
		join := reg.NewBlock()
		one := then.MovI(1)
		then.Store(b, bd, 0, one)
		then.JumpTo(join)
		dbl := els.MulI(av, 2)
		els.Store(b, bd, 0, dbl)
		els.JumpTo(join)
		body.BranchIf(c, then, els)
		return join
	})
	after.ExitRegion()
	r.Seal()
	return p
}

// progMultiRegion: three regions with different characters (ILP block,
// DOALL loop, reduction).
func progMultiRegion() *ir.Program {
	p := ir.NewProgram("multi")
	x := p.Array("x", 16)
	y := p.Array("y", 16)
	out := p.Array("out", 4)
	for i := int64(0); i < 16; i++ {
		p.SetInit(x, i, i+1)
	}
	// Region 1: straight-line ILP.
	r1 := p.Region("ilp")
	b1 := r1.NewBlock()
	xb := b1.AddrOf(x)
	ob := b1.AddrOf(out)
	v0 := b1.Load(x, xb, 0)
	v1 := b1.Load(x, xb, 8)
	v2 := b1.Load(x, xb, 16)
	v3 := b1.Load(x, xb, 24)
	s1 := b1.Add(v0, v1)
	s2 := b1.Add(v2, v3)
	s3 := b1.Mul(s1, s2)
	b1.Store(out, ob, 0, s3)
	b1.ExitRegion()
	r1.Seal()
	// Region 2: DOALL y[i] = x[i] * 3.
	r2 := p.Region("doall")
	pre2 := r2.NewBlock()
	xb2 := pre2.AddrOf(x)
	yb2 := pre2.AddrOf(y)
	after2 := ir.BuildCountedLoop(pre2, ir.LoopSpec{Start: 0, Limit: 16, Step: 1}, func(b *ir.Block, i ir.Value) *ir.Block {
		off := b.ShlI(i, 3)
		v := b.Load(x, b.Add(xb2, off), 0)
		b.Store(y, b.Add(yb2, off), 0, b.MulI(v, 3))
		return b
	})
	after2.ExitRegion()
	r2.Seal()
	// Region 3: reduction over y.
	r3 := p.Region("reduce")
	pre3 := r3.NewBlock()
	yb3 := pre3.AddrOf(y)
	ob3 := pre3.AddrOf(out)
	sum := pre3.MovI(0)
	after3 := ir.BuildCountedLoop(pre3, ir.LoopSpec{Start: 0, Limit: 16, Step: 1}, func(b *ir.Block, i ir.Value) *ir.Block {
		off := b.ShlI(i, 3)
		v := b.Load(y, b.Add(yb3, off), 0)
		b.Accum(isa.ADD, sum, v)
		return b
	})
	after3.Store(out, ob3, 8, sum)
	after3.ExitRegion()
	r3.Seal()
	return p
}

// progStrands: gzip-like loop with two independent load streams compared
// per iteration (fine-grain TLP shape, Figure 8).
func progStrands(n int64) *ir.Program {
	p := ir.NewProgram("strands")
	scan := p.Array("scan", n)
	match := p.Array("match", n)
	out := p.Array("out", 1)
	for i := int64(0); i < n; i++ {
		p.SetInit(scan, i, i%17)
		p.SetInit(match, i, i%17)
	}
	p.SetInit(match, n-3, 999) // streams diverge near the end
	r := p.Region("cmp")
	pre := r.NewBlock()
	sb := pre.AddrOf(scan)
	mb := pre.AddrOf(match)
	count := pre.MovI(0)
	after := ir.BuildCountedLoop(pre, ir.LoopSpec{Start: 0, Limit: n, Step: 1}, func(b *ir.Block, i ir.Value) *ir.Block {
		off := b.ShlI(i, 3)
		sv := b.Load(scan, b.Add(sb, off), 0)
		mv := b.Load(match, b.Add(mb, off), 0)
		d := b.Sub(sv, mv)
		b.Accum(isa.ADD, count, d)
		return b
	})
	ob := after.AddrOf(out)
	after.Store(out, ob, 0, count)
	after.ExitRegion()
	r.Seal()
	return p
}

// progFloat: float DOALL with FP reduction.
func progFloat(n int64) *ir.Program {
	p := ir.NewProgram("float")
	a := p.FloatArray("a", n)
	out := p.FloatArray("out", 1)
	for i := int64(0); i < n; i++ {
		p.SetInitF(a, i, float64(i)*0.5)
	}
	r := p.Region("fsum")
	pre := r.NewBlock()
	ab := pre.AddrOf(a)
	acc := pre.MovF(0)
	after := ir.BuildCountedLoop(pre, ir.LoopSpec{Start: 0, Limit: n, Step: 1}, func(b *ir.Block, i ir.Value) *ir.Block {
		off := b.ShlI(i, 3)
		v := b.FLoad(a, b.Add(ab, off), 0)
		b.Accum(isa.FADD, acc, b.FMul(v, v))
		return b
	})
	ob := after.AddrOf(out)
	after.FStore(out, ob, 0, acc)
	after.ExitRegion()
	r.Seal()
	return p
}

var corpus = []struct {
	name string
	mk   func() *ir.Program
	// fpReduce marks programs whose FP reduction reassociates under LLP
	// chunking (bitwise equality not guaranteed; compare loosely).
	fpReduce bool
}{
	{"copyadd", func() *ir.Program { return progCopyAdd(64) }, false},
	{"reduction", func() *ir.Program { return progReduction(64) }, false},
	{"carried", func() *ir.Program { return progCarried(48) }, false},
	{"diamond", func() *ir.Program { return progDiamond(32) }, false},
	{"multi", progMultiRegion, false},
	{"strands", func() *ir.Program { return progStrands(64) }, false},
	{"float", func() *ir.Program { return progFloat(64) }, true},
}

// runAll compiles and simulates, failing the test on any error.
func runConfig(t *testing.T, p *ir.Program, strat Strategy, cores int) *core.RunResult {
	t.Helper()
	cp, err := Compile(p, Options{Cores: cores, Strategy: strat})
	if err != nil {
		t.Fatalf("compile %s/%d: %v", strat, cores, err)
	}
	res, err := core.New(core.DefaultConfig(cores)).Run(cp)
	if err != nil {
		t.Fatalf("run %s/%d: %v", strat, cores, err)
	}
	return res
}

func TestAllStrategiesMatchInterpreter(t *testing.T) {
	strategies := []Strategy{Serial, ForceILP, ForceFTLP, ForceLLP, Hybrid}
	counts := []int{1, 2, 4}
	for _, tc := range corpus {
		t.Run(tc.name, func(t *testing.T) {
			p := tc.mk()
			golden, err := interp.Run(p, interp.Options{})
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range strategies {
				for _, n := range counts {
					t.Run(fmt.Sprintf("%s-%dcore", s, n), func(t *testing.T) {
						res := runConfig(t, p, s, n)
						if tc.fpReduce && s == ForceLLP || tc.fpReduce && s == Hybrid {
							checkFloatClose(t, p, golden.Mem, res.Mem)
							return
						}
						if !res.Mem.Equal(golden.Mem) {
							addr, a, b, _ := golden.Mem.FirstDiff(res.Mem)
							t.Fatalf("memory mismatch at %#x: interp=%d machine=%d", addr, a, b)
						}
					})
				}
			}
		})
	}
}

// checkFloatClose compares float arrays within a relative tolerance
// (chunked FP reductions reassociate).
func checkFloatClose(t *testing.T, p *ir.Program, want, got interface {
	LoadW(int64) uint64
}) {
	t.Helper()
	for _, arr := range p.Arrays {
		for i := int64(0); i < arr.Words; i++ {
			w := want.LoadW(arr.Base + i*8)
			g := got.LoadW(arr.Base + i*8)
			if arr.Float {
				fw, fg := ir.U2F(w), ir.U2F(g)
				d := fw - fg
				if d < 0 {
					d = -d
				}
				tol := 1e-9 * (1 + abs(fw))
				if d > tol {
					t.Fatalf("%s[%d]: interp=%g machine=%g", arr.Name, i, fw, fg)
				}
			} else if w != g {
				t.Fatalf("%s[%d]: interp=%d machine=%d", arr.Name, i, w, g)
			}
		}
	}
}

func mustProfile(t *testing.T, p *ir.Program) *prof.Profile {
	t.Helper()
	pr, err := prof.Collect(p)
	if err != nil {
		t.Fatal(err)
	}
	return pr
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func TestSerialBaselineHasNoCommunication(t *testing.T) {
	p := progCopyAdd(32)
	cp, err := Compile(p, Options{Cores: 1, Strategy: Serial})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range cp.Regions {
		for _, in := range r.Code[0] {
			if in.Op.IsComm() {
				t.Fatalf("serial code contains %v", in)
			}
		}
	}
}

// classifyFirst is the classifier's hybrid choice for p's first region.
func classifyFirst(t *testing.T, p *ir.Program, cores int) Choice {
	t.Helper()
	cls, err := ClassifyProgram(p, Options{Cores: cores, Strategy: Hybrid, Profile: mustProfile(t, p)})
	if err != nil {
		t.Fatal(err)
	}
	return cls[0].Choice
}

func TestDOALLSelectedForCleanLoop(t *testing.T) {
	if got := classifyFirst(t, progCopyAdd(64), 4); got != ChoseLLP {
		t.Errorf("selection = %v, want LLP", got)
	}
}

func TestDOALLNotSelectedForCarriedLoop(t *testing.T) {
	if got := classifyFirst(t, progCarried(48), 4); got == ChoseLLP {
		t.Error("carried-dependence loop selected as LLP")
	}
}

func TestForceLLPParallelizesAndSpeedsUp(t *testing.T) {
	p := progCopyAdd(256)
	base := runConfig(t, p, Serial, 1)
	par := runConfig(t, p, ForceLLP, 4)
	if par.TotalCycles >= base.TotalCycles {
		t.Errorf("DOALL on 4 cores: %d cycles >= serial %d", par.TotalCycles, base.TotalCycles)
	}
	if par.Run.TMConflicts != 0 {
		t.Errorf("clean DOALL loop hit %d conflicts", par.Run.TMConflicts)
	}
}

func TestCoupledILPSpeedsUpWideBlock(t *testing.T) {
	// A region with abundant straight-line ILP must benefit from coupled
	// execution on 2 cores.
	p := ir.NewProgram("wideilp")
	x := p.Array("x", 64)
	out := p.Array("out", 8)
	for i := int64(0); i < 64; i++ {
		p.SetInit(x, i, i)
	}
	r := p.Region("wide")
	b := r.NewBlock()
	xb := b.AddrOf(x)
	ob := b.AddrOf(out)
	// 8 independent chains.
	for c := int64(0); c < 8; c++ {
		v := b.Load(x, xb, c*64)
		for k := 0; k < 6; k++ {
			v = b.AddI(v, c+int64(k))
		}
		b.Store(out, ob, c*8, v)
	}
	b.ExitRegion()
	r.Seal()
	base := runConfig(t, p, Serial, 1)
	par := runConfig(t, p, ForceILP, 2)
	if par.TotalCycles >= base.TotalCycles {
		t.Errorf("ILP on 2 cores: %d cycles >= serial %d", par.TotalCycles, base.TotalCycles)
	}
}

func TestCarriedLoopFallsBackCorrectly(t *testing.T) {
	// Even under ForceLLP, the carried loop must produce serial semantics.
	p := progCarried(48)
	golden, err := interp.Run(p, interp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res := runConfig(t, p, ForceLLP, 4)
	if !res.Mem.Equal(golden.Mem) {
		t.Error("ForceLLP corrupted a carried-dependence loop")
	}
}

func TestHybridUsesBothModes(t *testing.T) {
	p := progMultiRegion()
	res := runConfig(t, p, Hybrid, 4)
	if res.TotalCycles == 0 {
		t.Fatal("no cycles")
	}
	// The multi-region program has an ILP region and DOALL/reduction
	// loops: hybrid execution should touch both coupled and decoupled
	// mode (reduction/doall run decoupled, ILP coupled).
	if res.Run.ModeCycles[0] == 0 || res.Run.ModeCycles[1] == 0 {
		t.Logf("mode cycles: %v (acceptable if selection sent all regions one way)", res.Run.ModeCycles)
	}
}
