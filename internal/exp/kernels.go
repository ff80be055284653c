package exp

import (
	"context"

	"voltron/internal/compiler"
	"voltron/internal/core"
	"voltron/internal/ir"
	"voltron/internal/par"
)

// The paper's worked kernel examples (Figures 7-9): the gsmdecode DOALL
// loop (1.9x on 2 cores in the paper), the 164.gzip strand loop (1.2x), and
// the gsmdecode ILP loop (1.78x).

// GsmLLPKernel builds Figure 7's loop:
//
//	for (i = 0; i < 8; ++i) { uf[i] = u[i]; rpf[i] = rp[i] * scalef; }
func GsmLLPKernel(reps int64) *ir.Program {
	p := ir.NewProgram("gsm-llp")
	n := int64(8) * reps // scaled up so timing is not all region overhead
	u := p.Array("u", n)
	uf := p.Array("uf", n)
	rp := p.Array("rp", n)
	rpf := p.Array("rpf", n)
	for i := int64(0); i < n; i++ {
		p.SetInit(u, i, i*3+1)
		p.SetInit(rp, i, i*5+2)
	}
	r := p.Region("uf_rpf")
	pre := r.NewBlock()
	ub := pre.AddrOf(u)
	ufb := pre.AddrOf(uf)
	rpb := pre.AddrOf(rp)
	rpfb := pre.AddrOf(rpf)
	scalef := pre.MovI(3)
	after := ir.BuildCountedLoop(pre, ir.LoopSpec{Start: 0, Limit: n, Step: 1}, func(b *ir.Block, i ir.Value) *ir.Block {
		off := b.ShlI(i, 3)
		b.Store(uf, b.Add(ufb, off), 0, b.Load(u, b.Add(ub, off), 0))
		rv := b.Load(rp, b.Add(rpb, off), 0)
		b.Store(rpf, b.Add(rpfb, off), 0, b.Mul(rv, scalef))
		return b
	})
	after.ExitRegion()
	r.Seal()
	return p
}

// GzipStrandKernel builds Figure 8's loop: two miss-prone streams compared
// until they diverge, with the predicate fed by loads on both cores.
func GzipStrandKernel(n int64) *ir.Program {
	p := ir.NewProgram("gzip-strands")
	scan := p.Array("scan", n)
	match := p.Array("match", n)
	out := p.Array("out", 1)
	for i := int64(0); i < n; i++ {
		p.SetInit(scan, i, i%61)
		p.SetInit(match, i, i%61)
	}
	p.SetInit(match, n-n/8, 424242)
	r := p.Region("longest_match")
	pre := r.NewBlock()
	sb := pre.AddrOf(scan)
	mb := pre.AddrOf(match)
	i := pre.MovI(0)
	body := r.NewBlock()
	exit := r.NewBlock()
	pre.JumpTo(body)
	off := body.ShlI(i, 3)
	sv := body.Load(scan, body.Add(sb, off), 0)
	mv := body.Load(match, body.Add(mb, off), 0)
	eq := body.CmpEQ(sv, mv)
	body.AddTo(i, 1)
	cont := body.PAnd(eq, body.CmpLTI(i, n))
	body.BranchIf(cont, body, exit)
	exit.Store(out, exit.AddrOf(out), 0, i)
	exit.ExitRegion()
	r.Seal()
	return p
}

// GsmILPKernel builds Figure 9's loop shape: a short counted loop whose
// body holds several independent multiply/accumulate chains over
// cache-resident data (the rrp/v filter).
func GsmILPKernel(trips int64) *ir.Program {
	p := ir.NewProgram("gsm-ilp")
	rrp := p.Array("rrp", 8)
	v := p.Array("v", 16)
	out := p.Array("out", 32)
	for i := int64(0); i < 8; i++ {
		p.SetInit(rrp, i, i*7+1)
	}
	for i := int64(0); i < 16; i++ {
		p.SetInit(v, i, i*11+3)
	}
	r := p.Region("ltp_filter")
	pre := r.NewBlock()
	rb := pre.AddrOf(rrp)
	vb := pre.AddrOf(v)
	ob := pre.AddrOf(out)
	after := ir.BuildCountedLoop(pre, ir.LoopSpec{Start: 0, Limit: trips, Step: 1}, func(b *ir.Block, i ir.Value) *ir.Block {
		for c := int64(0); c < 4; c++ {
			t1 := b.Load(rrp, rb, c*8)
			t2 := b.Load(v, vb, c*8)
			m := b.Mul(t1, t2)
			s := b.AddI(m, 16384)
			sh := b.ShrI(s, 15)
			x := b.AndI(sh, 0xFFFF)
			b.Store(out, ob, c*64, x)
		}
		return b
	})
	after.ExitRegion()
	r.Seal()
	return p
}

// KernelResult is a Figures 7-9 measurement.
type KernelResult struct {
	Name          string
	PaperSpeedup  float64
	Measured2Core float64
}

// Fig7to9 measures the three kernels on a 2-core system. The kernels are
// evaluated concurrently (each call owns its kernel's program, so the
// serial and parallel compiles of one kernel never race); results are
// reported in figure order.
func Fig7to9() ([]KernelResult, error) {
	cases := []struct {
		name  string
		p     *ir.Program
		strat compiler.Strategy
		paper float64
	}{
		{"Fig7 gsmdecode LLP", GsmLLPKernel(64), compiler.ForceLLP, 1.9},
		{"Fig8 gzip strands", GzipStrandKernel(2048), compiler.ForceFTLP, 1.2},
		{"Fig9 gsmdecode ILP", GsmILPKernel(512), compiler.ForceILP, 1.78},
	}
	out := make([]KernelResult, len(cases))
	err := par.Each(len(cases), len(cases), func(i int) error {
		c := cases[i]
		base, err := runProgram(c.p, compiler.Serial, 1)
		if err != nil {
			return err
		}
		fast, err := runProgram(c.p, c.strat, 2)
		if err != nil {
			return err
		}
		out[i] = KernelResult{
			Name:          c.name,
			PaperSpeedup:  c.paper,
			Measured2Core: float64(base.TotalCycles) / float64(fast.TotalCycles),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// runProgram compiles and simulates an ad-hoc program.
func runProgram(p *ir.Program, strat compiler.Strategy, cores int) (*core.RunResult, error) {
	_, res, err := compiler.CompileRun(context.Background(), p,
		compiler.Options{Cores: cores, Strategy: strat}, core.New(core.DefaultConfig(cores)))
	return res, err
}
