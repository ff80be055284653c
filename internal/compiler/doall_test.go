package compiler

import (
	"fmt"
	"maps"
	"slices"
	"testing"

	"voltron/internal/core"
	"voltron/internal/interp"
	"voltron/internal/ir"
	"voltron/internal/isa"
	"voltron/internal/workload"
)

func TestFindDOALLEligibility(t *testing.T) {
	p := progCopyAdd(64)
	pr := mustProfile(t, p)
	opts := Options{Cores: 4, Strategy: ForceLLP, Profile: pr}.withDefaults()
	info, err := findDOALL(p.Regions[0], opts)
	if err != nil {
		t.Fatalf("clean loop rejected: %v", err)
	}
	if info.total != 64 {
		t.Errorf("total iterations = %d, want 64", info.total)
	}
	if info.exitBlock == nil || len(info.pre) == 0 {
		t.Error("region shape not decomposed")
	}
}

func TestFindDOALLRejectsCarried(t *testing.T) {
	p := progCarried(48)
	pr := mustProfile(t, p)
	opts := Options{Cores: 4, Strategy: ForceLLP, Profile: pr}.withDefaults()
	if _, err := findDOALL(p.Regions[0], opts); err == nil {
		t.Error("loop with carried memory dependence accepted")
	}
}

func TestFindDOALLRejectsLowTrip(t *testing.T) {
	p := progCopyAdd(4)
	pr := mustProfile(t, p)
	opts := Options{Cores: 4, Strategy: ForceLLP, Profile: pr, DOALLTripThreshold: 8}.withDefaults()
	if _, err := findDOALL(p.Regions[0], opts); err == nil {
		t.Error("4-iteration loop accepted with threshold 8")
	}
}

func TestFindDOALLStaticWithoutProfile(t *testing.T) {
	// Without a profile, the static affine test decides.
	p := progCopyAdd(64)
	opts := Options{Cores: 4, Strategy: ForceLLP}.withDefaults()
	if _, err := findDOALL(p.Regions[0], opts); err != nil {
		t.Errorf("affine-provable loop rejected statically: %v", err)
	}
	pc := progCarried(48)
	if _, err := findDOALL(pc.Regions[0], opts); err == nil {
		t.Error("statically-carried loop accepted without profile")
	}
}

func TestDOALLChunkBounds(t *testing.T) {
	// 10 iterations on 4 cores: chunks of 3 — the last core gets 1.
	p := progCopyAdd(10)
	pr := mustProfile(t, p)
	opts := Options{Cores: 4, Strategy: ForceLLP, Profile: pr, DOALLTripThreshold: 2}.withDefaults()
	cr, ok, err := tryDOALL(p.Regions[0], opts)
	if err != nil || !ok {
		t.Fatalf("tryDOALL: ok=%v err=%v", ok, err)
	}
	if cr.TxCores != 4 || cr.Mode != core.DOALL {
		t.Errorf("TxCores=%d Mode=%v", cr.TxCores, cr.Mode)
	}
	// Run and verify: uneven chunks must still cover every element.
	cp := &core.CompiledProgram{Name: "t", Cores: 4, Src: p, Regions: []*core.CompiledRegion{cr}}
	res, err := core.New(core.DefaultConfig(4)).Run(cp)
	if err != nil {
		t.Fatal(err)
	}
	golden, err := interp.Run(p, interp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Mem.Equal(golden.Mem) {
		t.Error("uneven chunking produced wrong memory")
	}
}

func TestDOALLReductionExpansion(t *testing.T) {
	p := progReduction(64)
	pr := mustProfile(t, p)
	for _, cores := range []int{2, 4} {
		cp, err := Compile(p, Options{Cores: cores, Strategy: ForceLLP, Profile: pr})
		if err != nil {
			t.Fatal(err)
		}
		if cp.Regions[0].Mode != core.DOALL {
			t.Fatalf("%d cores: reduction loop not parallelized (mode %v)", cores, cp.Regions[0].Mode)
		}
		res, err := core.New(core.DefaultConfig(cores)).Run(cp)
		if err != nil {
			t.Fatal(err)
		}
		golden, err := interp.Run(p, interp.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Mem.Equal(golden.Mem) {
			addr, a, b, _ := golden.Mem.FirstDiff(res.Mem)
			t.Fatalf("%d cores: reduction wrong at %#x: %d vs %d", cores, addr, a, b)
		}
		if res.TMConflicts != 0 {
			t.Errorf("%d cores: reduction loop conflicted %d times", cores, res.TMConflicts)
		}
	}
}

func TestDOALLMulReduction(t *testing.T) {
	// A product reduction: workers must start at identity 1.
	p := ir.NewProgram("prod")
	src := p.Array("src", 16)
	out := p.Array("out", 1)
	for i := int64(0); i < 16; i++ {
		p.SetInit(src, i, (i%3)+1)
	}
	r := p.Region("prod")
	pre := r.NewBlock()
	sb := pre.AddrOf(src)
	acc := pre.MovI(1)
	after := ir.BuildCountedLoop(pre, ir.LoopSpec{Start: 0, Limit: 16, Step: 1}, func(b *ir.Block, i ir.Value) *ir.Block {
		off := b.ShlI(i, 3)
		b.Accum(isa.MUL, acc, b.Load(src, b.Add(sb, off), 0))
		return b
	})
	after.Store(out, after.AddrOf(out), 0, acc)
	after.ExitRegion()
	r.Seal()
	golden, err := interp.Run(p, interp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cp, err := Compile(p, Options{Cores: 4, Strategy: ForceLLP, DOALLTripThreshold: 4})
	if err != nil {
		t.Fatal(err)
	}
	if cp.Regions[0].Mode != core.DOALL {
		t.Skip("product reduction not recognized")
	}
	res, err := core.New(core.DefaultConfig(4)).Run(cp)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mem.LoadW(out.Base) != golden.Mem.LoadW(out.Base) {
		t.Errorf("product = %d, want %d", res.Mem.LoadW(out.Base), golden.Mem.LoadW(out.Base))
	}
}

func TestDOALLFallbackOnMisspeculation(t *testing.T) {
	// A loop that LOOKS independent under a partial profile but conflicts
	// at runtime: craft it by profiling a version whose observed iterations
	// were clean, then running with a dependence. Simplest path: lie in
	// the profile (CarriedDep empty) for the carried loop — the TM must
	// catch the violation and the fallback must produce serial semantics.
	p := progCarried(48)
	pr := mustProfile(t, p)
	header := p.Regions[0].Blocks[1]
	delete(pr.CarriedDep, header) // simulate unlucky profiling inputs
	opts := Options{Cores: 4, Strategy: ForceLLP, Profile: pr}.withDefaults()
	cr, ok, err := tryDOALL(p.Regions[0], opts)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Skip("register-recurrence check rejected the loop before speculation")
	}
	cp := &core.CompiledProgram{Name: "t", Cores: 4, Src: p, Regions: []*core.CompiledRegion{cr}}
	res, err := core.New(core.DefaultConfig(4)).Run(cp)
	if err != nil {
		t.Fatal(err)
	}
	golden, err := interp.Run(p, interp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Mem.Equal(golden.Mem) {
		t.Fatal("misspeculated DOALL did not roll back to serial semantics")
	}
	if res.TMConflicts == 0 {
		t.Error("no conflict recorded despite carried dependence")
	}
}

func TestInsertKeepVsInsertAt(t *testing.T) {
	code := []isa.Inst{{Op: isa.NOP}, {Op: isa.HALT}}
	labels := map[int64]int{0: 0, 1: 1}
	seq := []isa.Inst{{Op: isa.TXCOMMIT}}
	c2, l2 := insertAt(code, labels, 1, seq)
	if l2[1] != 2 || c2[1].Op != isa.TXCOMMIT {
		t.Errorf("insertAt: labels=%v", l2)
	}
	c3, l3 := insertKeep(code, labels, 1, seq)
	if l3[1] != 1 || c3[1].Op != isa.TXCOMMIT || c3[2].Op != isa.HALT {
		t.Errorf("insertKeep: labels=%v", l3)
	}
}

// TestDOALLChunkTemplate pins the worker-chunk template against its oracle:
// every worker chunk tryDOALL derives by patching worker 1's must equal, in
// code and labels, the chunk genChunk generates for that core directly.
// It covers every DOALL-eligible region of the suite and of 100 random
// programs at 2, 4, 16 and 64 cores.
func TestDOALLChunkTemplate(t *testing.T) {
	type prog struct {
		name string
		p    *ir.Program
	}
	var progs []prog
	for _, name := range workload.Names() {
		p, err := workload.Build(name)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, prog{name, p})
	}
	for seed := 0; seed < 100; seed++ {
		p, err := workload.Random(int64(seed), 1+seed%3)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, prog{fmt.Sprintf("random%d", seed), p})
	}
	var regions, workers int
	for _, pg := range progs {
		pg.p.PrepareOnce(func() { Optimize(pg.p) })
		pr := mustProfile(t, pg.p)
		for _, r := range pg.p.Regions {
			for _, cores := range []int{2, 4, 16, 64} {
				opts := Options{Cores: cores, Strategy: ForceLLP, Profile: pr}.withDefaults()
				info, err := findDOALL(r, opts)
				if err != nil {
					continue
				}
				cr, ok, err := tryDOALL(r, opts)
				if err != nil || !ok {
					t.Fatalf("%s/%s/%d: tryDOALL ok=%v err=%v", pg.name, r.Name, cores, ok, err)
				}
				regions++
				chunk := (info.total + int64(cores) - 1) / int64(cores)
				for c := 2; c < cores; c++ {
					lo, hi := info.chunkBounds(c, chunk)
					code, labels, err := genChunk(r, info, c, lo, hi, cores, r.NumValues()+8)
					if err != nil {
						t.Fatal(err)
					}
					if !slices.Equal(cr.Code[c], code) || !maps.Equal(cr.Labels[c], labels) {
						t.Fatalf("%s/%s/%d: worker %d differs from its generated chunk", pg.name, r.Name, cores, c)
					}
					workers++
				}
			}
		}
	}
	t.Logf("%d DOALL regions, %d patched workers checked", regions, workers)
	if regions == 0 || workers == 0 {
		t.Fatal("no DOALL-eligible region exercised the template")
	}
}

// TestDOALLPatchNeedsUniqueSites checks that a template whose induction
// init is not exactly one instruction is rejected, not half-patched.
func TestDOALLPatchNeedsUniqueSites(t *testing.T) {
	p := progCopyAdd(64)
	pr := mustProfile(t, p)
	opts := Options{Cores: 4, Strategy: ForceLLP, Profile: pr}.withDefaults()
	r := p.Regions[0]
	info, err := findDOALL(r, opts)
	if err != nil {
		t.Fatal(err)
	}
	cr, ok, err := tryDOALL(r, opts)
	if err != nil || !ok {
		t.Fatalf("tryDOALL: ok=%v err=%v", ok, err)
	}
	if _, _, err := patchWorker(cr.Code[1], cr.Labels[1], info, 2, 0, 1); err != nil {
		t.Fatalf("well-formed template rejected: %v", err)
	}
	dup := append(slices.Clone(cr.Code[1]), isa.Inst{Op: isa.MOVI, IROp: info.iv.InitOp.ID})
	if _, _, err := patchWorker(dup, cr.Labels[1], info, 2, 0, 1); err == nil {
		t.Error("template with a duplicated induction init accepted")
	}
}
