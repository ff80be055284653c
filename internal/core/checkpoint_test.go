package core

import (
	"context"
	"reflect"
	"testing"

	"voltron/internal/ir"
	"voltron/internal/isa"
)

// pendingAbortRegion is a DOALL region whose two transactions conflict
// after core 0 has sent core 1 a value nobody receives: the serial fallback
// ends the region with the message still queued.
func pendingAbortRegion(out *ir.Array) *CompiledRegion {
	c0 := newAsm()
	c0.emit(isa.Inst{Op: isa.SPAWN, Core: 1, Imm: 10})
	c0.emit(isa.Inst{Op: isa.MOVI, Dst: isa.GPR(5), Imm: 42})
	c0.emit(isa.Inst{Op: isa.SEND, Src1: isa.GPR(5), Core: 1})
	c0.emit(isa.Inst{Op: isa.TXBEGIN, Imm: 0})
	c0.emit(isa.Inst{Op: isa.MOVI, Dst: isa.GPR(1), Imm: out.Base})
	c0.emit(isa.Inst{Op: isa.MOVI, Dst: isa.GPR(2), Imm: 1})
	c0.emit(isa.Inst{Op: isa.STORE, Src1: isa.GPR(1), Src2: isa.GPR(2)})
	c0.emit(isa.Inst{Op: isa.TXCOMMIT})
	c0.emit(isa.Inst{Op: isa.HALT})
	c1 := newAsm()
	c1.label(10)
	c1.emit(isa.Inst{Op: isa.TXBEGIN, Imm: 1})
	c1.emit(isa.Inst{Op: isa.MOVI, Dst: isa.GPR(1), Imm: out.Base})
	c1.emit(isa.Inst{Op: isa.MOVI, Dst: isa.GPR(2), Imm: 2})
	c1.emit(isa.Inst{Op: isa.STORE, Src1: isa.GPR(1), Src2: isa.GPR(2)})
	c1.emit(isa.Inst{Op: isa.TXCOMMIT})
	c1.emit(isa.Inst{Op: isa.SLEEP})
	fb := newAsm()
	fb.emit(isa.Inst{Op: isa.MOVI, Dst: isa.GPR(1), Imm: out.Base})
	fb.emit(isa.Inst{Op: isa.MOVI, Dst: isa.GPR(2), Imm: 2})
	fb.emit(isa.Inst{Op: isa.STORE, Src1: isa.GPR(1), Src2: isa.GPR(2)})
	fb.emit(isa.Inst{Op: isa.HALT})
	return &CompiledRegion{
		Name: "pending-abort", Mode: DOALL,
		Code:   [][]isa.Inst{c0.code, c1.code},
		Labels: []map[int64]int{c0.labels, c1.labels},
		Entry:  []int{0, 0}, StartAwake: []bool{true, false},
		TxCores:        2,
		Fallback:       fb.code,
		FallbackLabels: fb.labels,
	}
}

// recvStaleRegion receives the message pendingAbortRegion left behind on
// core 1 and stores it to out[2].
func recvStaleRegion(out *ir.Array) *CompiledRegion {
	c0 := newAsm()
	c0.emit(isa.Inst{Op: isa.HALT})
	c1 := newAsm()
	c1.emit(isa.Inst{Op: isa.RECV, Dst: isa.GPR(3), Core: 0})
	c1.emit(isa.Inst{Op: isa.MOVI, Dst: isa.GPR(4), Imm: out.Base + 16})
	c1.emit(isa.Inst{Op: isa.STORE, Src1: isa.GPR(4), Src2: isa.GPR(3)})
	c1.emit(isa.Inst{Op: isa.HALT})
	return &CompiledRegion{
		Name: "recv-stale", Mode: Decoupled,
		Code:   [][]isa.Inst{c0.code, c1.code},
		Labels: []map[int64]int{c0.labels, c1.labels},
		Entry:  []int{0, 0}, StartAwake: []bool{true, true},
	}
}

// TestResumeCarriesBoundaryState covers the boundary state the suite's
// programs leave empty: a message still queued when a region ends in the
// TM fallback, the TM conflict count, and direct-network wires a machine's
// earlier run drove at the generation the resumed run first drives them.
// The resuming machine has just run a one-iteration variant of the
// coupled region; it resumes from every region boundary, under both
// steppers, and must match an uninterrupted run.
func TestResumeCarriesBoundaryState(t *testing.T) {
	cp := coupledStallProgram()
	out := cp.Src.Arrays[0]
	doall, _ := doallProgram(true)
	cp.Regions = []*CompiledRegion{
		pendingAbortRegion(out), recvStaleRegion(out), doall.Regions[0],
		queuePipelineProgram().Regions[0], cp.Regions[0],
	}
	once := coupledStallProgram()
	for i, in := range once.Regions[0].Code[0] {
		if in.Op == isa.CMPLT {
			once.Regions[0].Code[0][i].Imm = 1
		}
	}
	for _, ref := range []bool{false, true} {
		cfg := DefaultConfig(2)
		cfg.Reference = ref
		want := mustRun(t, cfg, cp)
		if got := want.Mem.LoadW(out.Base + 16); got != 42 || want.TMConflicts != 2 {
			t.Fatalf("reference=%v: stale message %d (want 42), %d TM conflicts (want 2)", ref, got, want.TMConflicts)
		}
		saver, resumer := New(cfg), New(cfg)
		var ck Checkpoint
		for k := 1; k <= len(cp.Regions); k++ {
			prefix := *cp
			prefix.Regions = cp.Regions[:k]
			if _, err := saver.Run(&prefix); err != nil {
				t.Fatal(err)
			}
			if err := saver.Save(&ck); err != nil {
				t.Fatal(err)
			}
			if _, err := resumer.Run(once); err != nil {
				t.Fatal(err)
			}
			got, err := resumer.ResumeContext(context.Background(), &ck, cp)
			if err != nil {
				t.Fatalf("reference=%v: resume after region %d: %v", ref, k, err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Errorf("reference=%v: resumed after region %d diverges: cycles %v vs %v, regions %v vs %v",
					ref, k, got.TotalCycles, want.TotalCycles, got.RegionCycles, want.RegionCycles)
			}
		}
	}
}

// TestSaveResumeAllocs is the allocation guard for checkpointed runs: once
// the checkpoint buffers are warm, a resume plus a save allocates no more
// than a plain run on a warm machine — the per-run outputs only.
func TestSaveResumeAllocs(t *testing.T) {
	one := tripCountProgram(256)
	cp := *one
	cp.Regions = append(cp.Regions, one.Regions[0], one.Regions[0])
	cfg := DefaultConfig(cp.Cores)
	m := New(cfg)
	prefix := cp
	prefix.Regions = cp.Regions[:1]
	if _, err := m.Run(&prefix); err != nil {
		t.Fatal(err)
	}
	var from, to Checkpoint
	if err := m.Save(&from); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	resumeSave := func() {
		if _, err := m.ResumeContext(ctx, &from, &cp); err != nil {
			t.Fatal(err)
		}
		if err := m.Save(&to); err != nil {
			t.Fatal(err)
		}
	}
	resumeSave() // warm the destination checkpoint
	plain := testing.AllocsPerRun(20, func() {
		if _, err := m.Run(&cp); err != nil {
			t.Fatal(err)
		}
	})
	got := testing.AllocsPerRun(20, resumeSave)
	t.Logf("resume + save %v allocs, plain run %v", got, plain)
	if got > plain {
		t.Errorf("warm resume + save allocates %v objects, a plain run %v", got, plain)
	}
}

// TestSaveRefusesLiveTransaction: a run that ends inside a transaction
// has no region boundary to checkpoint.
func TestSaveRefusesLiveTransaction(t *testing.T) {
	p, _ := srcProg(4)
	a := newAsm()
	a.emit(isa.Inst{Op: isa.TXBEGIN, Imm: 0})
	a.emit(isa.Inst{Op: isa.HALT})
	cp := &CompiledProgram{
		Name: "open-tx", Cores: 1, Src: p,
		Regions: []*CompiledRegion{{
			Name: "r", Mode: Decoupled,
			Code:   [][]isa.Inst{a.code},
			Labels: []map[int64]int{a.labels},
			Entry:  []int{0}, StartAwake: []bool{true},
		}},
	}
	m := New(DefaultConfig(1))
	if _, err := m.Run(cp); err != nil {
		t.Fatal(err)
	}
	if err := m.Save(new(Checkpoint)); err == nil {
		t.Error("Save with a live transaction succeeded")
	}
}
