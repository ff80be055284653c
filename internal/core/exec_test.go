package core

import (
	"strings"
	"testing"

	"voltron/internal/isa"
)

func validRegion(cores int) *CompiledRegion {
	cr := &CompiledRegion{Name: "r", Mode: Decoupled}
	for c := 0; c < cores; c++ {
		a := newAsm()
		if c == 0 {
			a.emit(isa.Inst{Op: isa.HALT})
		} else {
			a.label(int64(100 + c))
			a.emit(isa.Inst{Op: isa.SLEEP})
		}
		cr.Code = append(cr.Code, a.code)
		cr.Labels = append(cr.Labels, a.labels)
		cr.Entry = append(cr.Entry, 0)
		cr.StartAwake = append(cr.StartAwake, c == 0)
	}
	return cr
}

func TestValidateAcceptsWellFormed(t *testing.T) {
	if err := validRegion(2).Validate(2); err != nil {
		t.Errorf("valid region rejected: %v", err)
	}
}

func TestValidateTableSizes(t *testing.T) {
	cr := validRegion(2)
	cr.Entry = cr.Entry[:1]
	if err := cr.Validate(2); err == nil || !strings.Contains(err.Error(), "per-core tables") {
		t.Errorf("mis-sized tables accepted: %v", err)
	}
}

func TestValidateEntryRange(t *testing.T) {
	cr := validRegion(2)
	cr.Entry[0] = 99
	if err := cr.Validate(2); err == nil || !strings.Contains(err.Error(), "entry") {
		t.Errorf("out-of-range entry accepted: %v", err)
	}
}

func TestValidateSpawnTargets(t *testing.T) {
	cr := validRegion(2)
	cr.Code[0] = append([]isa.Inst{{Op: isa.SPAWN, Core: 1, Imm: 42}}, cr.Code[0]...)
	if err := cr.Validate(2); err == nil || !strings.Contains(err.Error(), "unresolved label") {
		t.Errorf("spawn to unknown label accepted: %v", err)
	}
	cr.Code[0][0].Core = 7
	if err := cr.Validate(2); err == nil || !strings.Contains(err.Error(), "target core") {
		t.Errorf("spawn to nonexistent core accepted: %v", err)
	}
}

func TestValidateCoupledNeedsAllAwake(t *testing.T) {
	cr := validRegion(2)
	cr.Mode = Coupled
	if err := cr.Validate(2); err == nil || !strings.Contains(err.Error(), "awake") {
		t.Errorf("coupled region with sleeping core accepted: %v", err)
	}
}

func TestValidateDOALLNeedsFallback(t *testing.T) {
	cr := validRegion(2)
	cr.Mode = DOALL
	cr.TxCores = 2
	if err := cr.Validate(2); err == nil || !strings.Contains(err.Error(), "fallback") {
		t.Errorf("DOALL region without fallback accepted: %v", err)
	}
}

func TestModeStrings(t *testing.T) {
	if Coupled.String() != "coupled" || Decoupled.String() != "decoupled" || DOALL.String() != "doall" {
		t.Error("mode names wrong")
	}
	if Coupled.StatsMode() == Decoupled.StatsMode() {
		t.Error("stats modes collapsed")
	}
	if DOALL.StatsMode() != Decoupled.StatsMode() {
		t.Error("DOALL must account as decoupled execution")
	}
}

func TestAwakeEmptyCodeRejected(t *testing.T) {
	cr := validRegion(2)
	cr.Code[0] = nil
	if err := cr.Validate(2); err == nil || !strings.Contains(err.Error(), "empty code") {
		t.Errorf("awake core with empty code accepted: %v", err)
	}
}

// TestLabelTableMatchesMap pins the dense-plus-overflow label table against
// the label map it flattens: every stored id, every id next to one, ids far
// beyond the dense bound and negative ids resolve exactly as a map lookup
// does. The maps mix dense ids with thread entry labels (1<<20 + core);
// only the out-of-range ids go to the overflow list.
func TestLabelTableMatchesMap(t *testing.T) {
	maps := []map[int64]int{
		{},
		{0: 0, 3: 7, 9: 12},
		{1<<20 + 3: 0, 2: 5, 40: 9},
		{1<<20 + 1: 0, 1<<20 + 2: 4, -5: 6, maxDenseLabel - 1: 8, maxDenseLabel: 10},
		{1 << 40: 1},
	}
	for _, m := range maps {
		lt := newLabelTable(m)
		outside := 0
		for id := range m {
			if id < 0 || id >= maxDenseLabel {
				outside++
			}
		}
		if len(lt.overflow) != outside {
			t.Errorf("%v: %d ids in the overflow list, want the %d outside the dense bound", m, len(lt.overflow), outside)
		}
		probes := []int64{-1, 0, 1, maxDenseLabel, 1 << 20, 1<<20 + 4, 1 << 62}
		for id := range m {
			probes = append(probes, id-1, id, id+1)
		}
		for _, id := range probes {
			want, wok := m[id]
			got, ok := lt.lookup(id)
			if ok != wok || got != want {
				t.Errorf("%v: lookup(%d) = %d, %v; map has %d, %v", m, id, got, ok, want, wok)
			}
		}
	}
}

// TestResolveCountsRegisters: resolve records, per stream and for the
// fallback, the highest register index each class names plus one.
func TestResolveCountsRegisters(t *testing.T) {
	cr := validRegion(2)
	cr.Code[1] = append([]isa.Inst{
		{Op: isa.ADD, Dst: isa.GPR(7), Src1: isa.GPR(2), Src2: isa.GPR(9)},
		{Op: isa.CMPLT, Dst: isa.PR(3), Src1: isa.FPR(4)},
		{Op: isa.PBR, Dst: isa.BTR(1)},
	}, cr.Code[1]...)
	cr.Fallback = []isa.Inst{{Op: isa.MOVI, Dst: isa.GPR(5)}, {Op: isa.HALT}}
	cr.resolve()
	if want := (regCounts{}); cr.regs[0] != want {
		t.Errorf("core 0 counts %v, want %v", cr.regs[0], want)
	}
	if want := (regCounts{10, 5, 4, 2}); cr.regs[1] != want {
		t.Errorf("core 1 counts %v, want %v", cr.regs[1], want)
	}
	if want := (regCounts{6, 0, 0, 0}); cr.fbRegs != want {
		t.Errorf("fallback counts %v, want %v", cr.fbRegs, want)
	}
}
