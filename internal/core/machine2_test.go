package core

import (
	"testing"

	"voltron/internal/ir"
	"voltron/internal/isa"
	"voltron/internal/stats"
	"voltron/internal/trace"
)

// TestQueueBackpressure: a producer that sends far more messages than the
// pair capacity before the consumer drains them must stall on SEND (and
// the program must still complete).
func TestQueueBackpressure(t *testing.T) {
	p, out := srcProg(4)
	const n = 40 // > pair capacity (16)
	c0 := newAsm()
	c0.emit(isa.Inst{Op: isa.SPAWN, Core: 1, Imm: 10})
	c0.emit(isa.Inst{Op: isa.MOVI, Dst: isa.GPR(1), Imm: 7})
	for i := 0; i < n; i++ {
		c0.emit(isa.Inst{Op: isa.SEND, Src1: isa.GPR(1), Core: 1})
	}
	c0.emit(isa.Inst{Op: isa.HALT})
	c1 := newAsm()
	c1.label(10)
	c1.emit(isa.Inst{Op: isa.MOVI, Dst: isa.GPR(9), Imm: out.Base})
	for i := 0; i < n; i++ {
		c1.emit(isa.Inst{Op: isa.RECV, Dst: isa.GPR(2), Core: 0})
		// A slow consumer: the producer must outpace it and fill the
		// 16-entry pair queue.
		c1.nop().nop().nop()
	}
	c1.emit(isa.Inst{Op: isa.STORE, Src1: isa.GPR(9), Src2: isa.GPR(2)})
	c1.emit(isa.Inst{Op: isa.SLEEP})
	cp := &CompiledProgram{
		Name: "t", Cores: 2, Src: p,
		Regions: []*CompiledRegion{{
			Name: "r", Mode: Decoupled,
			Code:   [][]isa.Inst{c0.code, c1.code},
			Labels: []map[int64]int{c0.labels, c1.labels},
			Entry:  []int{0, 0}, StartAwake: []bool{true, false},
		}},
	}
	res := mustRun(t, DefaultConfig(2), cp)
	if got := int64(res.Mem.LoadW(out.Base)); got != 7 {
		t.Errorf("out = %d, want 7", got)
	}
	if res.Run.Cores[0].Cycles[stats.SendStall] == 0 {
		t.Error("producer never hit queue back-pressure")
	}
}

// TestEightCoreDecoupled: decoupled execution scales past the coupled
// 4-core group limit — the paper allows decoupled threads across groups.
func TestEightCoreDecoupled(t *testing.T) {
	p, out := srcProg(16)
	c0 := newAsm()
	for w := 1; w < 8; w++ {
		c0.emit(isa.Inst{Op: isa.SPAWN, Core: w, Imm: int64(10 + w)})
	}
	c0.emit(isa.Inst{Op: isa.MOVI, Dst: isa.GPR(9), Imm: out.Base})
	c0.emit(isa.Inst{Op: isa.MOVI, Dst: isa.GPR(1), Imm: 100})
	c0.emit(isa.Inst{Op: isa.STORE, Src1: isa.GPR(9), Src2: isa.GPR(1)})
	// Collect one value from each worker.
	for w := 1; w < 8; w++ {
		c0.emit(isa.Inst{Op: isa.RECV, Dst: isa.GPR(2), Core: w})
		c0.emit(isa.Inst{Op: isa.NOP})
		c0.emit(isa.Inst{Op: isa.STORE, Src1: isa.GPR(9), Src2: isa.GPR(2), Imm: int64(w) * 8})
	}
	c0.emit(isa.Inst{Op: isa.HALT})
	workers := make([]*asm, 8)
	workers[0] = c0
	for w := 1; w < 8; w++ {
		a := newAsm()
		a.label(int64(10 + w))
		a.emit(isa.Inst{Op: isa.MOVI, Dst: isa.GPR(1), Imm: int64(w * 11)})
		a.emit(isa.Inst{Op: isa.SEND, Src1: isa.GPR(1), Core: 0})
		a.emit(isa.Inst{Op: isa.SLEEP})
		workers[w] = a
	}
	cr := &CompiledRegion{Name: "r", Mode: Decoupled}
	for w := 0; w < 8; w++ {
		cr.Code = append(cr.Code, workers[w].code)
		cr.Labels = append(cr.Labels, workers[w].labels)
		cr.Entry = append(cr.Entry, 0)
		cr.StartAwake = append(cr.StartAwake, w == 0)
	}
	cp := &CompiledProgram{Name: "t", Cores: 8, Src: p, Regions: []*CompiledRegion{cr}}
	res := mustRun(t, DefaultConfig(8), cp)
	for w := 1; w < 8; w++ {
		if got := int64(res.Mem.LoadW(out.Base + int64(w)*8)); got != int64(w*11) {
			t.Errorf("worker %d result = %d, want %d", w, got, w*11)
		}
	}
	if res.Run.Spawns != 7 {
		t.Errorf("spawns = %d, want 7", res.Run.Spawns)
	}
}

// TestAccountingConservation: every core's accounted cycles equal the
// wall-clock total.
func TestAccountingConservation(t *testing.T) {
	cp, _ := doallProgram(false)
	res := mustRun(t, DefaultConfig(2), cp)
	for i := range res.Run.Cores {
		if got := res.Run.Cores[i].Total(); got != res.TotalCycles {
			t.Errorf("core %d accounted %d cycles of %d", i, got, res.TotalCycles)
		}
	}
}

// TestAccountingConservationCoupled: same invariant in coupled mode with
// stalls.
func TestAccountingConservationCoupled(t *testing.T) {
	p, out := srcProg(8)
	a := newAsm()
	a.emit(isa.Inst{Op: isa.MOVI, Dst: isa.GPR(1), Imm: out.Base})
	a.emit(isa.Inst{Op: isa.LOAD, Dst: isa.GPR(2), Src1: isa.GPR(1)})
	a.nop()
	a.nop()
	a.emit(isa.Inst{Op: isa.STORE, Src1: isa.GPR(1), Src2: isa.GPR(2), Imm: 8})
	a.emit(isa.Inst{Op: isa.HALT})
	b := newAsm()
	b.nop().nop().nop().nop().nop()
	b.emit(isa.Inst{Op: isa.HALT})
	cp := &CompiledProgram{
		Name: "t", Cores: 2, Src: p,
		Regions: []*CompiledRegion{{
			Name: "r", Mode: Coupled,
			Code:   [][]isa.Inst{a.code, b.code},
			Labels: []map[int64]int{a.labels, b.labels},
			Entry:  []int{0, 0}, StartAwake: []bool{true, true},
		}},
	}
	res := mustRun(t, DefaultConfig(2), cp)
	for i := range res.Run.Cores {
		if got := res.Run.Cores[i].Total(); got != res.TotalCycles {
			t.Errorf("core %d accounted %d of %d cycles", i, got, res.TotalCycles)
		}
	}
}

// TestQueueLatencyOverride: the config knobs must change queue timing.
func TestQueueLatencyOverride(t *testing.T) {
	build := func() *CompiledProgram {
		p, out := srcProg(4)
		c0 := newAsm()
		c0.emit(isa.Inst{Op: isa.SPAWN, Core: 1, Imm: 10})
		c0.emit(isa.Inst{Op: isa.MOVI, Dst: isa.GPR(9), Imm: out.Base})
		c0.emit(isa.Inst{Op: isa.RECV, Dst: isa.GPR(5), Core: 1})
		c0.nop()
		c0.emit(isa.Inst{Op: isa.STORE, Src1: isa.GPR(9), Src2: isa.GPR(5)})
		c0.emit(isa.Inst{Op: isa.HALT})
		c1 := newAsm()
		c1.label(10)
		c1.emit(isa.Inst{Op: isa.MOVI, Dst: isa.GPR(1), Imm: 3})
		c1.emit(isa.Inst{Op: isa.SEND, Src1: isa.GPR(1), Core: 0})
		c1.emit(isa.Inst{Op: isa.SLEEP})
		return &CompiledProgram{
			Name: "t", Cores: 2, Src: p,
			Regions: []*CompiledRegion{{
				Name: "r", Mode: Decoupled,
				Code:   [][]isa.Inst{c0.code, c1.code},
				Labels: []map[int64]int{c0.labels, c1.labels},
				Entry:  []int{0, 0}, StartAwake: []bool{true, false},
			}},
		}
	}
	fast := DefaultConfig(2)
	slow := DefaultConfig(2)
	slow.QueueBaseLat = 20
	rf := mustRun(t, fast, build())
	rs := mustRun(t, slow, build())
	if rs.TotalCycles <= rf.TotalCycles {
		t.Errorf("higher queue latency did not slow the run: %d vs %d", rs.TotalCycles, rf.TotalCycles)
	}
}

// TestRegionCyclesSumToTotal.
func TestRegionCyclesSumToTotal(t *testing.T) {
	p, _ := srcProg(4)
	mk := func() *CompiledRegion {
		a := newAsm()
		a.emit(isa.Inst{Op: isa.MOVI, Dst: isa.GPR(1), Imm: 1})
		a.emit(isa.Inst{Op: isa.HALT})
		return &CompiledRegion{
			Name: "r", Mode: Coupled,
			Code:   [][]isa.Inst{a.code},
			Labels: []map[int64]int{a.labels},
			Entry:  []int{0}, StartAwake: []bool{true},
		}
	}
	cp := &CompiledProgram{Name: "t", Cores: 1, Src: p,
		Regions: []*CompiledRegion{mk(), mk(), mk(), mk()}}
	res := mustRun(t, DefaultConfig(1), cp)
	var sum int64
	for _, c := range res.RegionCycles {
		sum += c
	}
	if sum != res.TotalCycles {
		t.Errorf("region cycles sum %d != total %d", sum, res.TotalCycles)
	}
}

// TestCoreCountMismatchRejected.
func TestCoreCountMismatchRejected(t *testing.T) {
	p, _ := srcProg(4)
	a := newAsm()
	a.emit(isa.Inst{Op: isa.HALT})
	cp := &CompiledProgram{Name: "t", Cores: 2, Src: p,
		Regions: []*CompiledRegion{{
			Name: "r", Mode: Coupled,
			Code:   [][]isa.Inst{a.code, a.code},
			Labels: []map[int64]int{a.labels, a.labels},
			Entry:  []int{0, 0}, StartAwake: []bool{true, true},
		}}}
	if _, err := New(DefaultConfig(4)).Run(cp); err == nil {
		t.Error("2-core program ran on a 4-core machine")
	}
}

// TestTraceFacility: a traced DOALL run records its region boundary,
// transactions and thread spawn, under the event loop and under the
// reference stepper.
func TestTraceFacility(t *testing.T) {
	for _, ref := range []bool{false, true} {
		cp, _ := doallProgram(false)
		cfg := DefaultConfig(2)
		cfg.Reference = ref
		cfg.Tracer = trace.New()
		if _, err := New(cfg).Run(cp); err != nil {
			t.Fatal(err)
		}
		seen := map[trace.Kind]bool{}
		for _, e := range cfg.Tracer.Events {
			seen[e.Kind] = true
		}
		for _, want := range []trace.Kind{trace.KindRegionBegin, trace.KindTxBegin, trace.KindTxCommit, trace.KindSpawn} {
			if !seen[want] {
				t.Errorf("reference=%v: trace has no %s event", ref, want)
			}
		}
	}
}

// TestQueueCapOverride: an unbounded queue never send-stalls.
func TestQueueCapOverride(t *testing.T) {
	p, out := srcProg(4)
	c0 := newAsm()
	c0.emit(isa.Inst{Op: isa.SPAWN, Core: 1, Imm: 10})
	c0.emit(isa.Inst{Op: isa.MOVI, Dst: isa.GPR(1), Imm: 7})
	for i := 0; i < 40; i++ {
		c0.emit(isa.Inst{Op: isa.SEND, Src1: isa.GPR(1), Core: 1})
	}
	c0.emit(isa.Inst{Op: isa.HALT})
	c1 := newAsm()
	c1.label(10)
	c1.emit(isa.Inst{Op: isa.MOVI, Dst: isa.GPR(9), Imm: out.Base})
	for i := 0; i < 40; i++ {
		c1.emit(isa.Inst{Op: isa.RECV, Dst: isa.GPR(2), Core: 0})
		c1.nop().nop().nop()
	}
	c1.emit(isa.Inst{Op: isa.STORE, Src1: isa.GPR(9), Src2: isa.GPR(2)})
	c1.emit(isa.Inst{Op: isa.SLEEP})
	cp := &CompiledProgram{
		Name: "t", Cores: 2, Src: p,
		Regions: []*CompiledRegion{{
			Name: "r", Mode: Decoupled,
			Code:   [][]isa.Inst{c0.code, c1.code},
			Labels: []map[int64]int{c0.labels, c1.labels},
			Entry:  []int{0, 0}, StartAwake: []bool{true, false},
		}},
	}
	cfg := DefaultConfig(2)
	cfg.QueueCap = -1
	res := mustRun(t, cfg, cp)
	if res.Run.Cores[0].Cycles[stats.SendStall] != 0 {
		t.Error("unbounded queue still send-stalled")
	}
}

// TestCoupledFloatTransfer: FP values cross the direct-mode wires intact.
func TestCoupledFloatTransfer(t *testing.T) {
	p, out := srcProg(4)
	c0 := newAsm()
	c0.emit(isa.Inst{Op: isa.FMOVI, Dst: isa.FPR(1), F: 2.5})
	c0.emit(isa.Inst{Op: isa.PUT, Src1: isa.FPR(1), Dir: isa.East})
	c0.nop().nop().nop().nop().nop()
	c0.emit(isa.Inst{Op: isa.HALT})
	c1 := newAsm()
	c1.emit(isa.Inst{Op: isa.MOVI, Dst: isa.GPR(9), Imm: out.Base})
	c1.emit(isa.Inst{Op: isa.GETOP, Dst: isa.FPR(2), Dir: isa.West})
	c1.emit(isa.Inst{Op: isa.FADD, Dst: isa.FPR(3), Src1: isa.FPR(2), Src2: isa.FPR(2)})
	c1.nop().nop().nop() // FADD latency 4
	c1.emit(isa.Inst{Op: isa.FSTORE, Src1: isa.GPR(9), Src2: isa.FPR(3)})
	c1.emit(isa.Inst{Op: isa.HALT})
	cp := &CompiledProgram{
		Name: "t", Cores: 2, Src: p,
		Regions: []*CompiledRegion{{
			Name: "r", Mode: Coupled,
			Code:   [][]isa.Inst{c0.code, c1.code},
			Labels: []map[int64]int{c0.labels, c1.labels},
			Entry:  []int{0, 0}, StartAwake: []bool{true, true},
		}},
	}
	res := mustRun(t, DefaultConfig(2), cp)
	if got := ir.U2F(res.Mem.LoadW(out.Base)); got != 5.0 {
		t.Errorf("fp transfer result = %g, want 5.0", got)
	}
}

// TestFDivLatencyEnforced: consuming an FDIV result too early is flagged.
func TestFDivLatencyEnforced(t *testing.T) {
	p, _ := srcProg(4)
	a := newAsm()
	a.emit(isa.Inst{Op: isa.FMOVI, Dst: isa.FPR(1), F: 8})
	a.emit(isa.Inst{Op: isa.FMOVI, Dst: isa.FPR(2), F: 2})
	a.emit(isa.Inst{Op: isa.FDIV, Dst: isa.FPR(3), Src1: isa.FPR(1), Src2: isa.FPR(2)})
	a.emit(isa.Inst{Op: isa.FADD, Dst: isa.FPR(4), Src1: isa.FPR(3), Src2: isa.FPR(3)})
	a.emit(isa.Inst{Op: isa.HALT})
	cp := &CompiledProgram{
		Name: "t", Cores: 1, Src: p,
		Regions: []*CompiledRegion{{
			Name: "r", Mode: Coupled,
			Code:   [][]isa.Inst{a.code},
			Labels: []map[int64]int{a.labels},
			Entry:  []int{0}, StartAwake: []bool{true},
		}},
	}
	if _, err := New(DefaultConfig(1)).Run(cp); err == nil {
		t.Error("FDIV latency violation not detected")
	}
}
