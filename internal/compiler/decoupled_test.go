package compiler

import (
	"testing"

	"voltron/internal/core"
	"voltron/internal/interp"
	"voltron/internal/ir"
	"voltron/internal/isa"
)

// manualSplit assigns alternating ops to two cores (a stress partition).
func manualSplit(r *ir.Region) *Assignment {
	a := newAssignment(r)
	for i, o := range r.AllOps() {
		a.Set(o, i%2)
	}
	return a
}

func TestGenDecoupledArbitraryPartitionIsCorrect(t *testing.T) {
	// Any sane partition must produce correct code — communication
	// insertion, not the partition, owns correctness.
	for _, tc := range corpus {
		p := tc.mk()
		if tc.fpReduce {
			continue
		}
		golden, err := interp.Run(p, interp.Options{})
		if err != nil {
			t.Fatal(err)
		}
		cp := &core.CompiledProgram{Name: p.Name, Cores: 2, Src: p}
		for _, r := range p.Regions {
			cr, err := GenDecoupled(r, manualSplit(r), 2)
			if err != nil {
				t.Fatalf("%s/%s: %v", tc.name, r.Name, err)
			}
			cp.Regions = append(cp.Regions, cr)
		}
		res, err := core.New(core.DefaultConfig(2)).Run(cp)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !res.Mem.Equal(golden.Mem) {
			addr, a, b, _ := golden.Mem.FirstDiff(res.Mem)
			t.Fatalf("%s: alternating partition wrong at %#x: %d vs %d", tc.name, addr, a, b)
		}
	}
}

func TestDecoupledCommPairing(t *testing.T) {
	// Static check: over a whole region, for every (from,to) pair the
	// number of SENDs equals the number of RECVs per block, so the
	// per-sender FIFO always drains.
	p := progStrands(64)
	r := p.Regions[0]
	cr, err := GenDecoupled(r, manualSplit(r), 2)
	if err != nil {
		t.Fatal(err)
	}
	type key struct{ from, to int }
	perBlock := func(c int) map[int64]map[key]int {
		out := map[int64]map[key]int{}
		// Walk code, attributing instructions to the preceding label.
		starts := map[int]int64{}
		for lbl, idx := range cr.Labels[c] {
			if lbl < 1<<20 {
				starts[idx] = lbl
			}
		}
		cur := int64(-1)
		for i, in := range cr.Code[c] {
			if lbl, ok := starts[i]; ok {
				cur = lbl
			}
			if out[cur] == nil {
				out[cur] = map[key]int{}
			}
			switch in.Op {
			case isa.SEND:
				out[cur][key{c, in.Core}]++
			case isa.RECV:
				out[cur][key{in.Core, c}]++
			}
		}
		return out
	}
	b0, b1 := perBlock(0), perBlock(1)
	for blk, sends := range b0 {
		for k, n := range sends {
			if k.from == 0 && k.to == 1 {
				if b1[blk][k] != n {
					t.Errorf("block %d: %d sends 0->1 but %d recvs", blk, n, b1[blk][k])
				}
			}
		}
	}
}

func TestDecoupledRematerializationAvoidsMessages(t *testing.T) {
	// Address arithmetic derived from the replicated induction must be
	// recomputed locally, not sent: the strand loop should have few data
	// messages (the loaded value and the predicate, not i<<3).
	p := progStrands(64)
	r := p.Regions[0]
	pr := mustProfile(t, p)
	a := EBUG(r, Options{Cores: 2, Profile: pr}.withDefaults())
	cr, err := GenDecoupled(r, a, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Count SENDs in the loop block per iteration.
	sends := 0
	for c := 0; c < 2; c++ {
		for _, in := range cr.Code[c] {
			if in.Op == isa.SEND {
				sends++
			}
		}
	}
	// One data value (the remote stream's load) + one predicate + the
	// loop live-out sends; allow a little slack but far fewer than one
	// per address computation.
	if sends > 6 {
		t.Errorf("decoupled strand loop plans %d sends; rematerialization failed", sends)
	}
}

func TestDecoupledPredSendAblation(t *testing.T) {
	// With ForcePredSend the predicate travels every iteration; code still
	// must be correct.
	p := progDiamond(32)
	golden, err := interp.Run(p, interp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	r := p.Regions[0]
	cr, err := GenDecoupledPredSend(r, manualSplit(r), 2)
	if err != nil {
		t.Fatal(err)
	}
	cp := &core.CompiledProgram{Name: p.Name, Cores: 2, Src: p, Regions: []*core.CompiledRegion{cr}}
	res, err := core.New(core.DefaultConfig(2)).Run(cp)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Mem.Equal(golden.Mem) {
		t.Fatal("pred-send variant produced wrong memory")
	}
	// And it must actually send predicates.
	predSends := 0
	for c := 0; c < 2; c++ {
		for _, in := range cr.Code[c] {
			if in.Op == isa.SEND && in.Src1.Class == isa.RegPR {
				predSends++
			}
		}
	}
	if predSends == 0 {
		t.Error("ForcePredSend generated no predicate sends")
	}
}

func TestDecoupledLiveOutHoisting(t *testing.T) {
	// A value defined every iteration but consumed only after the loop
	// must be sent once (in the exit block), not per iteration.
	p := progReduction(64)
	r := p.Regions[0]
	// Force the accumulator chain on core 1 and the final store on core 0.
	a := newAssignment(r)
	for _, o := range r.AllOps() {
		if o.Code.IsStore() {
			a.Set(o, 0)
		} else {
			a.Set(o, 1)
		}
	}
	cr, err := GenDecoupled(r, a, 2)
	if err != nil {
		t.Fatal(err)
	}
	// The accumulator send must be outside the loop: count SENDs between
	// the loop header label and the exit label on core 1.
	labels := cr.Labels[1]
	header, exit := labels[1], labels[3] // blocks: 0 pre, 1 header, 2 body, 3 exit
	sendsInLoop := 0
	for i := header; i < exit && i < len(cr.Code[1]); i++ {
		if cr.Code[1][i].Op == isa.SEND {
			sendsInLoop++
		}
	}
	if sendsInLoop > 0 {
		t.Errorf("%d per-iteration sends for a loop live-out (hoisting failed)", sendsInLoop)
	}
	// Execution still correct.
	golden, err := interp.Run(p, interp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cp := &core.CompiledProgram{Name: p.Name, Cores: 2, Src: p, Regions: []*core.CompiledRegion{cr}}
	res, err := core.New(core.DefaultConfig(2)).Run(cp)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Mem.Equal(golden.Mem) {
		t.Fatal("hoisted live-out execution wrong")
	}
}

func TestDecoupledMemoryTokens(t *testing.T) {
	// A may-alias store->load pair split across cores needs a token sync;
	// force the split and check both correctness and the token's presence.
	p := ir.NewProgram("tok")
	a := p.Array("a", 8)
	out := p.Array("out", 8)
	r := p.Region("r")
	b := r.NewBlock()
	ab := b.AddrOf(a)
	// Unknown-object accesses (Obj stripped) force a may-alias dependence.
	v := b.MovI(7)
	st := b.Store(nil, ab, 0, v)
	ld := b.Load(nil, ab, 0)
	b.Store(out, b.AddrOf(out), 0, ld)
	b.ExitRegion()
	r.Seal()
	asg := newAssignment(r)
	for _, o := range r.AllOps() {
		asg.Set(o, 0)
	}
	// Split the dependent pair.
	asg.Set(st, 0)
	for _, o := range r.AllOps() {
		if o.Dst == ld {
			asg.Set(o, 1)
		}
	}
	_ = st
	cr, err := GenDecoupled(r, asg, 2)
	if err != nil {
		t.Fatal(err)
	}
	tokens := 0
	for _, in := range cr.Code[0] {
		if in.Op == isa.SEND {
			tokens++
		}
	}
	if tokens == 0 {
		t.Error("no token sent for the cross-core memory dependence")
	}
	golden, err := interp.Run(p, interp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cp := &core.CompiledProgram{Name: p.Name, Cores: 2, Src: p, Regions: []*core.CompiledRegion{cr}}
	res, err := core.New(core.DefaultConfig(2)).Run(cp)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Mem.Equal(golden.Mem) {
		t.Fatal("token-synchronized execution wrong")
	}
}

func TestGenDecoupledRejectsOutOfRangeCore(t *testing.T) {
	p := progCopyAdd(8)
	r := p.Regions[0]
	a := uniform(r, 5)
	if _, err := GenDecoupled(r, a, 2); err == nil {
		t.Error("core 5 on a 2-core machine accepted")
	}
}
