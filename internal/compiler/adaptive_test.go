package compiler

import (
	"bytes"
	"context"
	"math"
	"reflect"
	"testing"

	"voltron/internal/core"
	"voltron/internal/ir"
	"voltron/internal/prof"
	"voltron/internal/stats"
	"voltron/internal/trace"
	"voltron/internal/workload"
)

// reweighted returns a copy of pr with every block and op count scaled by
// f (f=0 models a zero-trip-count profile: the region was entered but its
// loop bodies never ran).
func reweighted(pr *prof.Profile, f float64) *prof.Profile {
	out := &prof.Profile{
		MissRate:   map[*ir.Op]float64{},
		ExecCount:  map[*ir.Op]int64{},
		BlockCount: map[*ir.Block]int64{},
	}
	for op, m := range pr.MissRate {
		out.MissRate[op] = m
	}
	for op, c := range pr.ExecCount {
		out.ExecCount[op] = int64(f * float64(c))
	}
	for b, c := range pr.BlockCount {
		out.BlockCount[b] = int64(f * float64(c))
	}
	return out
}

// TestEstimateCyclesTable pins the estimator's profile handling on the
// shapes the classifier depends on: affine loops scale with trip count,
// branchy bodies follow their block weights, and degenerate profiles
// (zero trip count, nil) stay finite and sane.
func TestEstimateCyclesTable(t *testing.T) {
	serialEst := func(t *testing.T, p *ir.Program, pr *prof.Profile) float64 {
		t.Helper()
		r := p.Regions[0]
		cr, err := genSerial(r, 4)
		if err != nil {
			t.Fatal(err)
		}
		return EstimateCycles(cr, r, pr)
	}
	cases := []struct {
		name  string
		check func(t *testing.T)
	}{
		{"affine-loop-scales-with-trip-count", func(t *testing.T) {
			// 4x the iterations must grow the estimate roughly 4x: the body
			// weight dominates, the fixed prologue does not.
			small := progCopyAdd(64)
			big := progCopyAdd(256)
			es := serialEst(t, small, mustProfile(t, small))
			eb := serialEst(t, big, mustProfile(t, big))
			if es <= 0 || eb <= 0 {
				t.Fatalf("estimates non-positive: %g %g", es, eb)
			}
			if ratio := eb / es; ratio < 3 || ratio > 5 {
				t.Errorf("256/64 iteration estimate ratio %.2f, want ~4", ratio)
			}
		}},
		{"branchy-body-follows-block-weights", func(t *testing.T) {
			// Doubling every block count in a branchy body must land the
			// estimate strictly between 1x and 2x: the loop term doubles,
			// the weight-1 prologue does not.
			p := progDiamond(256)
			pr := mustProfile(t, p)
			e1 := serialEst(t, p, pr)
			e2 := serialEst(t, p, reweighted(pr, 2))
			if e1 <= 0 {
				t.Fatalf("estimate non-positive: %g", e1)
			}
			if e2 <= e1 || e2 > 2*e1 {
				t.Errorf("doubled block counts: estimate %g from %g, want in (1x, 2x]", e2, e1)
			}
		}},
		{"zero-trip-count-collapses", func(t *testing.T) {
			// A profile that never entered the loop bodies must collapse the
			// estimate to the prologue's weight — small, non-negative, finite.
			p := progCopyAdd(256)
			pr := mustProfile(t, p)
			full := serialEst(t, p, pr)
			zero := serialEst(t, p, reweighted(pr, 0))
			if math.IsNaN(zero) || math.IsInf(zero, 0) || zero < 0 {
				t.Fatalf("zero-trip estimate not finite: %g", zero)
			}
			if zero >= full/10 {
				t.Errorf("zero-trip estimate %g did not collapse (profiled %g)", zero, full)
			}
		}},
		{"nil-profile-unit-weights", func(t *testing.T) {
			// Without a profile every block weighs 1: the estimate must be
			// positive, finite, and far below the profiled one.
			p := progCopyAdd(256)
			full := serialEst(t, p, mustProfile(t, p))
			unit := serialEst(t, p, nil)
			if unit <= 0 || math.IsInf(unit, 0) {
				t.Fatalf("nil-profile estimate not positive finite: %g", unit)
			}
			if unit >= full {
				t.Errorf("nil-profile estimate %g >= profiled %g", unit, full)
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { c.check(t) })
	}
}

// TestQueueCommPenalty: the communication term is zero for coupled
// regions and positive for a decoupled partition that actually sends.
func TestQueueCommPenalty(t *testing.T) {
	p := progStrands(256)
	pr := mustProfile(t, p)
	r := p.Regions[0]
	opts := Options{Cores: 4, Profile: pr}.withDefaults()
	ftlp, err := genFTLP(r, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := EstimateQueueComm(ftlp, r, pr); got <= 0 {
		t.Errorf("decoupled strand region: queue-comm estimate %g, want > 0", got)
	}
	serial, err := genSerial(r, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := EstimateQueueComm(serial, r, pr); got != 0 {
		t.Errorf("coupled region: queue-comm estimate %g, want 0", got)
	}
}

// sameLowering compares the architectural content of two compiled regions:
// everything the machine executes. (Whole-struct DeepEqual would also
// compare the lazily-resolved branch tables, which only exist on regions
// that have already been simulated.)
func sameLowering(a, b *core.CompiledRegion) bool {
	return a.Name == b.Name && a.Mode == b.Mode && a.TxCores == b.TxCores &&
		reflect.DeepEqual(a.Code, b.Code) &&
		reflect.DeepEqual(a.Labels, b.Labels) &&
		reflect.DeepEqual(a.Entry, b.Entry) &&
		reflect.DeepEqual(a.StartAwake, b.StartAwake) &&
		reflect.DeepEqual(a.Fallback, b.Fallback) &&
		reflect.DeepEqual(a.FallbackLabels, b.FallbackLabels)
}

// TestAutoMatchesMeasuredWhereAgreed is the differential guarantee: every
// region the classifier decided statically with the same choice measured
// selection made must carry a byte-identical lowering — auto mode changes
// who decides, never what a decision compiles to. Escalated regions go
// through the unmodified measured pipeline, so when their re-measurement
// lands on the measured pick the lowering must match too.
func TestAutoMatchesMeasuredWhereAgreed(t *testing.T) {
	benches := []string{"gsmdecode", "179.art", "171.swim", "rawcaudio"}
	staticRegions := 0
	for _, bench := range benches {
		t.Run(bench, func(t *testing.T) {
			p, err := workload.Build(bench)
			if err != nil {
				t.Fatal(err)
			}
			pr := mustProfile(t, p)
			measured, err := Compile(p, Options{Cores: 4, Strategy: Hybrid, Profile: pr, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			auto, err := Compile(p, Options{
				Cores: 4, Strategy: Hybrid, Profile: pr, Workers: 1, Selection: SelectAuto,
			})
			if err != nil {
				t.Fatal(err)
			}
			staticRegions += auto.Selection.Static
			for i := range p.Regions {
				asel := auto.Selection.Regions[i]
				msel := measured.Selection.Regions[i]
				if asel.Choice != msel.Choice {
					continue // legitimate disagreement; never-hurts is covered by exp
				}
				if !sameLowering(auto.Regions[i], measured.Regions[i]) {
					t.Errorf("region %d (%s, tier %s): same choice %q, different lowering",
						i, p.Regions[i].Name, asel.Tier, asel.Choice)
				}
			}
		})
	}
	if staticRegions == 0 {
		t.Error("no region anywhere was decided statically; the differential test exercised nothing")
	}
}

// TestStaticSelectionNeverSimulates: static mode must resolve every region
// without escalation, marking them all as statically decided.
func TestStaticSelectionNeverSimulates(t *testing.T) {
	p, err := workload.Build("gsmdecode")
	if err != nil {
		t.Fatal(err)
	}
	pr := mustProfile(t, p)
	cp, err := Compile(p, Options{
		Cores: 4, Strategy: Hybrid, Profile: pr, Workers: 1, Selection: SelectStatic,
	})
	if err != nil {
		t.Fatal(err)
	}
	if cp.Selection.Mode != "static" || cp.Selection.Escalated != 0 {
		t.Errorf("static mode summary = %+v, want mode=static escalated=0", cp.Selection)
	}
	if cp.Selection.Static != len(p.Regions) {
		t.Errorf("static count %d, want all %d regions", cp.Selection.Static, len(p.Regions))
	}
	cls, err := ClassifyProgram(p, Options{
		Cores: 4, Strategy: Hybrid, Profile: pr, SelectThreshold: NoThreshold,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, cl := range cls {
		if got := cp.Selection.Regions[i].Choice; got != cl.Choice.String() {
			t.Errorf("region %d: installed %q, classifier picked %q", i, got, cl.Choice)
		}
	}
}

// TestClassifyMatchesCompile: the classifier reports the plan Compile
// installs under the same options, for every strategy and for single- and
// multicore machines. Compiles that select must record the classifier's
// tier and pick per region (static mode never escalates, so no region may
// classify as hard); compiles that do not select lower each region directly,
// and the classifier must call a region LLP exactly when that lowering runs
// transactions.
func TestClassifyMatchesCompile(t *testing.T) {
	strategies := []Strategy{Serial, ForceILP, ForceFTLP, ForceLLP, Hybrid}
	for _, name := range workload.Names() {
		p, err := workload.Build(name)
		if err != nil {
			t.Fatal(err)
		}
		pr := mustProfile(t, p)
		for _, s := range strategies {
			for _, cores := range []int{1, 4} {
				opts := Options{Cores: cores, Strategy: s, Profile: pr, Workers: 1, Selection: SelectStatic}
				cp, err := Compile(p, opts)
				if err != nil {
					t.Fatalf("%s/%v/%d: %v", name, s, cores, err)
				}
				cls, err := ClassifyProgram(p, opts)
				if err != nil {
					t.Fatalf("%s/%v/%d: classify: %v", name, s, cores, err)
				}
				selects := cp.Selection.Mode != ""
				if selects != opts.selects() {
					t.Errorf("%s/%v/%d: compile selection mode %q, selects() = %v", name, s, cores, cp.Selection.Mode, opts.selects())
				}
				for i, cl := range cls {
					if selects {
						if got := cp.Selection.Regions[i]; got.Choice != cl.Choice.String() || got.Tier != cl.Tier.String() {
							t.Errorf("%s/%v/%d region %d: installed %s/%q, classifier reports %s/%q", name, s, cores, i, got.Tier, got.Choice, cl.Tier, cl.Choice)
						}
						continue
					}
					if doall := cp.Regions[i].TxCores > 0; doall != (cl.Choice == ChoseLLP) {
						t.Errorf("%s/%v/%d region %d: lowering runs transactions = %v, classifier reports %q", name, s, cores, i, doall, cl.Choice)
					}
				}
			}
		}
	}
}

// TestContradicted covers the stall-report feedback predicate.
func TestContradicted(t *testing.T) {
	rr := func(cycles map[string]int64) trace.RegionReport {
		return trace.RegionReport{Name: "r", Cycles: cycles}
	}
	busy := stats.Busy.String()
	cases := []struct {
		name   string
		rep    trace.RegionReport
		choice string
		want   bool
	}{
		{"ilp-dominated-by-dstall", rr(map[string]int64{busy: 40, stats.DStall.String(): 60}), ChoseILP.String(), true},
		{"ilp-mostly-busy", rr(map[string]int64{busy: 80, stats.DStall.String(): 20}), ChoseILP.String(), false},
		{"ftlp-dominated-by-queues", rr(map[string]int64{busy: 30, stats.RecvData.String(): 40, stats.SendStall.String(): 40}), ChoseFTLP.String(), true},
		{"ftlp-mostly-busy", rr(map[string]int64{busy: 90, stats.RecvData.String(): 10}), ChoseFTLP.String(), false},
		{"serial-never-contradicted", rr(map[string]int64{stats.DStall.String(): 100}), ChoseSingle.String(), false},
		{"empty-report", rr(map[string]int64{}), ChoseILP.String(), false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := contradicted(c.rep, c.choice); got != c.want {
				t.Errorf("contradicted(%v, %q) = %v, want %v", c.rep.Cycles, c.choice, got, c.want)
			}
		})
	}
}

// recheckFixture compiles gsmdecode in auto mode and fabricates a report in
// which the first statically decided parallel region (target) drowns in its
// pick's characteristic overhead; clean is the same report without it.
func recheckFixture(t *testing.T) (p *ir.Program, cp *core.CompiledProgram, opts Options, clean, poisoned *trace.Report, target int) {
	t.Helper()
	p, err := workload.Build("gsmdecode")
	if err != nil {
		t.Fatal(err)
	}
	opts = Options{Cores: 4, Strategy: Hybrid, Profile: mustProfile(t, p), Workers: 1, Selection: SelectAuto}
	if cp, err = Compile(p, opts); err != nil {
		t.Fatal(err)
	}
	clean = &trace.Report{Regions: make([]trace.RegionReport, len(p.Regions))}
	for i, r := range p.Regions {
		clean.Regions[i] = trace.RegionReport{Name: r.Name, Cycles: map[string]int64{stats.Busy.String(): 100}}
	}
	target = -1
	for i, sel := range cp.Selection.Regions {
		if sel.Tier == TierEasy.String() &&
			(sel.Choice == ChoseILP.String() || sel.Choice == ChoseFTLP.String()) {
			target = i
			break
		}
	}
	if target < 0 {
		t.Skip("no statically-decided parallel region to poison")
	}
	poisoned = &trace.Report{Regions: append([]trace.RegionReport(nil), clean.Regions...)}
	over := stats.DStall.String()
	if cp.Selection.Regions[target].Choice == ChoseFTLP.String() {
		over = stats.SendStall.String()
	}
	poisoned.Regions[target] = trace.RegionReport{
		Name:   p.Regions[target].Name,
		Cycles: map[string]int64{stats.Busy.String(): 10, over: 90},
	}
	return p, cp, opts, clean, poisoned, target
}

// TestRecheck drives the feedback loop end to end: a fabricated report in
// which one statically-decided region drowns in its pick's characteristic
// overhead must trigger re-measurement of exactly that region, and the
// re-measured pick must land on measured selection's ground truth.
func TestRecheck(t *testing.T) {
	p, cp, opts, clean, poisoned, target := recheckFixture(t)
	// A clean report contradicts nothing: Recheck is the identity.
	same, idx, err := Recheck(context.Background(), p, cp, clean, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if same != cp || idx != nil {
		t.Errorf("clean report: got new program / suspects %v, want identity", idx)
	}
	out, idx, err := Recheck(context.Background(), p, cp, poisoned, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(idx) != 1 || idx[0] != target {
		t.Fatalf("suspects = %v, want [%d]", idx, target)
	}
	if got := out.Selection.Regions[target].Tier; got != TierRechecked.String() {
		t.Errorf("re-selected region tier %q, want %q", got, TierRechecked)
	}
	if out.Selection.Mode != "escalated" {
		t.Errorf("rechecked summary mode %q, want escalated", out.Selection.Mode)
	}
	// The re-measurement is the unmodified measured pipeline; against this
	// program's background it must land on measured selection's pick.
	measured, err := Compile(p, Options{Cores: 4, Strategy: Hybrid, Profile: opts.Profile, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := out.Selection.Regions[target].Choice, measured.Selection.Regions[target].Choice; got != want {
		t.Errorf("rechecked choice %q, want measured ground truth %q", got, want)
	}
	// The input program is untouched (the server caches it by key).
	if cp.Selection.Regions[target].Tier != TierEasy.String() {
		t.Error("Recheck mutated its input program's selection metadata")
	}
}

// TestRecheckBorrowedMachine lends Recheck the machine a job just ran on,
// with the rerun's tracer attached, as the job pipeline does: the corrected
// program must equal the one a recheck on its own machines selects, and the
// traced rerun on the lent machine must match a fresh machine's traced run
// of that program cycle for cycle and byte for byte.
func TestRecheckBorrowedMachine(t *testing.T) {
	p, cp, opts, _, poisoned, _ := recheckFixture(t)
	ctx := context.Background()
	want, wantIdx, err := Recheck(ctx, p, cp, poisoned, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig(opts.Cores)
	m := core.New(cfg)
	if _, err := m.RunContext(ctx, cp); err != nil {
		t.Fatal(err)
	}
	tr := trace.New()
	cfg.Tracer = tr
	m.Reset(cfg)
	got, gotIdx, err := Recheck(ctx, p, cp, poisoned, opts, m)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gotIdx, wantIdx) {
		t.Fatalf("borrowed-machine recheck re-selected %v, own machines %v; programs equal: %v",
			gotIdx, wantIdx, reflect.DeepEqual(got, want))
	}
	if m.Config().Tracer != tr {
		t.Fatal("Recheck did not hand the machine back in its own (traced) configuration")
	}
	res, err := m.RunContext(ctx, got)
	if err != nil {
		t.Fatal(err)
	}
	freshTr := trace.New()
	cfg.Tracer = freshTr
	fresh, err := core.New(cfg).RunContext(ctx, want)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalCycles != fresh.TotalCycles {
		t.Errorf("rerun on the lent machine took %d cycles, a fresh machine %d", res.TotalCycles, fresh.TotalCycles)
	}
	var a, b bytes.Buffer
	if err := tr.WriteChrome(&a); err != nil {
		t.Fatal(err)
	}
	if err := freshTr.WriteChrome(&b); err != nil {
		t.Fatal(err)
	}
	if a.Len() == 0 || !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Errorf("rerun trace (%d bytes) differs from a fresh machine's (%d bytes)", a.Len(), b.Len())
	}
}

// TestTierAndModeStrings pins the labels that reach JSON and headers.
func TestTierAndModeStrings(t *testing.T) {
	wantTiers := map[Tier]string{
		TierSmall: "small", TierDOALL: "doall", TierEasy: "easy",
		TierHard: "hard", TierMeasured: "measured", TierRechecked: "rechecked",
	}
	for tier, s := range wantTiers {
		if tier.String() != s {
			t.Errorf("Tier(%d).String() = %q, want %q", tier, tier.String(), s)
		}
	}
	wantModes := map[SelectionMode]string{
		SelectMeasured: "measured", SelectStatic: "static", SelectAuto: "auto",
	}
	for m, s := range wantModes {
		if m.String() != s {
			t.Errorf("SelectionMode(%d).String() = %q, want %q", m, m.String(), s)
		}
	}
}
