package trace_test

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"voltron/internal/core"
	"voltron/internal/exp"
	"voltron/internal/ir"
	"voltron/internal/isa"
	"voltron/internal/spec"
	"voltron/internal/trace"
	"voltron/internal/workload"
)

// TestChromeMatchesReferenceSuite diffs the append renderer byte for byte
// against the fmt-based reference on the trace of every benchmark at 2, 4,
// 16 and 64 cores under hybrid, ilp, ftlp and llp, each traced through the
// job pipeline (spec.JobRequest.Simulate).
func TestChromeMatchesReferenceSuite(t *testing.T) {
	ctx := context.Background()
	suite := exp.NewSuite()
	var events, renderedBytes int
	for _, bench := range workload.Names() {
		for _, cores := range []int{2, 4, 16, 64} {
			for _, strat := range []string{"hybrid", "ilp", "ftlp", "llp"} {
				name := fmt.Sprintf("%s/%s/%d", bench, strat, cores)
				req := &spec.JobRequest{
					Program:  &spec.ProgramSpec{Kind: spec.KindBench, Bench: bench},
					Strategy: strat, Cores: cores, Trace: true,
				}
				if err := req.Normalize(func(string) bool { return true }); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				p, pr, err := suite.Resolve(ctx, req.Program)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				_, _, _, tr, err := req.Simulate(ctx, p, pr, nil, core.New(req.MachineConfig(trace.New())), 1)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				got := diffReference(t, name, tr)
				events += len(tr.Events)
				renderedBytes += len(got)
			}
		}
	}
	t.Logf("%d events rendered to %d bytes (%.1f bytes per event)", events, renderedBytes, float64(renderedBytes)/float64(events))
}

// TestChromeMatchesReferenceFallback diffs the renderers on a DOALL region
// whose transactions abort and re-execute serially: a loop-carried
// dependence the profile missed, so the TM rolls back at run time.
func TestChromeMatchesReferenceFallback(t *testing.T) {
	tr := fallbackTrace(t)
	var aborts int
	for _, e := range tr.Events {
		if e.Kind == trace.KindTxAbort {
			aborts++
		}
	}
	if aborts == 0 {
		t.Fatal("fallback trace holds no transaction abort")
	}
	diffReference(t, "doall-fallback", tr)
}

// diffReference renders tr both ways and fails on any byte difference,
// reporting the first differing line. It returns the rendered trace.
func diffReference(t *testing.T, name string, tr *trace.Tracer) []byte {
	t.Helper()
	var want bytes.Buffer
	if err := tr.WriteChromeReference(&want); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	got := tr.AppendChrome(nil)
	if bytes.Equal(got, want.Bytes()) {
		return got
	}
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want.Bytes(), []byte("\n"))
	for i := 0; i < min(len(gl), len(wl)); i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			t.Fatalf("%s: line %d differs:\n got  %s\n want %s", name, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("%s: %d lines rendered, reference has %d", name, len(gl), len(wl))
	return nil
}

// fallbackTrace runs a two-core DOALL region whose chunks both store to one
// word, so the commit barrier detects the conflict, aborts both
// transactions and re-executes the serial fallback stream on core 0.
func fallbackTrace(t *testing.T) *trace.Tracer {
	t.Helper()
	p := ir.NewProgram("fallback")
	addr := p.Array("out", 8).Base
	chunk := func(id, v int64, last isa.Opcode) []isa.Inst {
		return []isa.Inst{
			{Op: isa.TXBEGIN, Imm: id},
			{Op: isa.MOVI, Dst: isa.GPR(1), Imm: addr},
			{Op: isa.MOVI, Dst: isa.GPR(2), Imm: v},
			{Op: isa.STORE, Src1: isa.GPR(1), Src2: isa.GPR(2)},
			{Op: isa.TXCOMMIT},
			{Op: last},
		}
	}
	master := append([]isa.Inst{{Op: isa.SPAWN, Core: 1, Imm: 10}}, chunk(0, 1, isa.HALT)...)
	cp := &core.CompiledProgram{
		Name: "fallback", Cores: 2, Src: p,
		Regions: []*core.CompiledRegion{{
			Name: "doall", Mode: core.DOALL,
			Code:       [][]isa.Inst{master, chunk(1, 2, isa.SLEEP)},
			Labels:     []map[int64]int{{}, {10: 0}},
			Entry:      []int{0, 0},
			StartAwake: []bool{true, false},
			TxCores:    2,
			Fallback: []isa.Inst{
				{Op: isa.MOVI, Dst: isa.GPR(1), Imm: addr},
				{Op: isa.MOVI, Dst: isa.GPR(2), Imm: 2},
				{Op: isa.STORE, Src1: isa.GPR(1), Src2: isa.GPR(2)},
				{Op: isa.HALT},
			},
			FallbackLabels: map[int64]int{},
		}},
	}
	cfg := core.DefaultConfig(2)
	cfg.Tracer = trace.New()
	res, err := core.New(cfg).Run(cp)
	if err != nil {
		t.Fatal(err)
	}
	if res.TMConflicts == 0 {
		t.Fatal("conflicting DOALL chunks committed without a conflict")
	}
	return cfg.Tracer
}
