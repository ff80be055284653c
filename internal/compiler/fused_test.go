package compiler

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"voltron/internal/core"
	"voltron/internal/ir"
	"voltron/internal/trace"
	"voltron/internal/workload"
)

// TestFusedRunMatchesFreshRun pins CompileRun's fused result: whenever
// measured selection simulated a region, the selected program's run comes
// from selection's end state, and it must be reflect.DeepEqual — stats,
// MemStats, memory image and region times — to Compile plus a fresh run on
// a default machine. The suite runs under ilp, ftlp and hybrid at 2, 4, 16
// and 64 cores with measured and auto selection, then 100 random programs.
// The fallback cases (a traced machine, an ablated network, a compile that
// measures nothing) must not fuse, and CompileRun must match a fresh run
// whether it fuses or not.
func TestFusedRunMatchesFreshRun(t *testing.T) {
	for _, name := range workload.Names() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			p, err := workload.Build(name)
			if err != nil {
				t.Fatal(err)
			}
			pr := mustProfile(t, p)
			fused := 0
			for _, strat := range []Strategy{ForceILP, ForceFTLP, Hybrid} {
				for _, cores := range []int{2, 4, 16, 64} {
					for _, sel := range []SelectionMode{SelectMeasured, SelectAuto} {
						opts := Options{Cores: cores, Strategy: strat, Profile: pr, Selection: sel}
						if checkFused(t, p, opts, core.DefaultConfig(cores)) {
							fused++
						}
					}
				}
			}
			if t.Logf("%d of 24 compiles fused", fused); fused == 0 {
				t.Error("no compile fused")
			}
		})
	}
	t.Run("random", func(t *testing.T) {
		t.Parallel()
		fused := 0
		for seed := 0; seed < 100; seed++ {
			p, err := workload.Random(int64(seed), 1+seed%3)
			if err != nil {
				t.Fatal(err)
			}
			strat := []Strategy{ForceILP, ForceFTLP, Hybrid}[seed%3]
			cores := []int{2, 4, 16, 64}[seed%4]
			sel := []SelectionMode{SelectMeasured, SelectAuto}[seed/4%2]
			cfg := core.DefaultConfig(cores)
			cfg.Reference = seed%5 == 0 // the stepper choice does not prevent fusing
			if checkFused(t, p, Options{Cores: cores, Strategy: strat, Profile: mustProfile(t, p), Selection: sel}, cfg) {
				fused++
			}
		}
		if t.Logf("%d of 100 compiles fused", fused); fused == 0 {
			t.Error("no random program fused")
		}
	})
	t.Run("fallback", func(t *testing.T) {
		t.Parallel()
		p, err := workload.Build("gsmdecode")
		if err != nil {
			t.Fatal(err)
		}
		opts := Options{Cores: 4, Strategy: Hybrid, Profile: mustProfile(t, p)}
		traced := core.DefaultConfig(4)
		traced.Tracer = trace.New()
		ablated := core.DefaultConfig(4)
		ablated.QueueBaseLat, ablated.QueueHopLat = 5, 3
		static := opts
		static.Selection = SelectStatic
		for _, c := range []struct {
			name string
			opts Options
			cfg  core.Config
			fuse bool
		}{
			{"default", opts, core.DefaultConfig(4), true},
			{"traced", opts, traced, false},
			{"ablated", opts, ablated, false},
			{"static", static, core.DefaultConfig(4), false},
			{"serial", Options{Cores: 1, Strategy: Serial}, core.DefaultConfig(1), false},
		} {
			if fused := checkFused(t, p, c.opts, c.cfg); fused != c.fuse {
				t.Errorf("%s: fused %v, want %v", c.name, fused, c.fuse)
			}
			cp, res, err := CompileRun(context.Background(), p, c.opts, core.New(c.cfg))
			if err != nil {
				t.Fatal(err)
			}
			checkFresh(t, "CompileRun "+c.name, res, cp, c.cfg)
		}
	})
}

// checkFused compiles p with a final configuration cfg and with Compile,
// fails the test unless both select the same program, unless the compile
// fused exactly when it measured a region and cfg can resume selection's
// checkpoints, and unless a fused result is DeepEqual to a fresh run of
// Compile's program. It reports whether the compile fused.
func checkFused(t *testing.T, p *ir.Program, opts Options, cfg core.Config) bool {
	t.Helper()
	id := fmt.Sprintf("%s %v/%d %v", p.Name, opts.Strategy, opts.Cores, opts.Selection)
	cp, res, err := compile(context.Background(), p, opts, core.New(cfg))
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	want, err := Compile(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cp.Selection, want.Selection) {
		t.Errorf("%s: fused compile selected %+v, Compile %+v", id, cp.Selection, want.Selection)
	}
	measured := want.Selection.Measured+want.Selection.Escalated > 0
	if fusable := measured && cfg.CanResume(core.DefaultConfig(opts.Cores)); fusable != (res != nil) {
		t.Errorf("%s: fused %v, want %v", id, res != nil, fusable)
	}
	if res == nil {
		return false
	}
	checkFresh(t, id, res, want, cfg)
	return true
}

// checkFresh fails the test unless res is DeepEqual to a fresh run of cp on
// an untraced copy of cfg.
func checkFresh(t *testing.T, id string, res *core.RunResult, cp *core.CompiledProgram, cfg core.Config) {
	t.Helper()
	cfg.Tracer = nil
	want, err := core.New(cfg).Run(cp)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, want) {
		t.Errorf("%s: result differs from a fresh run (%d vs %d cycles)", id, res.TotalCycles, want.TotalCycles)
	}
}
