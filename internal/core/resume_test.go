package core_test

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"voltron/internal/compiler"
	"voltron/internal/core"
	"voltron/internal/workload"
)

var allStrategies = []compiler.Strategy{
	compiler.Serial, compiler.ForceILP, compiler.ForceFTLP, compiler.ForceLLP, compiler.Hybrid,
}

// TestResumeMatchesUninterruptedRun is the checkpoint oracle over the
// suite: every workload under every strategy at 4, 16, 32 and 64 cores
// with stats on, and again under the reference stepper at 4 and 16 cores
// (it steps every core on every cycle, so wider runs only add time, not
// code paths). Each program is
// checkpointed at every region boundary and resumed on a machine that has
// just run another program; the resumed run must equal an uninterrupted
// one in everything it reports.
func TestResumeMatchesUninterruptedRun(t *testing.T) {
	for _, name := range workload.Names() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			p, err := workload.Build(name)
			if err != nil {
				t.Fatal(err)
			}
			for _, cores := range []int{4, 16, 32, 64} {
				var progs []*core.CompiledProgram
				for _, strat := range allStrategies {
					progs = append(progs, compileFor(t, p, strat, cores))
				}
				cfg := core.DefaultConfig(cores)
				checkResume(t, progs, cfg)
				if cores <= 16 {
					cfg.Reference = true
					checkResume(t, progs, cfg)
				}
			}
		})
	}
}

// TestResumeMatchesUninterruptedRunRandom repeats the oracle over 100
// random programs, cycling through the five strategies at 2 and 4 cores.
func TestResumeMatchesUninterruptedRunRandom(t *testing.T) {
	byCores := map[int][]*core.CompiledProgram{}
	for seed := 0; seed < 100; seed++ {
		p, err := workload.Random(int64(seed), 1+seed%3)
		if err != nil {
			t.Fatal(err)
		}
		cores := 2 + 2*(seed/len(allStrategies)%2)
		byCores[cores] = append(byCores[cores], compileFor(t, p, allStrategies[seed%len(allStrategies)], cores))
	}
	for cores, progs := range byCores {
		cfg := core.DefaultConfig(cores)
		checkResume(t, progs, cfg)
		cfg.Reference = true
		checkResume(t, progs, cfg)
	}
}

// checkResume checkpoints each program at every region boundary — each
// checkpoint taken after a run that itself resumed from the one before, in
// one reused Checkpoint — and resumes it to the end on a second machine
// right after that machine ran the previous program of the list.
func checkResume(t *testing.T, progs []*core.CompiledProgram, cfg core.Config) {
	t.Helper()
	ctx := context.Background()
	saver, resumer := core.New(cfg), core.New(cfg)
	var ck core.Checkpoint
	for i, cp := range progs {
		other := progs[(i+len(progs)-1)%len(progs)]
		label := fmt.Sprintf("%s/%d cores/program %d/reference=%v", cp.Name, cfg.Cores, i, cfg.Reference)
		want, err := core.New(cfg).Run(cp)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		for k := 1; k <= len(cp.Regions); k++ {
			prefix := *cp
			prefix.Regions = cp.Regions[:k]
			if k == 1 {
				_, err = saver.Run(&prefix)
			} else {
				_, err = saver.ResumeContext(ctx, &ck, &prefix)
			}
			if err != nil {
				t.Fatalf("%s: prefix of %d regions: %v", label, k, err)
			}
			if err := saver.Save(&ck); err != nil {
				t.Fatal(err)
			}
			if _, err := resumer.Run(other); err != nil {
				t.Fatalf("%s: other program: %v", label, err)
			}
			got, err := resumer.ResumeContext(ctx, &ck, cp)
			if err != nil {
				t.Fatalf("%s: resume after region %d: %v", label, k, err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Errorf("%s: resumed after region %d diverges\nwant: cycles=%d regions=%v modes=%v mem=%+v\ngot:  cycles=%d regions=%v modes=%v mem=%+v",
					label, k, want.TotalCycles, want.RegionCycles, want.ModeCycles, want.MemStats,
					got.TotalCycles, got.RegionCycles, got.ModeCycles, got.MemStats)
			}
		}
	}
}

// TestResumeGuards pins the checks ResumeContext and Save make before
// touching the machine.
func TestResumeGuards(t *testing.T) {
	p, err := workload.Build("gsmdecode")
	if err != nil {
		t.Fatal(err)
	}
	cp := compileFor(t, p, compiler.Hybrid, 4)
	ctx := context.Background()
	m := core.New(core.DefaultConfig(4))
	var ck core.Checkpoint
	if err := m.Save(&ck); err == nil {
		t.Error("Save before any run succeeded")
	}
	if _, err := m.ResumeContext(ctx, &ck, cp); err == nil {
		t.Error("resume from an empty checkpoint succeeded")
	}
	if _, err := m.Run(cp); err != nil {
		t.Fatal(err)
	}
	if err := m.Save(&ck); err != nil {
		t.Fatal(err)
	}
	short := *cp
	short.Regions = cp.Regions[:len(cp.Regions)-1]
	if _, err := m.ResumeContext(ctx, &ck, &short); err == nil {
		t.Error("resume past the program's last region succeeded")
	}
	other := core.DefaultConfig(4)
	other.QueueCap = 4
	if _, err := core.New(other).ResumeContext(ctx, &ck, cp); err == nil {
		t.Error("resume on a differently configured machine succeeded")
	}
	if q, err := workload.Build("171.swim"); err != nil {
		t.Fatal(err)
	} else if qp := compileFor(t, q, compiler.Hybrid, 4); qp.Src.MemWords() != cp.Src.MemWords() {
		if _, err := m.ResumeContext(ctx, &ck, qp); err == nil {
			t.Error("resume with another program's memory size succeeded")
		}
	}
	bad := *cp
	bad.Regions = append(append([]*core.CompiledRegion(nil), cp.Regions...), &core.CompiledRegion{Name: "broken"})
	if _, err := m.ResumeContext(ctx, &ck, &bad); err == nil {
		t.Error("resume into an invalid region succeeded")
	}
	if err := m.Save(&ck); err == nil {
		t.Error("Save after a failed run succeeded")
	}
}
