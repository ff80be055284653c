package compiler

import (
	"reflect"
	"testing"

	"voltron/internal/core"
	"voltron/internal/workload"
)

func TestEstimateOrdersConfigurations(t *testing.T) {
	// The estimator must rank a 4-core DOALL-style split below serial for
	// a parallel loop, and rank serial best for a serial recurrence.
	p := progStrands(256)
	pr := mustProfile(t, p)
	r := p.Regions[0]
	serial, err := genSerial(r, 4)
	if err != nil {
		t.Fatal(err)
	}
	ftlp, err := genFTLP(r, Options{Cores: 4, Profile: pr}.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	es := EstimateCycles(serial, r, pr)
	ef := EstimateCycles(ftlp, r, pr)
	if es <= 0 || ef <= 0 {
		t.Fatalf("estimates non-positive: %g %g", es, ef)
	}
	if ef >= es {
		t.Errorf("strand loop: decoupled estimate %g >= serial %g (MLP invisible)", ef, es)
	}
}

func TestEstimateTracksMeasurement(t *testing.T) {
	// Across the corpus, serial estimates should correlate with measured
	// serial cycles within a generous factor (it is a ranking heuristic).
	for _, tc := range corpus {
		p := tc.mk()
		pr := mustProfile(t, p)
		cp, err := Compile(p, Options{Cores: 1, Strategy: Serial, Profile: pr})
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.New(core.DefaultConfig(1)).Run(cp)
		if err != nil {
			t.Fatal(err)
		}
		var est float64
		for i, r := range p.Regions {
			est += EstimateCycles(cp.Regions[i], r, pr)
		}
		if res.TotalCycles < 5000 {
			continue // cold-cache effects dominate tiny programs
		}
		ratio := est / float64(res.TotalCycles)
		if ratio < 0.25 || ratio > 4 {
			t.Errorf("%s: estimate %g vs measured %d (ratio %.2f)", tc.name, est, res.TotalCycles, ratio)
		}
	}
}

func TestSelectStrategyShapes(t *testing.T) {
	// DOALL loop -> LLP.
	if got := classifyFirst(t, progCopyAdd(64), 4); got != ChoseLLP {
		t.Errorf("copyadd selection = %v, want LLP", got)
	}
	// Serial recurrence -> never LLP; single or a technique that estimates
	// better.
	if got := classifyFirst(t, progCarried(48), 4); got == ChoseLLP {
		t.Errorf("carried loop selected as LLP")
	}
	// Single core -> single.
	if got := classifyFirst(t, progCopyAdd(64), 1); got != ChoseSingle {
		t.Errorf("1-core selection = %v, want single", got)
	}
	// Tiny region -> single (overhead floor).
	if got := classifyFirst(t, progCopyAdd(2), 4); got != ChoseSingle {
		t.Errorf("tiny region selection = %v, want single", got)
	}
}

func TestChoiceStrings(t *testing.T) {
	want := map[Choice]string{
		ChoseSingle: "single core", ChoseILP: "ILP",
		ChoseFTLP: "fine-grain TLP", ChoseLLP: "LLP",
	}
	for c, s := range want {
		if c.String() != s {
			t.Errorf("%d.String() = %q, want %q", c, c.String(), s)
		}
	}
}

func TestStrategyStrings(t *testing.T) {
	want := map[Strategy]string{
		Serial: "serial", ForceILP: "ilp", ForceFTLP: "fine-grain-tlp",
		ForceLLP: "llp", Hybrid: "hybrid",
	}
	for s, str := range want {
		if s.String() != str {
			t.Errorf("%v.String() = %q, want %q", int(s), s.String(), str)
		}
	}
}

// TestClassifyProgramDeterministic repeats ClassifyProgram on every suite
// workload at 2, 4, 16 and 64 cores under ilp, ftlp and hybrid auto
// selection: identical inputs must give bit-identical classifications (the
// confidences are served by /v1/validate and gate escalation).
func TestClassifyProgramDeterministic(t *testing.T) {
	for _, name := range workload.Names() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			p, err := workload.Build(name)
			if err != nil {
				t.Fatal(err)
			}
			pr := mustProfile(t, p)
			for _, strat := range []Strategy{ForceILP, ForceFTLP, Hybrid} {
				for _, cores := range []int{2, 4, 16, 64} {
					opts := Options{Cores: cores, Strategy: strat, Selection: SelectAuto, Profile: pr, Workers: 1}
					first, err := ClassifyProgram(p, opts)
					if err != nil {
						t.Fatal(err)
					}
					for rep := 0; rep < 4; rep++ {
						again, err := ClassifyProgram(p, opts)
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(first, again) {
							t.Fatalf("%v/%d: call %d classified %+v, first call %+v", strat, cores, rep+2, again, first)
						}
					}
				}
			}
		})
	}
}
