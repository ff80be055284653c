package exp

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"voltron/internal/compiler"
	"voltron/internal/ir"
	"voltron/internal/lru"
	"voltron/internal/prof"
	"voltron/internal/spec"
	"voltron/internal/stats"
)

// smallSuite restricts to three benchmarks covering the three parallelism
// classes, so figure tests stay fast.
func smallSuite() *Suite {
	s := NewSuite()
	s.Benchmarks = []string{"gsmdecode", "179.art", "171.swim"}
	return s
}

func TestTableAverageAndPrint(t *testing.T) {
	tab := &Table{
		Title:   "t",
		Columns: []string{"a", "b"},
		Rows: []Row{
			{Name: "x", Values: []float64{1, 2}},
			{Name: "y", Values: []float64{3, 4}},
		},
	}
	avg := tab.Average()
	if avg.Values[0] != 2 || avg.Values[1] != 3 {
		t.Errorf("average = %v", avg.Values)
	}
	var buf bytes.Buffer
	tab.Print(&buf)
	out := buf.String()
	for _, want := range []string{"benchmark", "x", "y", "average", "2.000", "3.000"} {
		if !strings.Contains(out, want) {
			t.Errorf("printed table missing %q:\n%s", want, out)
		}
	}
}

func TestSuiteCachesRuns(t *testing.T) {
	s := smallSuite()
	r1, err := s.Run("gsmdecode", compiler.Serial, 1)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s.Run("gsmdecode", compiler.Serial, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Error("identical configurations re-simulated")
	}
}

// TestSuiteForgetsUnknownPrograms: the program tier is keyed by program
// content, so a failed build must not stay cached.
func TestSuiteForgetsUnknownPrograms(t *testing.T) {
	s := NewSuite()
	for i := 0; i < 100; i++ {
		if _, err := s.Program(fmt.Sprintf("no-such-bench-%d", i)); err == nil {
			t.Fatalf("unknown benchmark %d built", i)
		}
	}
	if n := s.progs.Len(); n != 0 {
		t.Errorf("%d failed builds cached, want 0", n)
	}
}

// TestSuitePanicFreesKey: a panicking resolution returns an error to its
// caller and leaves its key free, so the next call for the key computes
// again instead of blocking on a flight that never lands, and resolutions
// of other programs are unaffected.
func TestSuitePanicFreesKey(t *testing.T) {
	s := NewSuite()
	// Never normalized: Build calls the generator of an unknown kernel
	// kind, a nil function.
	bad := &spec.ProgramSpec{Kind: spec.KindKernels, Name: "bad", Kernels: []spec.KernelSpec{{Kind: "no-such-kernel"}}}
	if _, _, err := s.Resolve(context.Background(), bad); !errors.Is(err, lru.ErrPanic) {
		t.Fatalf("resolving a panicking build: err %v, want %v", err, lru.ErrPanic)
	}
	done := make(chan error, 1)
	go func() {
		_, _, err := s.Resolve(context.Background(), bad)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, lru.ErrPanic) {
			t.Errorf("second resolution: err %v, want %v", err, lru.ErrPanic)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("second resolution still blocked on the panicked computation")
	}
	if n := s.progs.Panics(); n != 2 {
		t.Errorf("%d resolutions panicked, want 2 (the second call must compute again)", n)
	}
	if n := s.progs.Len(); n != 0 {
		t.Errorf("%d entries after two panics, want 0", n)
	}
	if _, err := s.Profile("gsmdecode"); err != nil {
		t.Errorf("resolving a benchmark after the panics: %v", err)
	}
}

// TestTierResolvesEachProgramOnce: a 2/4/16/64-core sweep of one program
// and its traced auto twin resolve to one program and one profile, for
// every program kind.
func TestTierResolvesEachProgramOnce(t *testing.T) {
	s := NewSuite()
	programs := []string{
		`{"kind": "bench", "bench": "gsmdecode"}`,
		`{"kind": "kernels", "kernels": [{"kind": "doall-map"}, {"kind": "ilp-loop"}]}`,
		`{"kind": "source", "source": "param n = 64;\narray xs[n] int;\nfunc main() {\n\tfor i = 0; i < n; i = i + 1 {\n\t\txs[i] = i * 3;\n\t}\n}\n"}`,
	}
	variants := []string{`"cores": 2`, `"cores": 4`, `"cores": 16`, `"cores": 64`,
		`"cores": 64, "trace": true, "compiler": {"select": "auto"}`}
	for _, prog := range programs {
		var (
			p0  *ir.Program
			pr0 *prof.Profile
		)
		for i, v := range variants {
			req, _, err := spec.DecodeJob(strings.NewReader(`{"program": ` + prog + `, ` + v + `}`))
			if err != nil {
				t.Fatal(err)
			}
			if err := req.Normalize(func(string) bool { return true }); err != nil {
				t.Fatal(err)
			}
			p, pr, err := s.Resolve(context.Background(), req.Program)
			if err != nil {
				t.Fatalf("%s, %s: %v", prog, v, err)
			}
			if pr == nil {
				t.Errorf("%s, %s: nil profile", prog, v)
			}
			if i == 0 {
				p0, pr0 = p, pr
			} else if p != p0 || pr != pr0 {
				t.Errorf("%s, %s: resolved to another program or profile than %s", prog, v, variants[0])
			}
		}
	}
	if n := s.progs.Len(); n != len(programs) {
		t.Errorf("%d tier entries, want %d", n, len(programs))
	}
}

func TestSpeedupAtLeastHalf(t *testing.T) {
	// Sanity bound: no strategy should be catastrophically slower than
	// serial (measured selection guards this).
	s := smallSuite()
	for _, b := range s.Benchmarks {
		for _, st := range []compiler.Strategy{compiler.ForceILP, compiler.ForceFTLP, compiler.ForceLLP, compiler.Hybrid} {
			sp, err := s.Speedup(b, st, 4)
			if err != nil {
				t.Fatal(err)
			}
			if sp < 0.5 {
				t.Errorf("%s/%v: speedup %.2f", b, st, sp)
			}
		}
	}
}

func TestFigureTablesWellFormed(t *testing.T) {
	s := smallSuite()
	for _, fig := range []int{3, 10, 11, 12, 13, 14} {
		harness, err := s.Harness(fig)
		if err != nil {
			t.Fatalf("figure %d: %v", fig, err)
		}
		tab, err := harness()
		if err != nil {
			t.Fatalf("figure %d: %v", fig, err)
		}
		if len(tab.Rows) != len(s.Benchmarks) {
			t.Errorf("figure %d: %d rows, want %d", fig, len(tab.Rows), len(s.Benchmarks))
		}
		for _, r := range tab.Rows {
			if len(r.Values) != len(tab.Columns) {
				t.Errorf("figure %d row %s: %d values for %d columns", fig, r.Name, len(r.Values), len(tab.Columns))
			}
			for _, v := range r.Values {
				if v < 0 {
					t.Errorf("figure %d row %s: negative value %g", fig, r.Name, v)
				}
			}
		}
	}
	if _, err := s.Harness(99); err == nil {
		t.Error("unknown figure accepted")
	}
}

func TestFig3FractionsSumToOne(t *testing.T) {
	s := smallSuite()
	tab, err := s.Fig3()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range tab.Rows {
		var sum float64
		for _, v := range r.Values {
			sum += v
		}
		if sum < 0.999 || sum > 1.001 {
			t.Errorf("%s: fractions sum to %g", r.Name, sum)
		}
	}
}

func TestFig14ModesSumToOne(t *testing.T) {
	s := smallSuite()
	tab, err := s.Fig14()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range tab.Rows {
		if sum := r.Values[0] + r.Values[1]; sum < 0.999 || sum > 1.001 {
			t.Errorf("%s: mode fractions sum to %g", r.Name, sum)
		}
	}
}

func TestFig13HybridAtLeastBestSingle(t *testing.T) {
	// The paper's headline: hybrid meets or beats each individual
	// technique (small tolerance for measurement-vs-context noise).
	s := smallSuite()
	for _, b := range s.Benchmarks {
		hybrid, err := s.Speedup(b, compiler.Hybrid, 4)
		if err != nil {
			t.Fatal(err)
		}
		for _, st := range []compiler.Strategy{compiler.ForceILP, compiler.ForceFTLP, compiler.ForceLLP} {
			single, err := s.Speedup(b, st, 4)
			if err != nil {
				t.Fatal(err)
			}
			if hybrid < single*0.95 {
				t.Errorf("%s: hybrid %.3f < %v %.3f", b, hybrid, st, single)
			}
		}
	}
}

func TestFig7to9Kernels(t *testing.T) {
	res, err := Fig7to9()
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("%d kernel results", len(res))
	}
	// Shape checks against the paper's numbers.
	if res[0].Measured2Core < 1.5 {
		t.Errorf("Fig7 DOALL kernel only %.2fx (paper 1.9x)", res[0].Measured2Core)
	}
	if res[1].Measured2Core < 1.05 {
		t.Errorf("Fig8 strand kernel only %.2fx (paper 1.2x)", res[1].Measured2Core)
	}
	if res[2].Measured2Core < 1.3 {
		t.Errorf("Fig9 ILP kernel only %.2fx (paper 1.78x)", res[2].Measured2Core)
	}
}

func TestKernelProgramsVerify(t *testing.T) {
	for _, p := range []interface{ Verify() error }{
		GsmLLPKernel(16), GzipStrandKernel(256), GsmILPKernel(32),
	} {
		if err := p.Verify(); err != nil {
			t.Errorf("kernel invalid: %v", err)
		}
	}
}

func TestDecoupledStallAdvantage(t *testing.T) {
	// Paper Figure 12's claim: decoupled mode spends less time on cache
	// stalls than coupled because cores stall independently. Check on the
	// memory-bound 179.art.
	s := smallSuite()
	base, err := s.Run("179.art", compiler.Serial, 1)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := s.Run("179.art", compiler.ForceILP, 4)
	if err != nil {
		t.Fatal(err)
	}
	dc, err := s.Run("179.art", compiler.ForceFTLP, 4)
	if err != nil {
		t.Fatal(err)
	}
	ref := base.TotalCycles
	coupledStall := cp.AvgStallFraction(stats.DStall, ref) + cp.AvgStallFraction(stats.Lockstep, ref)
	decoupledStall := dc.AvgStallFraction(stats.DStall, ref)
	if decoupledStall >= coupledStall {
		t.Errorf("decoupled D-stall %.3f >= coupled D+lockstep %.3f", decoupledStall, coupledStall)
	}
}

func TestScalingExtension(t *testing.T) {
	s := smallSuite()
	tab, err := s.Scaling()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range tab.Rows {
		// The DOALL-heavy benchmark must keep scaling to 8 cores.
		if r.Name == "171.swim" && r.Values[2] <= r.Values[1] {
			t.Errorf("swim does not scale past 4 cores: %v", r.Values)
		}
		for i, v := range r.Values {
			if v < 0.5 {
				t.Errorf("%s at %d cores: speedup %.2f", r.Name, []int{2, 4, 8}[i], v)
			}
		}
	}
}

func TestTableWriteJSON(t *testing.T) {
	tab := &Table{
		Title:   "jt",
		Columns: []string{"x"},
		Rows:    []Row{{Name: "b1", Values: []float64{1.5}}},
	}
	var buf bytes.Buffer
	if err := tab.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Title string `json:"title"`
		Rows  []struct {
			Benchmark string             `json:"benchmark"`
			Values    map[string]float64 `json:"values"`
		} `json:"rows"`
	}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.Title != "jt" || len(decoded.Rows) != 2 {
		t.Fatalf("decoded = %+v", decoded)
	}
	if decoded.Rows[0].Values["x"] != 1.5 || decoded.Rows[1].Benchmark != "average" {
		t.Errorf("rows = %+v", decoded.Rows)
	}
}
