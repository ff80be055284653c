package spec

import (
	"flag"
	"io"
	"math"
	"testing"

	"voltron/internal/compiler"
)

// TestSelectFlagDefaults pins the shared flag builders every binary uses:
// a drift in name or default here would silently desynchronize
// voltron-run, voltron-compile, and voltron-bench.
func TestSelectFlagDefaults(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	sel := SelectFlag(fs)
	th := SelectThresholdFlag(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if *sel != DefaultSelect || DefaultSelect != "measured" {
		t.Errorf("-select default = %q, want %q", *sel, "measured")
	}
	if *th != 0 {
		t.Errorf("-select-threshold default = %v, want 0 (compiler default)", *th)
	}
	for _, name := range []string{"select", "select-threshold"} {
		if fs.Lookup(name) == nil {
			t.Errorf("flag %q not registered", name)
		}
	}
}

func TestSelectionFor(t *testing.T) {
	cases := []struct {
		name string
		want compiler.SelectionMode
		ok   bool
	}{
		{"measured", compiler.SelectMeasured, true},
		{"static", compiler.SelectStatic, true},
		{"auto", compiler.SelectAuto, true},
		{"bogus", 0, false},
		{"", 0, false},
	}
	for _, c := range cases {
		got, ok := SelectionFor(c.name)
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("SelectionFor(%q) = %v, %v; want %v, %v", c.name, got, ok, c.want, c.ok)
		}
	}
}

// TestNormalizeSelect covers canonicalization of the selection fields: the
// empty mode resolves to the default, and thresholds outside [0, 1] are
// rejected or canonicalized so equivalent requests share one cache key.
func TestNormalizeSelect(t *testing.T) {
	known := func(string) bool { return true }
	norm := func(t *testing.T, mut func(*JobRequest)) *JobRequest {
		t.Helper()
		r := &JobRequest{Program: bench("x")}
		mut(r)
		if err := r.Normalize(known); err != nil {
			t.Fatal(err)
		}
		return r
	}
	if r := norm(t, func(*JobRequest) {}); r.Compiler.Select != DefaultSelect {
		t.Errorf("empty select normalized to %q, want %q", r.Compiler.Select, DefaultSelect)
	}
	if r := norm(t, func(r *JobRequest) { r.Compiler.SelectThreshold = -0.5 }); r.Compiler.SelectThreshold != -1 {
		t.Errorf("negative threshold canonicalized to %v, want -1", r.Compiler.SelectThreshold)
	}
	bad := &JobRequest{Program: bench("x")}
	bad.Compiler.Select = "bogus"
	if err := bad.Normalize(known); err == nil {
		t.Error("unknown selection mode was accepted")
	}
	over := &JobRequest{Program: bench("x")}
	over.Compiler.SelectThreshold = 1.5
	if err := over.Normalize(known); err == nil {
		t.Error("threshold above 1 was accepted")
	}
}

// TestValidateSelectThreshold pins the range check the CLIs' flags and
// Normalize share (TestNormalizeSelect covers the Normalize side): a
// confidence floor is at most 1, negative disables the gate, and NaN,
// which a flag can spell, is out of range.
func TestValidateSelectThreshold(t *testing.T) {
	for _, th := range []float64{math.Inf(-1), -1, -0.5, 0, 0.08, 1} {
		if err := ValidateSelectThreshold(th); err != nil {
			t.Errorf("ValidateSelectThreshold(%v) = %v, want nil", th, err)
		}
	}
	for _, th := range []float64{1.0001, 2, math.Inf(1), math.NaN()} {
		if err := ValidateSelectThreshold(th); err == nil {
			t.Errorf("ValidateSelectThreshold(%v) accepted", th)
		}
	}
}

// TestKeySeparatesSelect: selection mode and threshold are part of the
// artifact content address (different modes compile different programs).
func TestKeySeparatesSelect(t *testing.T) {
	known := func(string) bool { return true }
	key := func(t *testing.T, mut func(*JobRequest)) string {
		t.Helper()
		r := &JobRequest{Program: bench("x")}
		mut(r)
		if err := r.Normalize(known); err != nil {
			t.Fatal(err)
		}
		return r.Key()
	}
	base := key(t, func(*JobRequest) {})
	auto := key(t, func(r *JobRequest) { r.Compiler.Select = "auto" })
	tuned := key(t, func(r *JobRequest) {
		r.Compiler.Select = "auto"
		r.Compiler.SelectThreshold = 0.25
	})
	static := key(t, func(r *JobRequest) { r.Compiler.Select = "static" })
	seen := map[string]bool{}
	for _, k := range []string{base, auto, tuned, static} {
		if seen[k] {
			t.Errorf("selection configs share keys: base=%s auto=%s tuned=%s static=%s", base, auto, tuned, static)
		}
		seen[k] = true
	}
}

// TestCompilerOptsThreadsSelection: the resolved compiler options carry the
// selection mode and threshold through to compiler.Compile.
func TestCompilerOptsThreadsSelection(t *testing.T) {
	known := func(string) bool { return true }
	r := &JobRequest{Program: bench("x")}
	r.Compiler.Select = "auto"
	r.Compiler.SelectThreshold = 0.25
	if err := r.Normalize(known); err != nil {
		t.Fatal(err)
	}
	opts := r.CompilerOpts()
	if opts.Selection != compiler.SelectAuto || opts.SelectThreshold != 0.25 {
		t.Errorf("CompilerOpts selection = %v/%v, want auto/0.25", opts.Selection, opts.SelectThreshold)
	}
}
