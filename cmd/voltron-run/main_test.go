package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// golden diffs got against testdata/name, rewriting it under -update.
// Simulation and measured strategy selection are deterministic, so the
// binary's stdout is stable across hosts and worker counts.
func golden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (rerun with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output differs from %s (rerun with -update if intended):\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

func TestGolden(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"list.golden", []string{"-list"}},
		{"gsmdecode_hybrid_4.golden", []string{"-bench", "gsmdecode", "-cores", "4", "-strategy", "hybrid", "-j", "1"}},
		{"rawcaudio_llp_2.golden", []string{"-bench", "rawcaudio", "-cores", "2", "-strategy", "llp", "-j", "1"}},
		{"art_ftlp_2_verbose.golden", []string{"-bench", "179.art", "-cores", "2", "-strategy", "ftlp", "-v", "-j", "1"}},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			var stdout, stderr bytes.Buffer
			if err := run(c.args, &stdout, &stderr); err != nil {
				t.Fatalf("run %v: %v", c.args, err)
			}
			golden(t, c.name, stdout.Bytes())
		})
	}
}

// TestTraceFile: -trace writes deterministic Chrome trace-event JSON (two
// runs produce byte-identical files).
func TestTraceFile(t *testing.T) {
	traceOf := func(dir string) []byte {
		t.Helper()
		path := filepath.Join(dir, "trace.json")
		var stdout, stderr bytes.Buffer
		if err := run([]string{"-bench", "rawcaudio", "-cores", "2", "-strategy", "llp", "-trace", path, "-j", "1"}, &stdout, &stderr); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("trace not written: %v", err)
		}
		return b
	}
	a := traceOf(t.TempDir())
	if !json.Valid(a) {
		t.Errorf("trace is not valid JSON:\n%.200s", a)
	}
	if !strings.Contains(string(a), "traceEvents") {
		t.Errorf("trace has no traceEvents array:\n%.200s", a)
	}
	if b := traceOf(t.TempDir()); !bytes.Equal(a, b) {
		t.Errorf("identical runs wrote different traces")
	}
}

// TestStallsReport: -stalls prints the attribution table; its rows must be
// consistent with the verbose per-core stall breakdown of the same run.
func TestStallsReport(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-bench", "rawcaudio", "-cores", "2", "-strategy", "llp", "-stalls", "-j", "1"}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	out := stdout.String()
	if !strings.Contains(out, "stall attribution") {
		t.Errorf("-stalls printed no report:\n%.300s", out)
	}
	if !strings.Contains(out, "TOTAL") {
		t.Errorf("report has no TOTAL row:\n%s", out)
	}
}

func TestErrors(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-strategy", "magic"}, &stdout, &stderr); err == nil {
		t.Error("unknown strategy accepted")
	}
	for _, args := range [][]string{
		{"-cores", "0"}, {"-cores", "65"}, {"-strategy", ""}, {"-select", ""},
		{"-select", "auto", "-select-threshold", "2"},
	} {
		if err := run(args, &stdout, &stderr); err == nil {
			t.Errorf("%q accepted", args)
		}
	}
	if err := run([]string{"-bench", "nonesuch"}, &stdout, &stderr); err == nil {
		t.Error("unknown benchmark accepted")
	}
	if err := run([]string{"-bench", "rawcaudio", "-src", "x.vs"}, &stdout, &stderr); err == nil {
		t.Error("-bench and -src accepted together")
	}
	if err := run([]string{"-src", "nonesuch.vs"}, &stdout, &stderr); err == nil {
		t.Error("missing source file accepted")
	}
}

// TestSourceFlag: -src compiles a language program through the same
// pipeline; -inputs overrides declared params; frontend failures surface
// positioned diagnostics.
func TestSourceFlag(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sum.vs")
	src := "param n = 64;\nvar acc int = 0;\narray out[n] int;\nfunc main() {\n\tfor i = 0; i < n; i = i + 1 {\n\t\tout[i] = i * 2;\n\t\tacc = acc + out[i];\n\t}\n}\n"
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-src", path, "-cores", "2", "-strategy", "serial", "-j", "1"}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	if out := stdout.String(); !strings.Contains(out, "sum on 2 cores") {
		t.Errorf("missing summary line:\n%s", out)
	}
	// A larger n takes more cycles — the override reached the frontend.
	base := stdout.String()
	stdout.Reset()
	if err := run([]string{"-src", path, "-inputs", "n=4096", "-cores", "2", "-strategy", "serial", "-j", "1"}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	if stdout.String() == base {
		t.Error("-inputs n=4096 did not change the run")
	}
	if err := run([]string{"-src", path, "-inputs", "n=oops"}, &stdout, &stderr); err == nil {
		t.Error("bad -inputs value accepted")
	}
	bad := filepath.Join(dir, "bad.vs")
	if err := os.WriteFile(bad, []byte("func main() {\n\tmissing = 1;\n}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run([]string{"-src", bad}, &stdout, &stderr)
	if err == nil {
		t.Fatal("undeclared variable accepted")
	}
	if !strings.Contains(err.Error(), "2:") {
		t.Errorf("diagnostic lacks a position: %v", err)
	}
}

// TestSelectFlag: the shared -select flag reaches the compiler (non-default
// modes print the selection summary line) and rejects unknown modes.
func TestSelectFlag(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-bench", "rawcaudio", "-cores", "2", "-strategy", "hybrid", "-select", "auto", "-j", "1"}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	if out := stdout.String(); !strings.Contains(out, "selection: ") {
		t.Errorf("auto run lacks the selection summary line:\n%s", out)
	}
	if err := run([]string{"-bench", "rawcaudio", "-select", "bogus"}, &stdout, &stderr); err == nil {
		t.Error("unknown selection mode accepted")
	}
}
