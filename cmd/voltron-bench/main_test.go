package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

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

// TestSmokeGolden pins the -smoke subset (two benchmarks, figures 3/12/13):
// the evaluation numbers are deterministic, so any drift is a real change
// in simulated behaviour.
func TestSmokeGolden(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-smoke", "-j", "1"}, &stdout, &stderr); err != nil {
		t.Fatalf("run -smoke: %v", err)
	}
	golden(t, "smoke.golden", stdout.Bytes())
}

func TestFig7Golden(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-fig", "7", "-j", "1"}, &stdout, &stderr); err != nil {
		t.Fatalf("run -fig 7: %v", err)
	}
	golden(t, "fig7.golden", stdout.Bytes())
}

func TestSmokeJSON(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-smoke", "-j", "1", "-fig", "12", "-json"}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	var out struct {
		Title string `json:"title"`
		Rows  []struct {
			Benchmark string `json:"benchmark"`
		} `json:"rows"`
	}
	if err := json.Unmarshal(stdout.Bytes(), &out); err != nil {
		t.Fatalf("-json output does not parse: %v\n%s", err, stdout.Bytes())
	}
	if len(out.Rows) != 3 { // 2 benchmarks + average
		t.Errorf("rows = %d, want 3", len(out.Rows))
	}
}

func TestBadFlags(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-bogus"}, &stdout, &stderr); err == nil {
		t.Error("unknown flag accepted")
	}
	// Out-of-range values fail before any figure is computed.
	if err := run([]string{"-bench", "rawcaudio", "-fig", "13", "-select", "auto", "-select-threshold", "2"}, &stdout, &stderr); err == nil {
		t.Error("-select-threshold above 1 accepted")
	}
	if stdout.Len() != 0 {
		t.Errorf("rejected invocation wrote output:\n%s", stdout.String())
	}
}

// TestAgreementMode: -agreement produces the agreement report, honors the
// -agreemin gate, and writes the -agreeout artifact.
func TestAgreementMode(t *testing.T) {
	out := filepath.Join(t.TempDir(), "agreement.json")
	var stdout, stderr bytes.Buffer
	args := []string{"-bench", "rawcaudio", "-agreement", "-agreerand", "1", "-agreeout", out, "-agreemin", "0.5", "-j", "1"}
	if err := run(args, &stdout, &stderr); err != nil {
		t.Fatalf("run %v: %v", args, err)
	}
	b, err := os.ReadFile(out)
	if err != nil {
		t.Fatalf("agreement artifact not written: %v", err)
	}
	var rep struct {
		Regions int     `json:"regions"`
		Auto    float64 `json:"auto_agreement"`
		Hurts   int     `json:"hurts"`
	}
	if err := json.Unmarshal(b, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Regions == 0 {
		t.Error("agreement report compared zero regions")
	}
	if rep.Hurts != 0 {
		t.Errorf("never-hurts violated on the smoke subset: %d", rep.Hurts)
	}
	// An unreachable floor must fail the gate.
	stdout.Reset()
	if err := run([]string{"-bench", "rawcaudio", "-agreement", "-agreerand", "1", "-agreemin", "1.01", "-j", "1"}, &stdout, &stderr); err == nil {
		t.Error("agreement gate above 100% passed")
	}
}
