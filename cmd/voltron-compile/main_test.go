package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
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

func TestGolden(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"kernel_gsmllp_llp_2.golden", []string{"-kernel", "gsm-llp", "-cores", "2", "-strategy", "llp"}},
		{"kernel_gsmilp_ilp_2.golden", []string{"-kernel", "gsm-ilp", "-cores", "2", "-strategy", "ilp"}},
		{"kernel_gzip_ftlp_2.golden", []string{"-kernel", "gzip-strands", "-cores", "2", "-strategy", "ftlp"}},
		{"bench_rawcaudio_hybrid_2.golden", []string{"-bench", "rawcaudio", "-cores", "2", "-strategy", "hybrid"}},
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

func TestErrors(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run(nil, &stdout, &stderr); err == nil {
		t.Error("missing -bench/-kernel accepted")
	}
	if err := run([]string{"-kernel", "nonesuch"}, &stdout, &stderr); err == nil {
		t.Error("unknown kernel accepted")
	}
	if err := run([]string{"-bench", "rawcaudio", "-strategy", "magic"}, &stdout, &stderr); err == nil {
		t.Error("unknown strategy accepted")
	}
	if err := run([]string{"-bench", "rawcaudio", "-kernel", "gsm-ilp"}, &stdout, &stderr); err == nil {
		t.Error("-bench and -kernel accepted together")
	}
	if err := run([]string{"-bench", "rawcaudio", "-strategy", "hybrid", "-select", "auto", "-select-threshold", "2"}, &stdout, &stderr); err == nil {
		t.Error("-select-threshold above 1 accepted")
	}
	if stdout.Len() != 0 {
		t.Errorf("rejected invocations wrote output:\n%s", stdout.String())
	}
}

// TestSelectFlag: the shared -select flag reaches the compiler (auto mode
// annotates every region header with its tier) and rejects unknown modes.
func TestSelectFlag(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-bench", "rawcaudio", "-cores", "2", "-strategy", "hybrid", "-select", "auto"}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	out := stdout.String()
	if !strings.Contains(out, "tier=") || !strings.Contains(out, "choice=") {
		t.Errorf("auto compile dump lacks tier/choice annotations:\n%s", out)
	}
	if err := run([]string{"-bench", "rawcaudio", "-select", "bogus"}, &stdout, &stderr); err == nil {
		t.Error("unknown selection mode accepted")
	}
}
