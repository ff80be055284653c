package spec

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"voltron/internal/ir"
	"voltron/internal/lang"
)

func TestDecodeJobAliases(t *testing.T) {
	for _, tc := range []struct {
		name, body              string
		wantBench, wantStrategy string
		wantDeprecated          string
	}{
		{"v1 bench", `{"bench": "a", "strategy": "llp"}`, "a", "llp", "bench"},
		{"aliases", `{"benchmark": "a", "mode": "llp"}`, "a", "llp", "benchmark,mode,bench"},
		{"canonical wins", `{"bench": "a", "benchmark": "b", "strategy": "llp", "mode": "ilp"}`, "a", "llp", "benchmark,mode,bench"},
		{"v2 union", `{"program": {"kind": "bench", "bench": "a"}, "strategy": "llp"}`, "", "llp", ""},
		{"kind-less program", `{"program": {"kernels": [{"kind": "doall-map"}]}, "strategy": "llp"}`, "", "llp", "program.kind"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			req, dep, err := DecodeJob(strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			if req.Bench != tc.wantBench || req.Strategy != tc.wantStrategy {
				t.Errorf("decoded bench=%q strategy=%q, want %q/%q", req.Bench, req.Strategy, tc.wantBench, tc.wantStrategy)
			}
			if got := strings.Join(dep, ","); got != tc.wantDeprecated {
				t.Errorf("deprecated = %q, want %q", got, tc.wantDeprecated)
			}
		})
	}
	if _, _, err := DecodeJob(strings.NewReader(`{"bogus": 1}`)); err == nil {
		t.Error("unknown field was accepted")
	}
}

// TestDecodeJobRejectsTrailingData: a body is exactly one job object.
// Anything after it but whitespace — a second object, garbage — is a typed
// bad_request, not silently ignored.
func TestDecodeJobRejectsTrailingData(t *testing.T) {
	const job = `{"program": {"kind": "bench", "bench": "cjpeg"}}`
	for _, tail := range []string{` {"junk": true} garbage`, ` {}`, `x`, ` ]`, ` "s"`} {
		_, _, err := DecodeJob(strings.NewReader(job + tail))
		var se *Error
		if !errors.As(err, &se) || se.Code != ErrBadRequest {
			t.Errorf("trailing %q: err = %v, want a %s error", tail, err, ErrBadRequest)
		}
	}
	if _, _, err := DecodeJob(strings.NewReader(" " + job + " \n\t ")); err != nil {
		t.Errorf("surrounding whitespace rejected: %v", err)
	}
}

// TestKeySeparatesTrace: the trace flag is part of the content address, so
// traced and untraced runs of one job never share a cache entry.
func TestKeySeparatesTrace(t *testing.T) {
	known := func(string) bool { return true }
	a := &JobRequest{Bench: "x", Trace: false}
	b := &JobRequest{Bench: "x", Trace: true}
	for _, r := range []*JobRequest{a, b} {
		if err := r.Normalize(known); err != nil {
			t.Fatal(err)
		}
	}
	if a.Key() == b.Key() {
		t.Error("traced and untraced jobs share a key")
	}
}

// TestBuildLowersCheckedSource: Normalize keeps the frontend's checked
// program and Build lowers it, producing the same IR as a from-scratch
// lang.Compile. Copies of one request (a job and its baseline) share the
// checked program, so concurrent Builds must be race-free (run with -race).
func TestBuildLowersCheckedSource(t *testing.T) {
	const src = "param n = 16;\nvar acc int = 0;\narray out[n] int;\nfunc main() {\n\tfor i = 0; i < n; i = i + 1 {\n\t\tout[i] = i * 3;\n\t\tacc = acc + out[i];\n\t}\n}\n"
	req := &JobRequest{Program: &ProgramSpec{Kind: KindSource, Name: "p", Source: src, Inputs: map[string]int64{"n": 32}}}
	if err := req.Normalize(func(string) bool { return false }); err != nil {
		t.Fatal(err)
	}
	if req.Program.checked == nil {
		t.Fatal("Normalize did not keep the checked program")
	}
	dump := func(p *ir.Program) string {
		var b strings.Builder
		for _, r := range p.Regions {
			b.WriteString(r.Name + "\n")
			for _, o := range r.AllOps() {
				b.WriteString(o.String() + "\n")
			}
		}
		return b.String()
	}
	ref, err := lang.Compile(src, "p", map[string]int64{"n": 32})
	if err != nil {
		t.Fatal(err)
	}
	want := dump(ref)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			base := *req
			base.Strategy, base.Cores = "serial", 1
			p, err := base.Program.Build()
			if err != nil {
				t.Error(err)
				return
			}
			if got := dump(p); got != want {
				t.Errorf("Build lowered different IR than lang.Compile:\n%s\nwant:\n%s", got, want)
			}
		}()
	}
	wg.Wait()
	raw := &ProgramSpec{Kind: KindSource, Name: "p", Source: src}
	if _, err := raw.Build(); err == nil {
		t.Error("Build of a source spec that was never normalized succeeded")
	}
}

func TestStrategyTable(t *testing.T) {
	infos := Strategies()
	if len(infos) != 5 {
		t.Fatalf("got %d strategies, want 5", len(infos))
	}
	if infos[0].Name != "serial" || infos[len(infos)-1].Name != "hybrid" {
		t.Errorf("strategy order: %+v", infos)
	}
	for _, si := range infos {
		if _, ok := StrategyFor(si.Name); !ok {
			t.Errorf("StrategyFor(%q) missing", si.Name)
		}
	}
	if _, ok := StrategyFor("nope"); ok {
		t.Error("StrategyFor accepted an unknown name")
	}
}
