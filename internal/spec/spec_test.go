package spec

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"voltron/internal/ir"
	"voltron/internal/lang"
)

// TestDecodeJobAliases: the tagged v2 union is the only accepted job
// shape. The retired spellings — top-level "bench", the pre-v1 aliases
// "benchmark" and "mode" (alone or next to their canonical fields) and
// "compiler.static_selection" — are unknown fields to DecodeJob; a program
// without a kind decodes but fails Normalize as bad_spec.
func TestDecodeJobAliases(t *testing.T) {
	known := func(string) bool { return true }
	for _, tc := range []struct {
		name, body string
		wantCode   string // "" when the body must decode and normalize
	}{
		{"v1 bench", `{"bench": "a", "strategy": "llp"}`, ErrBadRequest},
		{"aliases", `{"benchmark": "a", "mode": "llp"}`, ErrBadRequest},
		{"canonical wins", `{"program": {"kind": "bench", "bench": "a"}, "benchmark": "b", "strategy": "llp", "mode": "ilp"}`, ErrBadRequest},
		{"static selection", `{"program": {"kind": "bench", "bench": "a"}, "compiler": {"static_selection": true}}`, ErrBadRequest},
		{"v2 union", `{"program": {"kind": "bench", "bench": "a"}, "strategy": "llp"}`, ""},
		{"kind-less program", `{"program": {"kernels": [{"kind": "doall-map"}]}, "strategy": "llp"}`, ErrBadSpec},
	} {
		t.Run(tc.name, func(t *testing.T) {
			req, dep, err := DecodeJob(strings.NewReader(tc.body))
			if dep != nil {
				t.Errorf("DecodeJob middle result = %v, want nil", dep)
			}
			if err == nil {
				err = req.Normalize(known)
			}
			if tc.wantCode == "" {
				if err != nil {
					t.Fatalf("canonical body rejected: %v", err)
				}
				if req.Program.Bench != "a" || req.Strategy != "llp" {
					t.Errorf("decoded bench=%q strategy=%q, want a/llp", req.Program.Bench, req.Strategy)
				}
				return
			}
			if err == nil {
				t.Fatalf("retired spelling accepted")
			}
			if code := errorCode(err); code != tc.wantCode {
				t.Errorf("error %v has code %q, want %q", err, code, tc.wantCode)
			}
		})
	}
}

// errorCode is the typed error code the server would answer err with:
// a *Error's own code, bad_request for a plain decode failure.
func errorCode(err error) string {
	var se *Error
	if errors.As(err, &se) {
		return se.Code
	}
	return ErrBadRequest
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
	a := &JobRequest{Program: bench("x"), Trace: false}
	b := &JobRequest{Program: bench("x"), Trace: true}
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
