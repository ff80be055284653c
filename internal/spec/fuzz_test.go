package spec

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"voltron/internal/workload"
)

// fuzzSource is a small source program for the corpus: one parameter with a
// default (so spelled-default inputs prune), a DOALL map and a reduction.
const fuzzSource = "param n = 16;\nvar acc int = 0;\narray out[n] int;\nfunc main() {\n\tfor i = 0; i < n; i = i + 1 {\n\t\tout[i] = i * 3;\n\t\tacc = acc + out[i];\n\t}\n}\n"

// FuzzDecodeNormalize checks the properties the server's request memo
// stands on, for arbitrary bodies: decoding and normalizing never panic;
// the same bytes always yield the same content key and deprecation list (so
// a digest of the bytes may stand in for the key); Normalize is idempotent
// (the canonical form re-decodes and re-normalizes to the same run, compile
// and machine keys); and every spec that normalizes builds.
func FuzzDecodeNormalize(f *testing.F) {
	src, _ := json.Marshal(fuzzSource)
	for _, body := range []string{
		// v2 program union, every kind.
		`{"program": {"kind": "bench", "bench": "rawcaudio"}, "strategy": "llp", "cores": 2}`,
		`{"program": {"kind": "kernels", "name": "p", "kernels": [{"kind": "doall-map", "name": "m", "n": 64, "work": 2}, {"kind": "serial-chain", "name": "c", "n": 16}]}, "strategy": "llp", "cores": 2}`,
		`{"program": {"kind": "source", "name": "user", "source": ` + string(src) + `}, "strategy": "hybrid", "cores": 4}`,
		`{"program": {"kind": "source", "source": ` + string(src) + `, "inputs": {"n": 16}}, "trace": true}`,
		`{"program": {"kind": "source", "source": ` + string(src) + `, "inputs": {"n": 32, "zz": 1}}}`,
		// v1 and pre-v1 spellings.
		`{"bench": "rawcaudio", "strategy": "serial", "cores": 1}`,
		`{"benchmark": "rawcaudio", "mode": "llp", "cores": 2}`,
		`{"bench": "a", "benchmark": "b", "strategy": "llp", "mode": "ilp"}`,
		`{"program": {"kernels": [{"kind": "doall-map"}]}, "strategy": "llp"}`,
		`{"program": {"name": "tiny", "kernels": [{"kind": "pipeline", "name": "p", "table": 512, "n": 64, "work": 2}]}, "strategy": "ftlp", "cores": 2, "trace": true, "baseline": true}`,
		`{"bench": "gsmdecode", "compiler": {"static_selection": true}}`,
		`{"bench": "gsmdecode", "compiler": {"static_selection": true, "select": "auto", "select_threshold": -0.5}}`,
		`{"bench": "cjpeg", "strategy": "hybrid", "cores": 16, "compiler": {"select": "auto", "dswp_threshold": -1}, "machine": {"mesh_cols": 4, "queue_cap": -1}}`,
		// Rejections: trailing data, conflicts, ranges, unknowns.
		`{"program": {"kind": "bench", "bench": "cjpeg"}} {"junk": true} garbage`,
		`{"bench": "rawcaudio", "program": {"name": "p", "kernels": [{"kind": "branchy", "name": "b"}]}}`,
		`{"bench": "rawcaudio", "cores": 99}`,
		`{"bench": "nonesuch"}`,
		`{"program": {"name": "p", "kernels": [{"kind": "quantum", "name": "q"}]}}`,
		`{"program": {"kind": "source", "source": "func main() { x = ; }"}}`,
		`{}`,
		`{`,
	} {
		f.Add([]byte(body))
	}
	names := map[string]bool{}
	for _, n := range workload.Names() {
		names[n] = true
	}
	known := func(b string) bool { return names[b] }
	decode := func(body []byte) (*JobRequest, string, error) {
		req, dep, err := DecodeJob(bytes.NewReader(body))
		if err != nil {
			return nil, "", err
		}
		return req, strings.Join(dep, ","), req.Normalize(known)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		req, dep, err := decode(body)
		again, dep2, err2 := decode(body)
		if (err == nil) != (err2 == nil) {
			t.Fatalf("same bytes, different outcomes: %v vs %v", err, err2)
		}
		if err != nil {
			return
		}
		if dep != dep2 || req.Key() != again.Key() {
			t.Fatalf("same bytes, different key or deprecations: %q/%q", dep, dep2)
		}

		canon, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("marshaling the normalized request: %v", err)
		}
		re, _, err := decode(canon)
		if err != nil {
			t.Fatalf("canonical form %s does not re-normalize: %v", canon, err)
		}
		if re.Key() != req.Key() || re.CompileKey() != req.CompileKey() || re.MachineKey() != req.MachineKey() {
			t.Fatalf("Normalize is not idempotent on %s", canon)
		}

		if req.Program.Kind == KindBench {
			_, err = workload.Build(req.Program.Bench)
		} else {
			_, err = req.Program.Build()
		}
		if err != nil {
			t.Fatalf("normalized spec %s does not build: %v", canon, err)
		}
	})
}
