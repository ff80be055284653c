package spec

import (
	"bytes"
	"encoding/json"
	"testing"

	"voltron/internal/workload"
)

// fuzzSource is a small source program for the corpus: one parameter with a
// default (so spelled-default inputs prune), a DOALL map and a reduction.
const fuzzSource = "param n = 16;\nvar acc int = 0;\narray out[n] int;\nfunc main() {\n\tfor i = 0; i < n; i = i + 1 {\n\t\tout[i] = i * 3;\n\t\tacc = acc + out[i];\n\t}\n}\n"

// FuzzDecodeNormalize checks the properties the server's request memo
// stands on, for arbitrary bodies: decoding and normalizing never panic;
// the same bytes always yield the same content key (so a digest of the
// bytes may stand in for the key); Normalize is idempotent
// (the canonical form re-decodes and re-normalizes to the same run, compile
// and machine keys); and every spec that normalizes builds.
func FuzzDecodeNormalize(f *testing.F) {
	src, _ := json.Marshal(fuzzSource)
	for _, body := range []string{
		// v2 program union, every kind.
		`{"program": {"kind": "bench", "bench": "rawcaudio"}, "strategy": "llp", "cores": 2}`,
		`{"program": {"kind": "kernels", "name": "p", "kernels": [{"kind": "doall-map", "name": "m", "n": 64, "work": 2}, {"kind": "serial-chain", "name": "c", "n": 16}]}, "strategy": "llp", "cores": 2}`,
		`{"program": {"kind": "kernels", "kernels": [{"kind": "doall-map"}]}, "strategy": "llp"}`,
		`{"program": {"kind": "kernels", "name": "tiny", "kernels": [{"kind": "pipeline", "name": "p", "table": 512, "n": 64, "work": 2}]}, "strategy": "ftlp", "cores": 2, "trace": true, "baseline": true}`,
		`{"program": {"kind": "source", "name": "user", "source": ` + string(src) + `}, "strategy": "hybrid", "cores": 4}`,
		`{"program": {"kind": "source", "source": ` + string(src) + `, "inputs": {"n": 16}}, "trace": true}`,
		`{"program": {"kind": "source", "source": ` + string(src) + `, "inputs": {"n": 32, "zz": 1}}}`,
		`{"program": {"kind": "bench", "bench": "gsmdecode"}, "compiler": {"select": "static"}}`,
		`{"program": {"kind": "bench", "bench": "gsmdecode"}, "compiler": {"select": "auto", "select_threshold": -0.5}}`,
		`{"program": {"kind": "bench", "bench": "cjpeg"}, "strategy": "hybrid", "cores": 16, "compiler": {"select": "auto", "dswp_threshold": -1}, "machine": {"mesh_cols": 4, "queue_cap": -1}}`,
		// Retired pre-v2 spellings: unknown fields, or a kind-less program.
		`{"bench": "rawcaudio", "strategy": "serial", "cores": 1}`,
		`{"benchmark": "rawcaudio", "mode": "llp", "cores": 2}`,
		`{"bench": "a", "benchmark": "b", "strategy": "llp", "mode": "ilp"}`,
		`{"program": {"kernels": [{"kind": "doall-map"}]}, "strategy": "llp"}`,
		`{"program": {"kind": "bench", "bench": "gsmdecode"}, "compiler": {"static_selection": true}}`,
		// Rejections: trailing data, conflicts, ranges, unknowns.
		`{"program": {"kind": "bench", "bench": "cjpeg"}} {"junk": true} garbage`,
		`{"program": {"kind": "bench", "bench": "rawcaudio", "kernels": [{"kind": "branchy", "name": "b"}]}}`,
		`{"program": {"kind": "bench", "bench": "rawcaudio"}, "cores": 99}`,
		`{"program": {"kind": "bench", "bench": "nonesuch"}}`,
		`{"program": {"kind": "kernels", "name": "p", "kernels": [{"kind": "quantum", "name": "q"}]}}`,
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
	decode := func(body []byte) (*JobRequest, error) {
		req, _, err := DecodeJob(bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		return req, req.Normalize(known)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := decode(body)
		again, err2 := decode(body)
		if (err == nil) != (err2 == nil) {
			t.Fatalf("same bytes, different outcomes: %v vs %v", err, err2)
		}
		if err != nil {
			return
		}
		if req.Key() != again.Key() {
			t.Fatalf("same bytes, different keys: %s/%s", req.Key(), again.Key())
		}

		canon, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("marshaling the normalized request: %v", err)
		}
		re, err := decode(canon)
		if err != nil {
			t.Fatalf("canonical form %s does not re-normalize: %v", canon, err)
		}
		if re.Key() != req.Key() || re.CompileKey() != req.CompileKey() || re.MachineKey() != req.MachineKey() || re.Program.Key() != req.Program.Key() {
			t.Fatalf("Normalize is not idempotent on %s", canon)
		}

		if _, err := req.Program.Build(); err != nil {
			t.Fatalf("normalized spec %s does not build: %v", canon, err)
		}
	})
}
