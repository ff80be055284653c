package compiler

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"voltron/internal/core"
	"voltron/internal/ir"
	"voltron/internal/prof"
	"voltron/internal/trace"
	"voltron/internal/workload"
)

// selectionDigests pins strategy selection: per benchmark, the SHA-256 over
// the selection metadata (mode, tier counts and every region's tier,
// choice and confidence bits) and the emitted regions of ilp, ftlp and
// hybrid under measured, static and auto selection at 2, 4, 16 and 64
// cores. Each auto compile also runs traced, and the digest covers
// Recheck's answer to that run's stall report. A change to how selection
// is driven must leave every entry unchanged.
var selectionDigests = map[string]string{
	"052.alvinn": "febfebde0a9203b71002cde041f328fcfd5d8a34f542195f4cf3846e4f58c5cd",
	"056.ear":    "c1c90fec57f4975d9da88541d60a651cbdf11580afa3dbb412528463ee05a3d4",
	"132.ijpeg":  "becbdb619942f728af1f41f775a7f27be8498f9c93f0e6b52131b93470eedd42",
	"164.gzip":   "3a1a75f5695e092f1e83656de6c4294a7ab40b722a482e88dfe49ccbffc2ab31",
	"171.swim":   "db58757f4564e14fe5092b7f8564ce90dce338b6f3cf0595ea1c3afdc64b17bf",
	"172.mgrid":  "e557e05278bf5099f4eb1138c6ee3f8800623b3a7a10d5ec7c04cf47e272a420",
	"175.vpr":    "7cc6d0c2576a9681e54eb47719a0f25d272f2ba0e060dda152e6bc397adec0e2",
	"177.mesa":   "a4b29e89cd32f833bce1df5243b6f5ba33ea946807ede0641ebb75c19acf92ed",
	"179.art":    "547fec985eaf59442157c98b741977cb29b4fc2b90ed831b9b8f9c8ac5c15084",
	"183.equake": "e907d294d4315c4a6840831023b5bfe4a20ae96abc36178b3bd58f6f48844345",
	"197.parser": "441aa5095e9a025ea883f39e62ed6dbdf0083b687cf227eff1f27cd5e4e09651",
	"255.vortex": "3baced590425b8e3c4cfe696f2cc5922383d3b248e0ecb694dce0987fede9253",
	"256.bzip2":  "f423694d2d14b7b8b7104cfa202146f3eef8f713ffc6c3140c47d0400b921c73",
	"cjpeg":      "35f1a84499febda7159cc403cb68293d9d1b7e0de3e13bfcb1fc3cc08b0b112d",
	"djpeg":      "4a0bf5aa9959cd2763e3ed7060afb759ca166f804c75bade63729e1cfd1e0d9a",
	"epic":       "7d903cd0759919ce2c584dd3494501a55b4c630cfda75d6a74c9fa4c11b5f0ae",
	"g721decode": "3051083961da3718c2d645a3314b96e6012482a95c1a923cd3000ad323dd3934",
	"g721encode": "e1267f702475d3ac4ba052a47253cc1784652af8fc416198593ed06921f998d3",
	"gsmdecode":  "b232a27a226d54881a31f365ad3cc49f8693b82a5ac794f62367283060306ceb",
	"gsmencode":  "ea6a661a40a2399e0e711fb9036f9f7375fa4ae5eae4a76b8742104708bcf952",
	"mpeg2dec":   "5e908cfe03cf6049223cb997d80eb84f4e7c1b582fbb06959f18ad74ad8deb8e",
	"mpeg2enc":   "f4cddf63894f042c13ec6be57b7965d55fd4312c54d10ef181cd48efe5967ace",
	"rawcaudio":  "9c9bd0eb5dc06a1ae7720da1b45856aef56e3b7cc51183a0556b9f0c8e9f021a",
	"rawdaudio":  "1bb0b7cfa4a6b690da34077ea66e49f7dbb42c6d485c0311e1fb14dc880c4875",
	"unepic":     "ed8ac42eef143362d02dbbd14ffe00d42dd5fee50a086cb4a3a36430ce3fe120",
}

func TestSelectionDigest(t *testing.T) {
	for _, name := range workload.Names() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			got := selectionDigest(t, name)
			if want := selectionDigests[name]; got != want {
				t.Errorf("%s: selection digest %s, want %s", name, got, want)
			}
		})
	}
}

// selectionDigest compiles one benchmark in every selection configuration,
// once with one worker and once with two, fails on any difference between
// the two, and hashes the one-worker results in a fixed order.
func selectionDigest(t *testing.T, name string) string {
	p, err := workload.Build(name)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := prof.Collect(p)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, cores := range []int{2, 4, 16, 64} {
		for _, strat := range []Strategy{ForceILP, ForceFTLP, Hybrid} {
			for _, sel := range []SelectionMode{SelectMeasured, SelectStatic, SelectAuto} {
				seq := selectionRecord(t, p, Options{Cores: cores, Strategy: strat, Selection: sel, Profile: pr, Workers: 1})
				par := selectionRecord(t, p, Options{Cores: cores, Strategy: strat, Selection: sel, Profile: pr, Workers: 2})
				if !bytes.Equal(seq, par) {
					t.Errorf("%v/%v/%d: two workers select differently from one", strat, sel, cores)
				}
				h.Write(seq)
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// selectionRecord encodes one configuration's compile (or its error) and,
// for auto selection, the Recheck of a traced run of the result.
func selectionRecord(t *testing.T, p *ir.Program, opts Options) []byte {
	buf := appendString(nil, opts.Strategy.String()+"/"+opts.Selection.String())
	buf = binary.AppendVarint(buf, int64(opts.Cores))
	cp, err := Compile(p, opts)
	if err != nil {
		return appendString(buf, "error: "+err.Error())
	}
	buf = appendSelected(buf, cp)
	if opts.Selection != SelectAuto {
		return buf
	}
	cfg := core.DefaultConfig(opts.Cores)
	cfg.Tracer = trace.New()
	if _, err := core.New(cfg).Run(cp); err != nil {
		t.Fatalf("%v/%d: traced run: %v", opts.Strategy, opts.Cores, err)
	}
	out, idx, err := Recheck(context.Background(), p, cp, cfg.Tracer.Report(), opts, nil)
	if err != nil {
		return appendString(buf, "recheck error: "+err.Error())
	}
	buf = binary.AppendVarint(buf, int64(len(idx)))
	for _, i := range idx {
		buf = binary.AppendVarint(buf, int64(i))
	}
	return appendSelected(buf, out)
}

// appendSelected encodes a compiled program's selection metadata and every
// emitted region.
func appendSelected(buf []byte, cp *core.CompiledProgram) []byte {
	s := cp.Selection
	buf = appendString(buf, s.Mode)
	for _, n := range [...]int{s.Static, s.Escalated, s.Measured, len(s.Regions)} {
		buf = binary.AppendVarint(buf, int64(n))
	}
	for _, r := range s.Regions {
		buf = appendString(buf, r.Tier)
		buf = appendString(buf, r.Choice)
		buf = binary.AppendUvarint(buf, math.Float64bits(r.Confidence))
	}
	buf = binary.AppendVarint(buf, int64(len(cp.Regions)))
	for _, cr := range cp.Regions {
		buf = appendRegion(buf, cr)
	}
	return buf
}
