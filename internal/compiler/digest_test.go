package compiler

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"sort"
	"testing"

	"voltron/internal/core"
	"voltron/internal/isa"
	"voltron/internal/prof"
	"voltron/internal/workload"
)

// loweringDigests pins the exact code every lowering emits: per benchmark,
// the SHA-256 over every compiled region of serial/ilp/ftlp/llp/hybrid at
// 2, 4, 16 and 64 cores, with ilp/ftlp/hybrid under both measured and auto
// selection. A compiler change that only makes lowering cheaper must leave
// every entry unchanged.
var loweringDigests = map[string]string{
	"052.alvinn": "6d0467de83216b430f1ca947ff422da5a710fa8ea95467c1936c679a3bc88e7a",
	"056.ear":    "b1493f06adbeb9a387d47a90ef926a22673bb74043b73c957f95a22afac22774",
	"132.ijpeg":  "1182b6d329c5c2b39f414e78b75a678d7cb22cb725a85542da2f7eb00638a648",
	"164.gzip":   "fb08505be3f322a5ba607e6fe75ced9b7aa0e423dffc209c6de725621f8c8d28",
	"171.swim":   "7b1e7c52fc8914814af722c02e230b27a59145533d2d9cd3db9d3f3b2dc2eff4",
	"172.mgrid":  "c72124bdf2b8e6188bab9cbc3252d08715acb7d3ac82a187f83cb3b6dbbfd578",
	"175.vpr":    "636f04eb19cc81edb6f409f1b558020f8a4e5750f4fd0ad34a7b8487bea6e0e3",
	"177.mesa":   "54d49b8e2dc9bf441c0ef153f0c1e1affbcc0db7445aef9a40c6f63d55d8f058",
	"179.art":    "8872eba36a2f50aa5e78cadc8d178a03ea1743380118049926ed7f30185128b7",
	"183.equake": "b61fd8c46e02ac153c83d809a83e91e75e5ff951f9759e39ec7e76b3efc6b438",
	"197.parser": "79444abd7679f9c9a0816ad5f59c3fb9cb929065ee9ee9a108cf4007b57d4d4e",
	"255.vortex": "232bd677517c28dcd18da6969208058456b2cc9d907dde809d66aed903e23393",
	"256.bzip2":  "b694f4a380eb34efb7f06cb0efab527f0575a801ba418d582fc7de878fe73a2e",
	"cjpeg":      "c0b9b2a5138f45fef664d6591971daf35c9c4a8185cc2c435c75b8ed7018627c",
	"djpeg":      "038f5ba0c58084af8492bed944e6a7ccc912eb6011ac13c024797f6c8fbc8ac1",
	"epic":       "9dd2760719fc88f3827dd31a03e83cbdf17264ddf0165f45987d8fb7ea202fe3",
	"g721decode": "4120185db89948e358914c3f0939d76f9185b49cab14ea73c1b704770efec73b",
	"g721encode": "994ed64ab1137fdfcca1dfc70e84f6e3319d5ade4093c11728d36d80a8931db1",
	"gsmdecode":  "aeb4d6a39b93d9141da02c1e0ff05ad6568cc5082a079f6ab45d33d9e3da8614",
	"gsmencode":  "e56cce78d8253b5d4fa06673a41f9b1bb999c84171711a6fdb3c51a33e82dc35",
	"mpeg2dec":   "bf20af5da65637f646da6ac1e0ae70153c4e3aaf5e177c00d2a15b64f2f7888f",
	"mpeg2enc":   "05c2a78cf14b9c66ee156a0a0f31732fc84792785a1d131ae501d3f44a7cfbff",
	"rawcaudio":  "6c763a5b1ab6cd294b4b207b755c7a0b89202f7661bc1f8277f0a6621cedc1ab",
	"rawdaudio":  "ef8544b4b97c3bb8d3bcc653a397541c930e57f693c72b523b955157b10e6561",
	"unepic":     "1e12838659edaa4ad1cc025152f30832e2289175b52f35f806f28f28a2e72891",
}

// digestStrategies are the configurations loweringDigest covers per core
// count. Serial and LLP do not consult the selection mode.
var digestStrategies = []struct {
	strat Strategy
	sel   SelectionMode
}{
	{Serial, SelectMeasured},
	{ForceLLP, SelectMeasured},
	{ForceILP, SelectMeasured},
	{ForceILP, SelectAuto},
	{ForceFTLP, SelectMeasured},
	{ForceFTLP, SelectAuto},
	{Hybrid, SelectMeasured},
	{Hybrid, SelectAuto},
}

func TestLoweringDigest(t *testing.T) {
	for _, name := range workload.Names() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			got := loweringDigest(t, name)
			if want := loweringDigests[name]; got != want {
				t.Errorf("lowering digest %s, want %s", got, want)
			}
		})
	}
}

// loweringDigest compiles one benchmark in every digest configuration and
// hashes the results (or the compile errors) in a fixed order.
func loweringDigest(t *testing.T, name string) string {
	p, err := workload.Build(name)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := prof.Collect(p)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	var buf []byte
	for _, cores := range []int{2, 4, 16, 64} {
		for _, c := range digestStrategies {
			cp, err := Compile(p, Options{Cores: cores, Strategy: c.strat, Selection: c.sel, Profile: pr, Workers: 1})
			buf = appendString(buf[:0], c.strat.String()+"/"+c.sel.String())
			buf = binary.AppendVarint(buf, int64(cores))
			if err != nil {
				buf = appendString(buf, "error: "+err.Error())
			} else {
				for _, cr := range cp.Regions {
					buf = appendRegion(buf, cr)
				}
			}
			h.Write(buf)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// appendRegion encodes every emitted field of a compiled region; label
// maps are encoded in key order.
func appendRegion(buf []byte, cr *core.CompiledRegion) []byte {
	buf = appendString(buf, cr.Name)
	buf = binary.AppendVarint(buf, int64(cr.Mode))
	buf = binary.AppendVarint(buf, int64(len(cr.Code)))
	for _, code := range cr.Code {
		buf = appendCode(buf, code)
	}
	buf = binary.AppendVarint(buf, int64(len(cr.Labels)))
	for _, m := range cr.Labels {
		buf = appendLabels(buf, m)
	}
	buf = binary.AppendVarint(buf, int64(len(cr.Entry)))
	for _, e := range cr.Entry {
		buf = binary.AppendVarint(buf, int64(e))
	}
	buf = binary.AppendVarint(buf, int64(len(cr.StartAwake)))
	for _, a := range cr.StartAwake {
		if a {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
	}
	buf = binary.AppendVarint(buf, int64(cr.TxCores))
	buf = appendCode(buf, cr.Fallback)
	return appendLabels(buf, cr.FallbackLabels)
}

func appendCode(buf []byte, code []isa.Inst) []byte {
	buf = binary.AppendVarint(buf, int64(len(code)))
	for _, in := range code {
		for _, x := range [...]int64{
			int64(in.Op), int64(in.Dst.Class), int64(in.Dst.Index),
			int64(in.Src1.Class), int64(in.Src1.Index), int64(in.Src2.Class), int64(in.Src2.Index),
			in.Imm, int64(math.Float64bits(in.F)), int64(in.Dir), int64(in.Core), int64(in.IROp),
		} {
			buf = binary.AppendVarint(buf, x)
		}
	}
	return buf
}

func appendLabels(buf []byte, m map[int64]int) []byte {
	keys := make([]int64, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	buf = binary.AppendVarint(buf, int64(len(keys)))
	for _, k := range keys {
		buf = binary.AppendVarint(buf, k)
		buf = binary.AppendVarint(buf, int64(m[k]))
	}
	return buf
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendVarint(buf, int64(len(s)))
	return append(buf, s...)
}
