package compiler

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"sort"
	"testing"

	"voltron/internal/ir"
	"voltron/internal/prof"
	"voltron/internal/workload"
)

// partitionDigests pins the partitioners directly: per benchmark, the
// SHA-256 over every region's BUG and eBUG assignments (with the suite
// profile, without a profile, and with the eBUG weights disabled), the
// sanitized eBUG assignment and tryDSWP's pipeline partition, at 2, 4, 16
// and 64 cores. Each assignment is encoded as (op ID, primary, sorted
// replicas) in program order. A change that only makes partitioning
// cheaper must leave every entry unchanged.
var partitionDigests = map[string]string{
	"052.alvinn": "4fac831b190043781703f49c7a203851976713d0fc12b595938475720dd92572",
	"056.ear":    "4e278dd8582564a9eef729c6d61c538889fa66e6aaa980605167c7e1c0768b74",
	"132.ijpeg":  "799a676d351534b6dd4d3de497195e0b16f0b3c4db3bc413a4c27f61606e95b6",
	"164.gzip":   "5339dbb21dcb86460ae1ce6e9e8b57da53ac7db584584eac40ebc37adbd005c6",
	"171.swim":   "d490f97690cc59a3fb590ccc58b219ac38d46db8ed245c031bddb9eaca35c7b6",
	"172.mgrid":  "9192a6b30009cf3382cfca005ca92d239036f32e1c0339403550122f71bc1bcc",
	"175.vpr":    "a3f9267792278b65fa4618a3da8d77495862c3035716d7a6a6deb3c109e147e8",
	"177.mesa":   "caf25e83f84eb1f0f1cb5954f2b43f8a88051b597cca634c888fdec9d918480f",
	"179.art":    "b774a6dc9d8cb8a8792f4dbc8384b44c71ed51c6419bdfc266bc83bb343d9c7f",
	"183.equake": "4751e104941342f745644f8663bb1f551737e0df11ab202715fc0e3e8a3fe0c8",
	"197.parser": "8202291f6ee7669eac3f1fa8b1564dd06c65e3d8310ea659f4e4372f906ef81a",
	"255.vortex": "5e0bc3a2ac3e1eb160023446f01825b10e91e314896d48a00270358d7e314152",
	"256.bzip2":  "2953e818acb4f29795dabb093f27f0b9f3417341d1edcb50af1eb48ebc7f908e",
	"cjpeg":      "3885fca5a8ded78a90f1e0e6eb5059cea345cd84ceaf336d70fe378a7cd3fa78",
	"djpeg":      "fd7ebbc13e07755bf2c3c6ae873f27f655a1063e7709a0b543442865921e8f91",
	"epic":       "5e971ae181eceb8a000593afce0095c8f727982684a745d0726b4e9211314fbe",
	"g721decode": "68fe71e7771bff9aad8f3b6831d9b8ce42b11eceb7c6a8588eb438757728bf8a",
	"g721encode": "93dade3d6a6d70cd449b43394d01ca2e1c88a49e3a5f4fc045417d8730e6c49f",
	"gsmdecode":  "b3ce8a84bf086a71281076838658ce52f8d5102032ef80c87bc64122126a52a1",
	"gsmencode":  "8bdc6bf7dde33a28f193df5d05afa3c3bd9d3e4fa363a6097ea5cc1b383a013a",
	"mpeg2dec":   "62ec42a9205de1366573a249864a1d9d2d2735e8c2c5761e66451b745c339b45",
	"mpeg2enc":   "35277dba49c7c376da5a9cd5bf334e9f262a9defe04a9fab932ec852e0f6b021",
	"rawcaudio":  "b4f487f9145cd7b5cd4a23a1338b4a6cda40109adc127ef3b432565f67ffc8a2",
	"rawdaudio":  "cbc0ad75dbb04af654e1e9f09376d1f524fa1fd35e2703f97dc326bdeb7afac1",
	"unepic":     "343bc02e5687b91382a1446057fb352be5c3320c672e044fdf0e368c1b9b1da1",
}

func TestPartitionDigest(t *testing.T) {
	for _, name := range workload.Names() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			got := partitionDigest(t, name)
			if want := partitionDigests[name]; got != want {
				t.Errorf("%s: partition digest %s, want %s", name, got, want)
			}
		})
	}
}

// partitionDigest partitions every region of one benchmark in every digest
// configuration and hashes the assignments in a fixed order.
func partitionDigest(t *testing.T, name string) string {
	p, err := workload.Build(name)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := prof.Collect(p)
	if err != nil {
		t.Fatal(err)
	}
	p.PrepareOnce(func() { Optimize(p) })
	h := sha256.New()
	var buf []byte
	for _, cores := range []int{2, 4, 16, 64} {
		withProf := Options{Cores: cores, Profile: pr}.withDefaults()
		noProf := Options{Cores: cores}.withDefaults()
		noWeights := withProf
		noWeights.DisableEBUGWeights = true
		for _, r := range p.Regions {
			buf = appendString(buf[:0], r.Name)
			buf = binary.AppendVarint(buf, int64(cores))
			buf = appendAssignment(buf, r, BUG(r, withProf))
			buf = appendAssignment(buf, r, BUG(r, noProf))
			buf = appendAssignment(buf, r, EBUG(r, noWeights))
			a := EBUG(r, withProf)
			buf = appendAssignment(buf, r, a)
			buf = appendAssignment(buf, r, sanitize(r, a))
			part, est := tryDSWP(r, withProf)
			buf = binary.AppendVarint(buf, int64(math.Float64bits(est)))
			if part == nil {
				buf = append(buf, 0)
			} else {
				buf = append(buf, 1)
				buf = appendAssignment(buf, r, part)
			}
			h.Write(buf)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// appendAssignment encodes a's placement of every op of r in program
// order; an unassigned op encodes as primary -1 with no replicas.
func appendAssignment(buf []byte, r *ir.Region, a *Assignment) []byte {
	ops := r.AllOps()
	buf = binary.AppendVarint(buf, int64(len(ops)))
	var cs []int
	for _, o := range ops {
		buf = binary.AppendVarint(buf, int64(o.ID))
		cs = a.AppendSites(cs[:0], o)
		if len(cs) == 0 {
			buf = binary.AppendVarint(buf, -1)
			buf = binary.AppendVarint(buf, 0)
			continue
		}
		buf = binary.AppendVarint(buf, int64(cs[0]))
		reps := append([]int(nil), cs[1:]...)
		sort.Ints(reps)
		buf = binary.AppendVarint(buf, int64(len(reps)))
		for _, c := range reps {
			buf = binary.AppendVarint(buf, int64(c))
		}
	}
	return buf
}
