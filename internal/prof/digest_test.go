package prof_test

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"voltron/internal/compiler"
	"voltron/internal/ir"
	"voltron/internal/lang"
	"voltron/internal/workload"
)

// profileDigest pins every profile the compiler consumes: each benchmark's
// and each examples/lang program's prof.Profile, profiled the way the
// service profiles (compiler.Profile, cleanup first). The hash covers the
// presence of every map entry as well as its value, because consumers test
// presence (a loop absent from CarriedDep is a DOALL candidate).
const profileDigest = "ab77b8b3f2d268cb6eb86727e8957b7f2524b43b63906fe1feb837afe08ebf3e"

func TestProfileDigest(t *testing.T) {
	h := sha256.New()
	for _, name := range workload.Names() {
		p, err := workload.Build(name)
		if err != nil {
			t.Fatal(err)
		}
		hashProfile(t, h, p)
	}
	paths, err := filepath.Glob(filepath.Join("..", "..", "examples", "lang", "*.vs"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no example programs found: %v", err)
	}
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		fe, err := lang.Frontend(string(src), nil)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		p, err := fe.Lower(filepath.Base(path))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		hashProfile(t, h, p)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != profileDigest {
		t.Errorf("profile digest %s, want %s", got, profileDigest)
	}
}

// hashProfile profiles p and writes its profile in canonical order: per
// region, every block by ID (count, trip count, carried dependence), then
// every op by ID (execution count, miss rate), each entry preceded by a
// presence byte; rates are hashed as their IEEE-754 bits.
func hashProfile(t *testing.T, h hash.Hash, p *ir.Program) {
	t.Helper()
	pr, err := compiler.Profile(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	var buf []byte
	u64 := func(v uint64) { buf = binary.LittleEndian.AppendUint64(buf, v) }
	// present counts the entries met per map, so entries keyed by anything
	// but the program's own blocks and ops show up as a count mismatch.
	var present [5]int
	flag := func(m int, ok bool) {
		if ok {
			present[m]++
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
	}
	buf = append(buf, p.Name...)
	for _, r := range p.Regions {
		u64(uint64(r.ID))
		for _, b := range r.Blocks {
			u64(uint64(b.ID))
			n, ok := pr.BlockCount[b]
			flag(0, ok)
			u64(uint64(n))
			tc, ok := pr.TripCount[b]
			flag(1, ok)
			u64(math.Float64bits(tc))
			dep, ok := pr.CarriedDep[b]
			flag(2, ok)
			if dep {
				buf = append(buf, 1)
			} else {
				buf = append(buf, 0)
			}
		}
		var ops []*ir.Op
		for _, b := range r.Blocks {
			ops = append(ops, b.Ops...)
		}
		slices.SortFunc(ops, func(a, b *ir.Op) int { return a.ID - b.ID })
		for _, o := range ops {
			u64(uint64(o.ID))
			n, ok := pr.ExecCount[o]
			flag(3, ok)
			u64(uint64(n))
			mr, ok := pr.MissRate[o]
			flag(4, ok)
			u64(math.Float64bits(mr))
		}
	}
	for _, n := range pr.RegionOps {
		u64(uint64(n))
	}
	if want := [5]int{len(pr.BlockCount), len(pr.TripCount), len(pr.CarriedDep), len(pr.ExecCount), len(pr.MissRate)}; present != want {
		t.Errorf("%s: profile entries met per map %v, map sizes %v", p.Name, present, want)
	}
	h.Write(buf)
}
