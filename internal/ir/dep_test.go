package ir_test

import (
	"slices"
	"testing"

	"voltron/internal/ir"
	"voltron/internal/workload"
)

// TestBlockDFGPredsOnSuite checks the flat block DFG on every block of the
// suite and of 100 random programs: Preds(o) must be exactly the edges into
// o in Edges order — the per-op lists the graph used to keep in a map —
// and every edge must belong to its destination's run.
func TestBlockDFGPredsOnSuite(t *testing.T) {
	var progs []*ir.Program
	for _, name := range workload.Names() {
		p, err := workload.Build(name)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, p)
	}
	for seed := 0; seed < 100; seed++ {
		p, err := workload.Random(int64(seed), 1+seed%3)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, p)
	}
	edges := 0
	for _, p := range progs {
		for _, r := range p.Regions {
			ctx := r.NewAffineCtx(nil)
			for _, b := range r.Blocks {
				g := r.BuildBlockDFG(b, ctx)
				want := map[*ir.Op][]ir.DepEdge{}
				for _, e := range g.Edges {
					want[e.Dst] = append(want[e.Dst], e)
				}
				n := 0
				for _, o := range b.Ops {
					got := g.Preds(o)
					if !slices.Equal(got, want[o]) {
						t.Fatalf("%s/%s/%v: Preds(%v) = %v, want %v", p.Name, r.Name, b, o, got, want[o])
					}
					n += len(got)
				}
				if n != len(g.Edges) {
					t.Fatalf("%s/%s: Preds cover %d of %d edges", p.Name, r.Name, n, len(g.Edges))
				}
				edges += n
			}
		}
	}
	if edges == 0 {
		t.Fatal("no dependence edges built")
	}
}
