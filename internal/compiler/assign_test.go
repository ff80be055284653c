package compiler

import (
	"slices"
	"strings"
	"testing"

	"voltron/internal/isa"
)

// TestAssignmentTable pins the dense assignment's rules: an op the table
// has no entry for — including one created after the table was sized —
// behaves as unassigned (primary 0, executed only by core 0, no sites);
// Replicate places it first; Set drops replicas; and checkAssignment
// rejects it.
func TestAssignmentTable(t *testing.T) {
	r := progCopyAdd(16).Regions[0]
	a := uniform(r, 1)
	late := r.NewOp(isa.ADD)
	if late.ID < len(a.primary) {
		t.Fatalf("op %d created after the table is inside it (len %d)", late.ID, len(a.primary))
	}
	sites := func(want ...int) {
		t.Helper()
		if got := a.AppendSites(nil, late); !slices.Equal(got, want) {
			t.Errorf("sites %v, want %v", got, want)
		}
	}
	if a.Primary(late) != 0 || !a.On(late, 0) || a.On(late, 1) {
		t.Error("unassigned op must run on core 0 only")
	}
	sites()
	a.Replicate(late, 0) // already implied: stays unassigned
	sites()
	a.Replicate(late, 2)
	sites(0, 2)
	a.Replicate(late, 3)
	a.Replicate(late, 2)
	sites(0, 2, 3)
	if got := a.Cores(); !slices.Equal(got, []int{0, 1, 2, 3}) {
		t.Errorf("Cores() = %v, want [0 1 2 3]", got)
	}
	a.Set(late, 3)
	sites(3)
	if a.On(late, 2) {
		t.Error("Set kept a replica")
	}
	if got := a.Cores(); !slices.Equal(got, []int{0, 1, 3}) {
		t.Errorf("Cores() = %v, want [0 1 3]", got)
	}

	// An op added to a block without an entry is rejected.
	r.Blocks[0].Ops = append(r.Blocks[0].Ops, r.NewOp(isa.ADD))
	if err := checkAssignment(r, a); err == nil || !strings.Contains(err.Error(), "unassigned") {
		t.Errorf("checkAssignment = %v, want an unassigned-op error", err)
	}
}
