// Package compiler lowers IR programs to per-core Voltron machine code. It
// implements the paper's four parallelization strategies — BUG multicluster
// partitioning for coupled-mode ILP, eBUG strand extraction and DSWP
// pipeline extraction for decoupled-mode fine-grain TLP, and statistical
// DOALL chunking with transactional speculation for LLP — plus the
// region-by-region strategy selection that drives hybrid execution.
package compiler

import (
	"fmt"
	"sort"

	"voltron/internal/ir"
)

// Assignment maps each IR op to the cores that execute it. The first core
// is the primary (it owns the op's side effects and outgoing messages);
// additional cores hold replicas (only register-only ops are replicated —
// the control slice). Ops absent from the map run on the master core 0.
type Assignment map[*ir.Op][]int

// Primary returns the op's owning core.
func (a Assignment) Primary(o *ir.Op) int {
	if cs, ok := a[o]; ok && len(cs) > 0 {
		return cs[0]
	}
	return 0
}

// On reports whether core c executes o (as owner or replica).
func (a Assignment) On(o *ir.Op, c int) bool {
	cs, ok := a[o]
	if !ok {
		return c == 0
	}
	for _, x := range cs {
		if x == c {
			return true
		}
	}
	return false
}

// Replicate adds core c as a replica site of o.
func (a Assignment) Replicate(o *ir.Op, c int) {
	if a.On(o, c) {
		return
	}
	if _, ok := a[o]; !ok {
		a[o] = []int{0}
	}
	a[o] = append(a[o], c)
}

// Cores returns the sorted set of cores that own at least one op, always
// including the master core 0.
func (a Assignment) Cores() []int {
	set := map[int]bool{0: true}
	for _, cs := range a {
		for _, c := range cs {
			set[c] = true
		}
	}
	var out []int
	for c := range set {
		out = append(out, c)
	}
	sort.Ints(out)
	return out
}

// uniform makes an assignment placing every op of the region on one core.
func uniform(r *ir.Region, core int) Assignment {
	a := Assignment{}
	for _, o := range r.AllOps() {
		a[o] = []int{core}
	}
	return a
}

// sanitize enforces the invariants decoupled code generation relies on:
//
//  1. Every def of a multiply-defined value lives on the same primary core
//     with the same replica set (so consumers have one coherent copy
//     stream).
//  2. Memory operations joined by a loop-carried (or unanalyzable) memory
//     dependence share a primary core — a cross-core carried dependence
//     cannot be synchronized with a single intra-iteration token.
//
// It mutates the assignment and returns it.
func sanitize(r *ir.Region, a Assignment) Assignment {
	// Rule 1: unify defs per value.
	defs := map[ir.Value][]*ir.Op{}
	for _, o := range r.AllOps() {
		if o.Dst != ir.NoValue {
			defs[o.Dst] = append(defs[o.Dst], o)
		}
	}
	for _, ds := range defs {
		if len(ds) < 2 {
			continue
		}
		home := append([]int(nil), a[ds[0]]...)
		if len(home) == 0 {
			home = []int{a.Primary(ds[0])}
		}
		for _, d := range ds[1:] {
			a[d] = append([]int(nil), home...)
		}
	}
	// Rule 2: union-find over carried memory dependences.
	loops := r.Loops()
	parent := map[*ir.Op]*ir.Op{}
	var find func(o *ir.Op) *ir.Op
	find = func(o *ir.Op) *ir.Op {
		if parent[o] == nil || parent[o] == o {
			parent[o] = o
			return o
		}
		parent[o] = find(parent[o])
		return parent[o]
	}
	union := func(x, y *ir.Op) { parent[find(x)] = find(y) }
	for _, l := range loops {
		var memOps []*ir.Op
		for id := range l.Blocks {
			for _, o := range r.Blocks[id].Ops {
				if o.Code.IsMemory() {
					memOps = append(memOps, o)
				}
			}
		}
		if len(memOps) < 2 {
			continue
		}
		ctx := r.NewAffineCtx(l)
		for i, x := range memOps {
			for _, y := range memOps[i+1:] {
				switch r.MemDep(x, y, l, ctx) {
				case ir.MemCarriedDep, ir.MemBothDep:
					union(x, y)
				}
			}
		}
	}
	groups := map[*ir.Op][]*ir.Op{}
	for _, o := range r.AllOps() {
		if o.Code.IsMemory() {
			groups[find(o)] = append(groups[find(o)], o)
		}
	}
	for _, g := range groups {
		if len(g) < 2 {
			continue
		}
		home := a.Primary(g[0])
		for _, o := range g {
			// Memory ops are never replicated; pin the whole group.
			a[o] = []int{home}
		}
	}
	return a
}

// controlSliceOps returns the replicable portion of the control slice: the
// transitive computation feeding the region's block conditions, restricted
// to operations whose whole input chain is register-only. Both execution
// modes replicate it so cores resolve branches locally where possible
// (paper §3.2 / Figure 5(c)); load-dependent predicate parts stay owned and
// travel over the network (the gzip Figure 8 pattern). Returns nil when the
// replicable subset exceeds maxSize (replication would bloat every core).
func controlSliceOps(r *ir.Region, maxSize int) []*ir.Op {
	defs := map[ir.Value][]*ir.Op{}
	for _, o := range r.AllOps() {
		if o.Dst != ir.NoValue {
			defs[o.Dst] = append(defs[o.Dst], o)
		}
	}
	// Slice closure over the conditions' transitive defs (not expanding
	// through memory ops: their inputs stay un-replicated).
	seen := map[*ir.Op]bool{}
	var work, slice []*ir.Op
	for _, b := range r.Blocks {
		if b.Kind == ir.CondBr {
			for _, d := range defs[b.Cond] {
				if !seen[d] {
					seen[d] = true
					work = append(work, d)
				}
			}
		}
	}
	for len(work) > 0 {
		o := work[len(work)-1]
		work = work[:len(work)-1]
		slice = append(slice, o)
		if o.Code.IsMemory() {
			continue
		}
		for _, u := range o.Uses() {
			for _, d := range defs[u] {
				if !seen[d] {
					seen[d] = true
					work = append(work, d)
				}
			}
		}
	}
	// Greatest fixed point: an op is replicable when it is register-only
	// and every def of every operand is replicable.
	ok := map[*ir.Op]bool{}
	for _, o := range slice {
		ok[o] = !o.Code.IsMemory()
	}
	for changed := true; changed; {
		changed = false
		for _, o := range slice {
			if !ok[o] {
				continue
			}
			for _, u := range o.Uses() {
				for _, d := range defs[u] {
					if !ok[d] {
						ok[o] = false
						changed = true
					}
				}
			}
		}
	}
	var out []*ir.Op
	for _, o := range slice {
		if ok[o] {
			out = append(out, o)
		}
	}
	if len(out) > maxSize {
		return nil
	}
	return out
}

// checkAssignment validates that every op has at least one core and memory
// ops are not replicated.
func checkAssignment(r *ir.Region, a Assignment) error {
	for _, o := range r.AllOps() {
		cs := a[o]
		if len(cs) == 0 {
			return fmt.Errorf("op %v unassigned", o)
		}
		if len(cs) > 1 && (o.Code.IsMemory() || o.Code.IsComm()) {
			return fmt.Errorf("op %v replicated to %v but has side effects", o, cs)
		}
	}
	return nil
}
