// Package compiler lowers IR programs to per-core Voltron machine code. It
// implements the paper's four parallelization strategies — BUG multicluster
// partitioning for coupled-mode ILP, eBUG strand extraction and DSWP
// pipeline extraction for decoupled-mode fine-grain TLP, and statistical
// DOALL chunking with transactional speculation for LLP — plus the
// region-by-region strategy selection that drives hybrid execution.
package compiler

import (
	"fmt"

	"voltron/internal/ir"
)

// Assignment places the ops of one region on the cores that execute them.
// An op's first site is its primary core (it owns the op's side effects
// and outgoing messages); further sites are replicas (only register-only
// ops are replicated — the control slice). Unassigned ops run on the master
// core 0.
//
// The primary cores form a dense table indexed by Op.ID; replicas, which
// only the control slice and rematerialized values have, live in a sparse
// table beside it.
type Assignment struct {
	// primary[id] is the owning core of the op with that ID, or -1 when
	// the op is unassigned. IDs beyond the table are unassigned too, so
	// ops created after the table was sized behave as unassigned until set.
	primary []int32
	// replicas maps an op ID to its replica cores in the order they were
	// added; the primary is never listed.
	replicas map[int][]int
}

// newAssignment returns an assignment for r's ops with every op unassigned.
func newAssignment(r *ir.Region) *Assignment {
	a := &Assignment{primary: make([]int32, r.NumOpIDs())}
	for i := range a.primary {
		a.primary[i] = -1
	}
	return a
}

// assigned reports whether o has been placed on a core.
func (a *Assignment) assigned(o *ir.Op) bool {
	return o.ID < len(a.primary) && a.primary[o.ID] >= 0
}

// Primary returns the op's owning core.
func (a *Assignment) Primary(o *ir.Op) int {
	return a.primaryOf(o.ID)
}

// primaryOf returns the owning core of the op with the given ID.
func (a *Assignment) primaryOf(id int) int {
	if id < len(a.primary) && a.primary[id] >= 0 {
		return int(a.primary[id])
	}
	return 0
}

// Set places o on core c alone, dropping any replicas.
func (a *Assignment) Set(o *ir.Op, c int) {
	for o.ID >= len(a.primary) {
		a.primary = append(a.primary, -1)
	}
	a.primary[o.ID] = int32(c)
	if a.replicas != nil {
		delete(a.replicas, o.ID)
	}
}

// On reports whether core c executes o (as owner or replica).
func (a *Assignment) On(o *ir.Op, c int) bool {
	if !a.assigned(o) {
		return c == 0
	}
	if int(a.primary[o.ID]) == c {
		return true
	}
	for _, x := range a.replicas[o.ID] {
		if x == c {
			return true
		}
	}
	return false
}

// Replicate adds core c as a replica site of o.
func (a *Assignment) Replicate(o *ir.Op, c int) {
	if a.On(o, c) {
		return
	}
	if !a.assigned(o) {
		a.Set(o, 0)
	}
	if a.replicas == nil {
		a.replicas = map[int][]int{}
	}
	a.replicas[o.ID] = append(a.replicas[o.ID], c)
}

// AppendSites appends o's sites — the primary core, then the replicas in
// the order they were added — to dst. An unassigned op has no sites.
func (a *Assignment) AppendSites(dst []int, o *ir.Op) []int {
	if !a.assigned(o) {
		return dst
	}
	dst = append(dst, int(a.primary[o.ID]))
	return append(dst, a.replicas[o.ID]...)
}

// copySites gives dst the same primary and replicas as src; an unassigned
// src counts as primary core 0.
func (a *Assignment) copySites(dst, src *ir.Op) {
	a.Set(dst, a.Primary(src))
	if reps := a.replicas[src.ID]; len(reps) > 0 {
		a.replicas[dst.ID] = append([]int(nil), reps...)
	}
}

// dropReplicas collapses every op to its primary core.
func (a *Assignment) dropReplicas() {
	a.replicas = nil
}

// Cores returns the sorted set of cores that own at least one op, always
// including the master core 0.
func (a *Assignment) Cores() []int {
	used := []bool{true}
	mark := func(c int) {
		for c >= len(used) {
			used = append(used, false)
		}
		used[c] = true
	}
	for _, c := range a.primary {
		if c >= 0 {
			mark(int(c))
		}
	}
	for _, reps := range a.replicas {
		for _, c := range reps {
			mark(c)
		}
	}
	var out []int
	for c, ok := range used {
		if ok {
			out = append(out, c)
		}
	}
	return out
}

// uniform makes an assignment placing every op of the region on one core.
func uniform(r *ir.Region, core int) *Assignment {
	a := newAssignment(r)
	for _, b := range r.Blocks {
		for _, o := range b.Ops {
			a.Set(o, core)
		}
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
func sanitize(r *ir.Region, a *Assignment) *Assignment {
	ops := r.AllOps()
	// Rule 1: every later def of a value copies its first def's sites.
	firstDef := make([]*ir.Op, r.NumValues())
	for _, o := range ops {
		if o.Dst == ir.NoValue {
			continue
		}
		if d := firstDef[o.Dst]; d != nil {
			a.copySites(o, d)
		} else {
			firstDef[o.Dst] = o
		}
	}
	// Rule 2 only moves memory ops that are not all on one core already,
	// so it skips the loop analysis when they are — as in every
	// single-core lowering.
	if memOpsColocated(ops, a) {
		return a
	}
	// Rule 2: union-find over carried memory dependences, by op ID. A
	// parent of -1 marks an op no dependence joined to another.
	parent := make([]int32, r.NumOpIDs())
	for i := range parent {
		parent[i] = -1
	}
	find := func(id int32) int32 {
		root := id
		for parent[root] >= 0 && parent[root] != root {
			root = parent[root]
		}
		parent[root] = root
		for id != root {
			next := parent[id]
			parent[id] = root
			id = next
		}
		return root
	}
	for _, l := range r.Loops() {
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
					parent[find(int32(x.ID))] = find(int32(y.ID))
				}
			}
		}
	}
	// Pin every joined group to the primary core of its first member in
	// program order. Memory ops are never replicated. home[root] holds the
	// group's core plus one; zero means not yet seen.
	home := make([]int32, len(parent))
	for _, o := range ops {
		if !o.Code.IsMemory() || parent[o.ID] < 0 {
			continue
		}
		root := find(int32(o.ID))
		if home[root] == 0 {
			home[root] = int32(a.Primary(o)) + 1
		}
		a.Set(o, int(home[root])-1)
	}
	return a
}

// memOpsColocated reports whether every memory op is assigned to the same
// primary core with no replicas.
func memOpsColocated(ops []*ir.Op, a *Assignment) bool {
	home := -1
	for _, o := range ops {
		if !o.Code.IsMemory() {
			continue
		}
		if !a.assigned(o) || len(a.replicas[o.ID]) > 0 {
			return false
		}
		if c := a.Primary(o); home < 0 {
			home = c
		} else if c != home {
			return false
		}
	}
	return true
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
func checkAssignment(r *ir.Region, a *Assignment) error {
	for _, b := range r.Blocks {
		for _, o := range b.Ops {
			if !a.assigned(o) {
				return fmt.Errorf("op %v unassigned", o)
			}
			if len(a.replicas[o.ID]) > 0 && (o.Code.IsMemory() || o.Code.IsComm()) {
				return fmt.Errorf("op %v replicated to %v but has side effects", o, a.AppendSites(nil, o))
			}
		}
	}
	return nil
}
