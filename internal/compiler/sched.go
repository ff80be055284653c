package compiler

import "voltron/internal/isa"

// dagNode is one schedulable machine instruction with its dependence edges;
// the unit the per-core list scheduler operates on.
type dagNode struct {
	inst  isa.Inst
	preds []dagDep
	succs []int
	// height is the longest latency path to any sink (list priority).
	height int
	// cycle is the assigned issue cycle (-1 until scheduled).
	cycle int
}

// dagDep is an incoming edge: the instruction may issue no earlier than
// node's issue cycle + lat.
type dagDep struct {
	node int
	lat  int
}

// dag accumulates nodes for one core within one block.
type dag struct {
	nodes []*dagNode
}

// add appends an instruction with dependences and returns its node index.
func (d *dag) add(in isa.Inst, preds ...dagDep) int {
	n := &dagNode{inst: in, preds: preds, cycle: -1}
	idx := len(d.nodes)
	d.nodes = append(d.nodes, n)
	for _, p := range preds {
		d.nodes[p.node].succs = append(d.nodes[p.node].succs, idx)
	}
	return idx
}

// addEdge inserts an extra dependence after construction.
func (d *dag) addEdge(from, to, lat int) {
	d.nodes[to].preds = append(d.nodes[to].preds, dagDep{node: from, lat: lat})
	d.nodes[from].succs = append(d.nodes[from].succs, to)
}

// computeHeights fills priority heights (longest path to a sink).
func (d *dag) computeHeights() {
	// Process in reverse topological order; nodes were added respecting
	// dependences for ops, but addEdge can create arbitrary shapes, so do a
	// fixed-point (graphs are tiny: one block on one core).
	for changed := true; changed; {
		changed = false
		for i := len(d.nodes) - 1; i >= 0; i-- {
			n := d.nodes[i]
			h := 0
			for _, s := range n.succs {
				lat := 1
				for _, p := range d.nodes[s].preds {
					if p.node == i {
						lat = p.lat
					}
				}
				if v := d.nodes[s].height + lat; v > h {
					h = v
				}
			}
			if h > n.height {
				n.height = h
				changed = true
			}
		}
	}
}

// schedule performs list scheduling onto a single-issue core and returns
// the instruction sequence with NOP fill; slot k issues k cycles after
// block entry. The result always contains at least the scheduled nodes.
//
// The tail is padded so every multi-cycle result is ready by the time the
// sequence ends: successor blocks assume their live-in registers are usable
// at entry, so a block must not expose an in-flight value at its exit.
func (d *dag) schedule() []isa.Inst {
	if len(d.nodes) == 0 {
		return nil
	}
	d.computeHeights()
	remaining := len(d.nodes)
	var out []isa.Inst
	for cycle := 0; remaining > 0; cycle++ {
		// Candidates: unscheduled nodes whose preds are all done and whose
		// latency constraints are satisfied at this cycle.
		best := -1
		for i, n := range d.nodes {
			if n.cycle >= 0 {
				continue
			}
			ok := true
			for _, p := range n.preds {
				pn := d.nodes[p.node]
				if pn.cycle < 0 || pn.cycle+p.lat > cycle {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			if best < 0 || n.height > d.nodes[best].height ||
				(n.height == d.nodes[best].height && i < best) {
				best = i
			}
		}
		if best < 0 {
			out = append(out, isa.Nop())
			continue
		}
		d.nodes[best].cycle = cycle
		out = append(out, d.nodes[best].inst)
		remaining--
	}
	for _, n := range d.nodes {
		if n.inst.Dst.Valid() {
			for len(out) < n.cycle+n.inst.Op.Latency() {
				out = append(out, isa.Nop())
			}
		}
	}
	return out
}
