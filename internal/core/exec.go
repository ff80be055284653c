// Package core implements the Voltron machine: single-issue VLIW cores on a
// mesh, executing compiled per-core instruction streams in coupled
// (lock-step, direct-mode network, stall bus) or decoupled (fine-grain
// threads, queue-mode network, SPAWN/SLEEP) mode, over the coherent memory
// hierarchy of package mem, with full cycle accounting (package stats).
package core

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"voltron/internal/ir"
	"voltron/internal/isa"
	"voltron/internal/mem"
	"voltron/internal/stats"
)

// Mode is a region's execution mode.
type Mode int

// Execution modes. DOALL is decoupled execution with transactional chunk
// framing and a serial fallback on violation.
const (
	Coupled Mode = iota
	Decoupled
	DOALL
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case Coupled:
		return "coupled"
	case Decoupled:
		return "decoupled"
	case DOALL:
		return "doall"
	}
	return "mode?"
}

// StatsMode maps the execution mode to the two-way occupancy accounting of
// the paper's Figure 14 (DOALL runs decoupled).
func (m Mode) StatsMode() stats.Mode {
	if m == Coupled {
		return stats.ModeCoupled
	}
	return stats.ModeDecoupled
}

// CompiledRegion is the per-core machine code for one region.
type CompiledRegion struct {
	Name string
	Mode Mode
	// Code is each core's instruction stream.
	Code [][]isa.Inst
	// Labels maps logical block ids to instruction indices, per core. PBR
	// and SPAWN name logical blocks; cores resolve them in their own
	// stream ("same logical target, different physical block").
	Labels []map[int64]int
	// Entry is the start index per core (conventionally 0).
	Entry []int
	// StartAwake marks cores that begin executing at Entry. In coupled
	// mode all cores must start awake; in decoupled mode typically only
	// the master (core 0) does, and it SPAWNs the others.
	StartAwake []bool
	// TxCores is the number of cores that execute a transaction in a DOALL
	// region (the commit barrier width). Zero for non-DOALL regions.
	TxCores int
	// Fallback is the serial single-core code re-executed from rolled-back
	// memory state when a DOALL region detects a dependence violation.
	Fallback []isa.Inst
	// FallbackLabels resolves logical blocks in the fallback stream.
	FallbackLabels map[int64]int

	// Per-stream tables derived from the code the first time the region
	// runs: branch targets resolve by indexing instead of a map lookup on
	// the simulator's hot path, and each core's register files are sized
	// once instead of growing one register at a time. Guarded by a Once so
	// concurrent Machines may share one region.
	resolveOnce sync.Once
	labels      []labelTable
	fbLabels    labelTable
	regs        []regCounts
	fbRegs      regCounts
}

// maxDenseLabel bounds a stream's dense label table; ids outside
// [0, maxDenseLabel) — the per-core thread entry labels of decoupled and
// DOALL streams sit at 1<<20 + core — go to the stream's overflow list.
const maxDenseLabel = 1 << 16

// labelTable resolves one stream's logical block ids to instruction indices.
type labelTable struct {
	dense    []int32 // indexed by id; -1 = no such block
	overflow []labelEntry
}

// labelEntry is one out-of-range label of a stream.
type labelEntry struct {
	id  int64
	idx int
}

// newLabelTable flattens one label map: ids below maxDenseLabel index a
// dense table, the rest (typically one thread entry label) form a short
// overflow list.
func newLabelTable(m map[int64]int) labelTable {
	var lt labelTable
	maxID := int64(-1)
	for id, idx := range m {
		if id < 0 || id >= maxDenseLabel {
			lt.overflow = append(lt.overflow, labelEntry{id, idx})
		} else if id > maxID {
			maxID = id
		}
	}
	lt.dense = make([]int32, maxID+1)
	for i := range lt.dense {
		lt.dense[i] = -1
	}
	for id, idx := range m {
		if id >= 0 && id < maxDenseLabel {
			lt.dense[id] = int32(idx)
		}
	}
	// Map order is random; sorted, equal regions build equal tables.
	slices.SortFunc(lt.overflow, func(a, b labelEntry) int { return cmp.Compare(a.id, b.id) })
	return lt
}

// lookup resolves a logical block id, checking the overflow list only for
// ids the dense table cannot hold.
func (lt *labelTable) lookup(id int64) (int, bool) {
	if id >= 0 && id < maxDenseLabel {
		if id >= int64(len(lt.dense)) || lt.dense[id] < 0 {
			return 0, false
		}
		return int(lt.dense[id]), true
	}
	for _, e := range lt.overflow {
		if e.id == id {
			return e.idx, true
		}
	}
	return 0, false
}

// regCounts is the number of registers a stream names per class (the
// highest index plus one), indexed like coreState's register files.
type regCounts [4]int

// countRegs scans a stream for the registers its instructions name.
func countRegs(code []isa.Inst) regCounts {
	var n regCounts
	for i := range code {
		for _, r := range [...]isa.Reg{code[i].Dst, code[i].Src1, code[i].Src2} {
			if r.Valid() {
				ci := classIdx(r.Class)
				n[ci] = max(n[ci], r.Index+1)
			}
		}
	}
	return n
}

// resolve builds the per-stream label tables and register counts once per
// region.
func (cr *CompiledRegion) resolve() {
	cr.resolveOnce.Do(func() {
		cr.labels = make([]labelTable, len(cr.Labels))
		for c, m := range cr.Labels {
			cr.labels[c] = newLabelTable(m)
		}
		cr.fbLabels = newLabelTable(cr.FallbackLabels)
		cr.regs = make([]regCounts, len(cr.Code))
		for c, code := range cr.Code {
			cr.regs[c] = countRegs(code)
		}
		cr.fbRegs = countRegs(cr.Fallback)
	})
}

// lookupLabel resolves a logical block id in core c's stream.
func (cr *CompiledRegion) lookupLabel(c int, id int64) (int, bool) {
	return cr.labels[c].lookup(id)
}

// lookupFallbackLabel resolves a logical block id in the fallback stream.
func (cr *CompiledRegion) lookupFallbackLabel(id int64) (int, bool) {
	return cr.fbLabels.lookup(id)
}

// Validate checks structural consistency of the compiled region against a
// machine width.
func (cr *CompiledRegion) Validate(cores int) error {
	if len(cr.Code) != cores || len(cr.Labels) != cores ||
		len(cr.Entry) != cores || len(cr.StartAwake) != cores {
		return fmt.Errorf("region %q: per-core tables sized %d/%d/%d/%d, want %d",
			cr.Name, len(cr.Code), len(cr.Labels), len(cr.Entry), len(cr.StartAwake), cores)
	}
	for c := 0; c < cores; c++ {
		if len(cr.Code[c]) == 0 && cr.StartAwake[c] {
			return fmt.Errorf("region %q: core %d awake with empty code", cr.Name, c)
		}
		if cr.StartAwake[c] && (cr.Entry[c] < 0 || cr.Entry[c] >= len(cr.Code[c])) {
			return fmt.Errorf("region %q: core %d entry %d out of range", cr.Name, c, cr.Entry[c])
		}
		for i, in := range cr.Code[c] {
			if in.Op == isa.PBR || in.Op == isa.SPAWN {
				target := c
				if in.Op == isa.SPAWN {
					target = in.Core
				}
				if target < 0 || target >= cores {
					return fmt.Errorf("region %q core %d inst %d: bad target core %d", cr.Name, c, i, target)
				}
				if _, ok := cr.Labels[target][in.Imm]; !ok {
					return fmt.Errorf("region %q core %d inst %d (%v): unresolved label B%d on core %d",
						cr.Name, c, i, in, in.Imm, target)
				}
			}
		}
	}
	if cr.Mode == Coupled {
		for c := 0; c < cores; c++ {
			if !cr.StartAwake[c] {
				return fmt.Errorf("region %q: coupled mode requires all cores awake", cr.Name)
			}
		}
	}
	if cr.Mode == DOALL && cr.TxCores > 0 && len(cr.Fallback) == 0 {
		return fmt.Errorf("region %q: DOALL region without serial fallback", cr.Name)
	}
	return nil
}

// CompiledProgram is a fully lowered workload: one compiled region per IR
// region, plus the source program for memory-image construction.
type CompiledProgram struct {
	Name    string
	Cores   int
	Regions []*CompiledRegion
	// Src provides the data layout and initial memory image.
	Src *ir.Program
	// Selection records how per-region strategy selection decided each
	// lowering. Execution never reads it; the serving layer exposes it
	// (selection metrics, the X-Voltron-Select header) and the
	// selection-agreement experiments consume it.
	Selection SelectionSummary
}

// SelectionSummary describes one compile's per-region selection outcomes.
type SelectionSummary struct {
	// Mode is "measured", "static" or "escalated" ("" when compilation ran
	// no per-region selection, e.g. serial or single-core compiles).
	Mode string
	// Static counts regions the classifier decided without simulation,
	// Escalated those it sent to measured selection on low confidence,
	// Measured those decided by simulation under measured mode.
	Static, Escalated, Measured int
	// Regions parallels CompiledProgram.Regions.
	Regions []RegionSelection
}

// RegionSelection is one region's selection outcome.
type RegionSelection struct {
	// Tier is the classifier tier ("small", "doall", "easy", "hard",
	// "measured", "rechecked" — compiler.Tier names).
	Tier string
	// Choice names the selected technique (compiler.Choice names).
	Choice string
	// Confidence is the classifier's relative-margin score in [0, 1]
	// (1 for outcomes that are safe by construction).
	Confidence float64
}

// Validate checks all regions.
func (cp *CompiledProgram) Validate() error {
	for _, r := range cp.Regions {
		if err := r.Validate(cp.Cores); err != nil {
			return err
		}
	}
	return nil
}

// NewMemory builds the initial memory image for a run.
func (cp *CompiledProgram) NewMemory() *mem.Flat { return mem.NewFlatFor(cp.Src) }
