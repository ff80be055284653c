// Package ir defines the compiler intermediate representation that Voltron
// workloads are authored in and that every compiler pass operates on: a
// program is a data layout (arrays in a flat word-addressed memory) plus a
// sequence of regions, each region a control-flow graph of basic blocks over
// typed virtual registers.
//
// The IR deliberately mirrors the HPL-PD operation set (package isa) so that
// lowering to per-core VLIW code is a partitioning/scheduling problem, not a
// translation problem — exactly the part of the toolchain the paper's
// contribution lives in.
package ir

import (
	"fmt"
	"sync"

	"voltron/internal/isa"
)

// Value names a virtual register within a region. The zero Value is "no
// value". Values are typed by register class (GPR/FPR/PR), recorded in the
// owning region. Values are not SSA: a value may be assigned by several
// operations (e.g. a loop induction variable).
type Value int

// NoValue is the absent operand.
const NoValue Value = 0

// UnknownObj marks a memory operation whose target object static analysis
// cannot identify (a pointer access); it may alias with every object.
const UnknownObj = -1

// Op is one IR operation. Operand conventions follow isa.Inst: memory ops
// address [Args[0] + Imm]; stores pass the stored value in Args[1]; compares
// write a PR-class value.
type Op struct {
	ID   int
	Code isa.Opcode
	Dst  Value
	Args [2]Value
	Imm  int64
	F    float64
	// Obj identifies the memory object (array) a LOAD/STORE accesses when
	// the compiler's pointer analysis can resolve it, or UnknownObj.
	Obj int
	// Blk is the basic block containing the op.
	Blk *Block
}

// Uses returns the values the op reads, in operand order. It allocates
// nothing: the result aliases o.Args and must not be modified.
func (o *Op) Uses() []Value {
	switch {
	case o.Args[0] != NoValue && o.Args[1] != NoValue:
		return o.Args[:]
	case o.Args[0] != NoValue:
		return o.Args[:1]
	case o.Args[1] != NoValue:
		return o.Args[1:]
	}
	return nil
}

// String renders the op for dumps and error messages.
func (o *Op) String() string {
	s := fmt.Sprintf("#%d %s", o.ID, o.Code)
	if o.Dst != NoValue {
		s += fmt.Sprintf(" v%d =", o.Dst)
	}
	for _, a := range o.Args {
		if a != NoValue {
			s += fmt.Sprintf(" v%d", a)
		}
	}
	if o.Code == isa.MOVI || o.Code.IsMemory() {
		s += fmt.Sprintf(" imm=%d", o.Imm)
	}
	return s
}

// TermKind classifies a block terminator.
type TermKind uint8

// Terminator kinds.
const (
	// Jump transfers unconditionally to Succ[0].
	Jump TermKind = iota
	// CondBr transfers to Succ[0] if Cond is true, else to Succ[1].
	CondBr
	// Exit leaves the region.
	Exit
)

// Block is a basic block: straight-line ops plus one terminator.
type Block struct {
	ID     int
	Ops    []*Op
	Kind   TermKind
	Cond   Value // PR value tested by CondBr
	Succ   [2]*Block
	Preds  []*Block
	Region *Region
}

// Succs returns the successor blocks. Nil successors (malformed IR caught
// by Verify) are skipped so analyses do not crash before verification runs.
func (b *Block) Succs() []*Block {
	var ss []*Block
	switch b.Kind {
	case Jump:
		ss = []*Block{b.Succ[0]}
	case CondBr:
		ss = []*Block{b.Succ[0], b.Succ[1]}
	}
	out := ss[:0]
	for _, s := range ss {
		if s != nil {
			out = append(out, s)
		}
	}
	return out
}

// String identifies the block.
func (b *Block) String() string { return fmt.Sprintf("B%d", b.ID) }

// valInfo records per-value metadata.
type valInfo struct {
	class isa.RegClass
}

// Region is one schedulable unit: a CFG executed from Entry until a block
// with an Exit terminator. Regions of a program run sequentially; in
// decoupled execution, region boundaries are the synchronization points the
// paper attributes to call/return sync.
type Region struct {
	ID      int
	Name    string
	Entry   *Block
	Blocks  []*Block
	Program *Program

	vals   []valInfo // index 1..; vals[0] unused
	nextOp int
}

// NewValue allocates a fresh virtual register of the given class.
func (r *Region) NewValue(c isa.RegClass) Value {
	if len(r.vals) == 0 {
		r.vals = append(r.vals, valInfo{})
	}
	r.vals = append(r.vals, valInfo{class: c})
	return Value(len(r.vals) - 1)
}

// ValueClass returns the register class of v.
func (r *Region) ValueClass(v Value) isa.RegClass {
	if v <= 0 || int(v) >= len(r.vals) {
		return isa.RegNone
	}
	return r.vals[v].class
}

// NumValues returns the number of allocated values plus one (values are
// numbered 1..NumValues-1).
func (r *Region) NumValues() int {
	if len(r.vals) == 0 {
		return 1
	}
	return len(r.vals)
}

// NumOpIDs returns one past the largest op ID the region has handed out:
// every op of the region has an ID in [0, NumOpIDs), so tables indexed by
// Op.ID can be sized from it.
func (r *Region) NumOpIDs() int {
	return r.nextOp
}

// NewBlock appends an empty block to the region. The first block created
// becomes the entry.
func (r *Region) NewBlock() *Block {
	b := &Block{ID: len(r.Blocks), Kind: Exit, Region: r}
	r.Blocks = append(r.Blocks, b)
	if r.Entry == nil {
		r.Entry = b
	}
	return b
}

// AllOps returns every op in the region in block order.
func (r *Region) AllOps() []*Op {
	var ops []*Op
	for _, b := range r.Blocks {
		ops = append(ops, b.Ops...)
	}
	return ops
}

// recomputePreds rebuilds predecessor lists from successor edges.
func (r *Region) recomputePreds() {
	for _, b := range r.Blocks {
		b.Preds = nil
	}
	for _, b := range r.Blocks {
		for _, s := range b.Succs() {
			s.Preds = append(s.Preds, b)
		}
	}
}

// Seal finalizes the region's CFG after construction: predecessor lists are
// rebuilt. Analyses (dominators, loops) compute lazily afterwards.
func (r *Region) Seal() { r.recomputePreds() }

// Array describes one statically allocated memory object.
type Array struct {
	Name  string
	ID    int
	Base  int64 // byte address, 8-aligned
	Words int64 // size in 8-byte words
	// Float marks arrays whose words are float64 bit patterns (for
	// initialization and dump purposes only; memory itself is untyped).
	Float bool
}

// End returns the first byte address past the array.
func (a *Array) End() int64 { return a.Base + a.Words*8 }

// Program is a complete workload: data layout plus regions.
type Program struct {
	Name    string
	Arrays  []*Array
	Regions []*Region

	nextBase int64
	// Init holds initial word values keyed by byte address.
	Init map[int64]uint64

	// prepOnce serializes the compiler's one-shot in-place preparation
	// (see PrepareOnce).
	prepOnce sync.Once
}

// PrepareOnce runs f exactly once over the program's lifetime, blocking
// concurrent callers until the first call returns. The compiler uses it to
// guard its in-place cleanup passes so that concurrent compiles of a shared
// program (the experiment suite hands one cached IR instance to every
// strategy) never mutate the IR while another goroutine reads it.
func (p *Program) PrepareOnce(f func()) { p.prepOnce.Do(f) }

// NewProgram creates an empty program. The data segment starts at address
// 4096 (address 0 is kept unmapped to catch null-pointer style bugs in
// workload construction).
func NewProgram(name string) *Program {
	return &Program{Name: name, nextBase: 4096, Init: map[int64]uint64{}}
}

// Array allocates a new array of the given number of 8-byte words.
func (p *Program) Array(name string, words int64) *Array {
	a := &Array{Name: name, ID: len(p.Arrays), Base: p.nextBase, Words: words}
	p.Arrays = append(p.Arrays, a)
	p.nextBase += words * 8
	// Pad to a cache line so arrays do not falsely share lines; false
	// sharing behaviour is exercised explicitly where tests want it.
	if rem := p.nextBase % 64; rem != 0 {
		p.nextBase += 64 - rem
	}
	return a
}

// FloatArray allocates an array flagged as holding float64 values.
func (p *Program) FloatArray(name string, words int64) *Array {
	a := p.Array(name, words)
	a.Float = true
	return a
}

// SetInit records an initial integer value for a word of an array.
func (p *Program) SetInit(a *Array, idx int64, v int64) {
	p.Init[a.Base+idx*8] = uint64(v)
}

// SetInitF records an initial float value for a word of an array.
func (p *Program) SetInitF(a *Array, idx int64, v float64) {
	p.Init[a.Base+idx*8] = f2u(v)
}

// MemWords returns the size of the program's memory image in words.
func (p *Program) MemWords() int64 {
	end := p.nextBase
	if end < 8192 {
		end = 8192
	}
	return (end + 7) / 8
}

// Region appends a new region.
func (p *Program) Region(name string) *Region {
	r := &Region{ID: len(p.Regions), Name: name, Program: p}
	p.Regions = append(p.Regions, r)
	return r
}

// NewOp allocates an op with a region-unique id. It does not insert it into
// a block; use the Block emit helpers for that.
func (r *Region) NewOp(code isa.Opcode) *Op {
	o := &Op{ID: r.nextOp, Code: code, Obj: UnknownObj}
	r.nextOp++
	return o
}

// ObjectAt returns the array containing the byte address, or nil.
func (p *Program) ObjectAt(addr int64) *Array {
	for _, a := range p.Arrays {
		if addr >= a.Base && addr < a.End() {
			return a
		}
	}
	return nil
}
