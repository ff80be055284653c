package ir

import (
	"math"

	"voltron/internal/isa"
)

func f2u(f float64) uint64 { return math.Float64bits(f) }

// U2F converts a memory word to float64 (exported for interpreters/dumps).
func U2F(u uint64) float64 { return math.Float64frombits(u) }

// emit appends a finished op to the block.
func (b *Block) emit(o *Op) *Op {
	o.Blk = b
	b.Ops = append(b.Ops, o)
	return o
}

func (b *Block) binop(code isa.Opcode, class isa.RegClass, x, y Value) Value {
	o := b.Region.NewOp(code)
	o.Args[0], o.Args[1] = x, y
	o.Dst = b.Region.NewValue(class)
	b.emit(o)
	return o.Dst
}

func (b *Block) binopImm(code isa.Opcode, class isa.RegClass, x Value, imm int64) Value {
	o := b.Region.NewOp(code)
	o.Args[0] = x
	o.Imm = imm
	o.Dst = b.Region.NewValue(class)
	b.emit(o)
	return o.Dst
}

// BinOp emits dst = code(x, y) into a fresh value of the given class; the
// generic form for frontends that pick opcodes from a table.
func (b *Block) BinOp(code isa.Opcode, class isa.RegClass, x, y Value) Value {
	return b.binop(code, class, x, y)
}

// BinOpImm emits dst = code(x, #imm) into a fresh value of the given class.
func (b *Block) BinOpImm(code isa.Opcode, class isa.RegClass, x Value, imm int64) Value {
	return b.binopImm(code, class, x, imm)
}

// MovI materializes an integer constant.
func (b *Block) MovI(c int64) Value {
	o := b.Region.NewOp(isa.MOVI)
	o.Imm = c
	o.Dst = b.Region.NewValue(isa.RegGPR)
	b.emit(o)
	return o.Dst
}

// MovF materializes a float constant.
func (b *Block) MovF(c float64) Value {
	o := b.Region.NewOp(isa.FMOVI)
	o.F = c
	o.Dst = b.Region.NewValue(isa.RegFPR)
	b.emit(o)
	return o.Dst
}

// Integer arithmetic over two values.
func (b *Block) Add(x, y Value) Value { return b.binop(isa.ADD, isa.RegGPR, x, y) }
func (b *Block) Sub(x, y Value) Value { return b.binop(isa.SUB, isa.RegGPR, x, y) }
func (b *Block) Mul(x, y Value) Value { return b.binop(isa.MUL, isa.RegGPR, x, y) }
func (b *Block) Div(x, y Value) Value { return b.binop(isa.DIV, isa.RegGPR, x, y) }
func (b *Block) Rem(x, y Value) Value { return b.binop(isa.REM, isa.RegGPR, x, y) }
func (b *Block) And(x, y Value) Value { return b.binop(isa.AND, isa.RegGPR, x, y) }
func (b *Block) Or(x, y Value) Value  { return b.binop(isa.OR, isa.RegGPR, x, y) }
func (b *Block) Xor(x, y Value) Value { return b.binop(isa.XOR, isa.RegGPR, x, y) }
func (b *Block) Shl(x, y Value) Value { return b.binop(isa.SHL, isa.RegGPR, x, y) }
func (b *Block) Shr(x, y Value) Value { return b.binop(isa.SHR, isa.RegGPR, x, y) }

// Immediate forms (second operand is a constant).
func (b *Block) AddI(x Value, c int64) Value { return b.binopImm(isa.ADD, isa.RegGPR, x, c) }
func (b *Block) SubI(x Value, c int64) Value { return b.binopImm(isa.SUB, isa.RegGPR, x, c) }
func (b *Block) MulI(x Value, c int64) Value { return b.binopImm(isa.MUL, isa.RegGPR, x, c) }
func (b *Block) ShlI(x Value, c int64) Value { return b.binopImm(isa.SHL, isa.RegGPR, x, c) }
func (b *Block) AndI(x Value, c int64) Value { return b.binopImm(isa.AND, isa.RegGPR, x, c) }
func (b *Block) ShrI(x Value, c int64) Value { return b.binopImm(isa.SHR, isa.RegGPR, x, c) }
func (b *Block) OrI(x Value, c int64) Value  { return b.binopImm(isa.OR, isa.RegGPR, x, c) }
func (b *Block) XorI(x Value, c int64) Value { return b.binopImm(isa.XOR, isa.RegGPR, x, c) }

// AddTo re-assigns dst = dst + c; used for induction variables. It emits an
// ADD whose destination is the existing value dst rather than a fresh one.
func (b *Block) AddTo(dst Value, c int64) {
	o := b.Region.NewOp(isa.ADD)
	o.Args[0] = dst
	o.Imm = c
	o.Dst = dst
	b.emit(o)
}

// Accum re-assigns acc = acc OP x (for reductions).
func (b *Block) Accum(code isa.Opcode, acc, x Value) {
	o := b.Region.NewOp(code)
	o.Args[0], o.Args[1] = acc, x
	o.Dst = acc
	b.emit(o)
}

// Floating point arithmetic.
func (b *Block) FAdd(x, y Value) Value { return b.binop(isa.FADD, isa.RegFPR, x, y) }
func (b *Block) FSub(x, y Value) Value { return b.binop(isa.FSUB, isa.RegFPR, x, y) }
func (b *Block) FMul(x, y Value) Value { return b.binop(isa.FMUL, isa.RegFPR, x, y) }
func (b *Block) FDiv(x, y Value) Value { return b.binop(isa.FDIV, isa.RegFPR, x, y) }

// IToF converts an integer value to float.
func (b *Block) IToF(x Value) Value { return b.binopImm(isa.ITOF, isa.RegFPR, x, 0) }

// FToI converts a float value to integer (truncating).
func (b *Block) FToI(x Value) Value { return b.binopImm(isa.FTOI, isa.RegGPR, x, 0) }

// Comparisons produce predicate values.
func (b *Block) CmpEQ(x, y Value) Value  { return b.binop(isa.CMPEQ, isa.RegPR, x, y) }
func (b *Block) CmpNE(x, y Value) Value  { return b.binop(isa.CMPNE, isa.RegPR, x, y) }
func (b *Block) CmpLT(x, y Value) Value  { return b.binop(isa.CMPLT, isa.RegPR, x, y) }
func (b *Block) CmpLE(x, y Value) Value  { return b.binop(isa.CMPLE, isa.RegPR, x, y) }
func (b *Block) CmpGT(x, y Value) Value  { return b.binop(isa.CMPGT, isa.RegPR, x, y) }
func (b *Block) CmpGE(x, y Value) Value  { return b.binop(isa.CMPGE, isa.RegPR, x, y) }
func (b *Block) FCmpLT(x, y Value) Value { return b.binop(isa.FCMPLT, isa.RegPR, x, y) }

// CmpLTI compares against an integer constant.
func (b *Block) CmpLTI(x Value, c int64) Value { return b.binopImm(isa.CMPLT, isa.RegPR, x, c) }

// CmpI compares against an integer constant with any compare opcode.
func (b *Block) CmpI(code isa.Opcode, x Value, c int64) Value {
	return b.binopImm(code, isa.RegPR, x, c)
}

// DivI and RemI divide by an integer constant (the machine's division by
// zero yields zero, so a zero constant is legal).
func (b *Block) DivI(x Value, c int64) Value { return b.binopImm(isa.DIV, isa.RegGPR, x, c) }
func (b *Block) RemI(x Value, c int64) Value { return b.binopImm(isa.REM, isa.RegGPR, x, c) }

// Predicate logic.
func (b *Block) PAnd(x, y Value) Value { return b.binop(isa.PAND, isa.RegPR, x, y) }
func (b *Block) POr(x, y Value) Value  { return b.binop(isa.POR, isa.RegPR, x, y) }
func (b *Block) PNot(x Value) Value    { return b.binopImm(isa.PNOT, isa.RegPR, x, 0) }

// Load reads the word at [base+off] from a known array.
func (b *Block) Load(arr *Array, base Value, off int64) Value {
	o := b.Region.NewOp(isa.LOAD)
	o.Args[0] = base
	o.Imm = off
	o.Dst = b.Region.NewValue(isa.RegGPR)
	if arr != nil {
		o.Obj = arr.ID
	}
	b.emit(o)
	return o.Dst
}

// FLoad reads a float word at [base+off].
func (b *Block) FLoad(arr *Array, base Value, off int64) Value {
	o := b.Region.NewOp(isa.FLOAD)
	o.Args[0] = base
	o.Imm = off
	o.Dst = b.Region.NewValue(isa.RegFPR)
	if arr != nil {
		o.Obj = arr.ID
	}
	b.emit(o)
	return o.Dst
}

// Store writes val to [base+off].
func (b *Block) Store(arr *Array, base Value, off int64, val Value) *Op {
	o := b.Region.NewOp(isa.STORE)
	o.Args[0] = base
	o.Args[1] = val
	o.Imm = off
	if arr != nil {
		o.Obj = arr.ID
	}
	return b.emit(o)
}

// FStore writes a float val to [base+off].
func (b *Block) FStore(arr *Array, base Value, off int64, val Value) *Op {
	o := b.Region.NewOp(isa.FSTORE)
	o.Args[0] = base
	o.Args[1] = val
	o.Imm = off
	if arr != nil {
		o.Obj = arr.ID
	}
	return b.emit(o)
}

// AddrOf materializes the base address of an array.
func (b *Block) AddrOf(arr *Array) Value {
	v := b.MovI(arr.Base)
	return v
}

// Terminator helpers.

// JumpTo sets the block terminator to an unconditional jump.
func (b *Block) JumpTo(t *Block) {
	b.Kind = Jump
	b.Succ[0] = t
}

// BranchIf sets the terminator to a conditional branch: taken if cond.
func (b *Block) BranchIf(cond Value, taken, fall *Block) {
	b.Kind = CondBr
	b.Cond = cond
	b.Succ[0], b.Succ[1] = taken, fall
}

// ExitRegion marks the block as a region exit.
func (b *Block) ExitRegion() {
	b.Kind = Exit
	b.Succ[0], b.Succ[1] = nil, nil
}

// Non-SSA reassignment forms. Frontends model mutable variables as one
// value per variable and re-target it on every assignment (the same shape
// AddTo and Accum emit for counters and accumulators); these helpers are
// the general version for dst = code(x, y).

// Reassign emits dst = code(x, y) into an existing destination value.
func (b *Block) Reassign(code isa.Opcode, dst, x, y Value) *Op {
	o := b.Region.NewOp(code)
	o.Args[0], o.Args[1] = x, y
	o.Dst = dst
	b.emit(o)
	return o
}

// ReassignImm emits dst = code(x, #imm) into an existing destination.
func (b *Block) ReassignImm(code isa.Opcode, dst, x Value, imm int64) *Op {
	o := b.Region.NewOp(code)
	o.Args[0] = x
	o.Imm = imm
	o.Dst = dst
	b.emit(o)
	return o
}

// SetI emits dst = c (a MOVI re-targeting an existing value).
func (b *Block) SetI(dst Value, c int64) {
	o := b.Region.NewOp(isa.MOVI)
	o.Imm = c
	o.Dst = dst
	b.emit(o)
}

// SetF emits dst = c (an FMOVI re-targeting an existing value).
func (b *Block) SetF(dst Value, c float64) {
	o := b.Region.NewOp(isa.FMOVI)
	o.F = c
	o.Dst = dst
	b.emit(o)
}

// LoadInto re-targets a load at [base+off] to an existing destination.
func (b *Block) LoadInto(code isa.Opcode, dst Value, arr *Array, base Value, off int64) *Op {
	o := b.Region.NewOp(code)
	o.Args[0] = base
	o.Imm = off
	o.Dst = dst
	if arr != nil {
		o.Obj = arr.ID
	}
	b.emit(o)
	return o
}
