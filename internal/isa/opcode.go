// Package isa defines the instruction set of the Voltron machine: an
// HPL-PD-style VLIW core ISA extended with the dual-mode scalar operand
// network operations (PUT/GET for direct mode, SEND/RECV for queue mode),
// branch-condition broadcast (BCAST), fine-grain thread control
// (SPAWN/SLEEP), execution-mode switching (MODE_SWITCH), and transactional
// memory markers for speculative DOALL loops.
//
// The same opcode space is used by the compiler IR (over virtual registers)
// and by the per-core machine code the compiler emits, so the scheduler and
// the simulator share one vocabulary.
package isa

import "fmt"

// Opcode identifies an operation.
type Opcode uint8

// Opcodes. Grouped as in the HPL-PD specification: integer, floating point,
// comparison, memory, unbundled branch (PBR/CMP/BR), and the Voltron
// communication extensions.
const (
	NOP Opcode = iota

	// Integer arithmetic and logic (GPR).
	ADD
	SUB
	MUL
	DIV
	REM
	AND
	OR
	XOR
	SHL
	SHR
	MOVI // load immediate into GPR
	MOV  // GPR to GPR copy

	// Floating point (FPR).
	FADD
	FSUB
	FMUL
	FDIV
	FMOVI // load float immediate
	FMOV
	ITOF // GPR -> FPR convert
	FTOI // FPR -> GPR convert

	// Comparison: writes a predicate register (PR).
	CMPEQ
	CMPNE
	CMPLT
	CMPLE
	CMPGT
	CMPGE
	FCMPLT
	PAND
	POR
	PNOT

	// Memory. Addresses are byte addresses; all accesses are 8-byte words.
	LOAD   // GPR dst <- [GPR base + imm]
	STORE  // [GPR base + imm] <- GPR src
	FLOAD  // FPR dst <- [GPR base + imm]
	FSTORE // [GPR base + imm] <- FPR src

	// Unbundled branch (HPL-PD). PBR writes a branch-target register; BR
	// transfers control if its predicate is true (or unconditionally).
	PBR  // BTR dst <- block target
	BR   // branch to BTR target if PR src (or always if no predicate)
	HALT // end of program (single core / master)

	// Voltron scalar operand network: direct mode (coupled execution).
	PUT   // put GPR/PR value on the wire toward a direction, this cycle
	GETOP // get a value from a direction into a register, this cycle

	// Voltron scalar operand network: queue mode (decoupled execution).
	SEND  // send register value to a target core (enqueued, routed)
	RECV  // receive a value from a sender core (stalls until present)
	BCAST // broadcast a predicate/GPR to all other coupled cores

	// Fine-grain thread control (decoupled mode).
	SPAWN // send a start address to a target core
	SLEEP // finish the current fine-grain thread; wait for next SPAWN

	// Mode switching. Acts as a barrier when entering coupled mode.
	MODESWITCH

	// Transactional memory (statistical DOALL).
	TXBEGIN
	TXCOMMIT
	TXABORT

	numOpcodes
)

var opcodeNames = [numOpcodes]string{
	NOP: "nop", ADD: "add", SUB: "sub", MUL: "mul", DIV: "div", REM: "rem",
	AND: "and", OR: "or", XOR: "xor", SHL: "shl", SHR: "shr",
	MOVI: "movi", MOV: "mov",
	FADD: "fadd", FSUB: "fsub", FMUL: "fmul", FDIV: "fdiv",
	FMOVI: "fmovi", FMOV: "fmov", ITOF: "itof", FTOI: "ftoi",
	CMPEQ: "cmpeq", CMPNE: "cmpne", CMPLT: "cmplt", CMPLE: "cmple",
	CMPGT: "cmpgt", CMPGE: "cmpge", FCMPLT: "fcmplt",
	PAND: "pand", POR: "por", PNOT: "pnot",
	LOAD: "load", STORE: "store", FLOAD: "fload", FSTORE: "fstore",
	PBR: "pbr", BR: "br", HALT: "halt",
	PUT: "put", GETOP: "get",
	SEND: "send", RECV: "recv", BCAST: "bcast",
	SPAWN: "spawn", SLEEP: "sleep", MODESWITCH: "mode_switch",
	TXBEGIN: "txbegin", TXCOMMIT: "txcommit", TXABORT: "txabort",
}

// String returns the assembler mnemonic of the opcode.
func (op Opcode) String() string {
	if int(op) < len(opcodeNames) && opcodeNames[op] != "" {
		return opcodeNames[op]
	}
	return fmt.Sprintf("op(%d)", uint8(op))
}

// IsMemory reports whether the opcode accesses data memory.
func (op Opcode) IsMemory() bool {
	switch op {
	case LOAD, STORE, FLOAD, FSTORE:
		return true
	}
	return false
}

// IsLoad reports whether the opcode reads data memory.
func (op Opcode) IsLoad() bool { return op == LOAD || op == FLOAD }

// IsStore reports whether the opcode writes data memory.
func (op Opcode) IsStore() bool { return op == STORE || op == FSTORE }

// IsBranch reports whether the opcode can transfer control.
func (op Opcode) IsBranch() bool { return op == BR || op == HALT || op == SLEEP }

// IsComm reports whether the opcode uses the scalar operand network.
func (op Opcode) IsComm() bool {
	switch op {
	case PUT, GETOP, SEND, RECV, BCAST, SPAWN:
		return true
	}
	return false
}

// IsCompare reports whether the opcode writes a predicate register.
func (op Opcode) IsCompare() bool {
	switch op {
	case CMPEQ, CMPNE, CMPLT, CMPLE, CMPGT, CMPGE, FCMPLT, PAND, POR, PNOT:
		return true
	}
	return false
}

// Latency returns the execution latency of the opcode in cycles, following
// the Itanium-like latencies the paper assumes via HPL-PD. Loads report
// their L1-hit latency; cache misses add time in the memory model.
func (op Opcode) Latency() int {
	switch op {
	case MUL:
		return 3
	case DIV, REM, FDIV:
		return 12
	case FADD, FSUB, FMUL, ITOF, FTOI:
		return 4
	case LOAD, FLOAD:
		return 2
	default:
		return 1
	}
}
