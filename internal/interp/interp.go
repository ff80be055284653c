// Package interp executes IR programs directly. It provides the golden
// semantics every compiled/simulated configuration is validated against, and
// the observation hooks the profiler (package prof) builds its statistical
// memory-dependence, trip-count and miss-rate profiles on.
package interp

import (
	"context"
	"fmt"
	"math"

	"voltron/internal/ir"
	"voltron/internal/isa"
	"voltron/internal/mem"
)

// Tracer observes execution. All methods may be nil-safe no-ops; the
// interpreter checks for a nil Tracer once per run.
type Tracer interface {
	// EnterRegion fires when a region starts executing.
	EnterRegion(r *ir.Region)
	// EnterBlock fires when control enters a block.
	EnterBlock(b *ir.Block)
	// Mem fires on every memory access with the effective byte address.
	Mem(o *ir.Op, addr int64, isStore bool)
	// Op fires after every executed op.
	Op(o *ir.Op)
}

// Result summarizes an interpreted run.
type Result struct {
	Mem *mem.Flat
	// DynOps is the total number of executed IR operations.
	DynOps int64
	// RegionOps counts executed ops per region id (terminator evaluations
	// included as one op — the BR the machine would execute).
	RegionOps []int64
	// BlockCounts[r][b] is the execution count of block ID b of region ID
	// r. A block's ops all run once per execution of the block, so it is
	// also the execution count of each of its ops.
	BlockCounts [][]int64
}

// Options configures a run.
type Options struct {
	// MaxOps aborts runaway programs (default 500M).
	MaxOps int64
	Tracer Tracer
	// Mem supplies a pre-built memory image; nil allocates from the
	// program's layout.
	Mem *mem.Flat
}

// Run interprets the whole program region by region.
func Run(p *ir.Program, opt Options) (*Result, error) {
	return RunContext(context.Background(), p, opt)
}

// ctxPollBlocks is how many block entries run between two polls of the
// run's ctx: rare enough to cost nothing per op, frequent enough that a
// canceled run stops within microseconds.
const ctxPollBlocks = 1 << 10

// RunContext is Run that stops with an error wrapping ctx.Err() once ctx
// ends.
func RunContext(ctx context.Context, p *ir.Program, opt Options) (*Result, error) {
	if opt.MaxOps == 0 {
		opt.MaxOps = 500_000_000
	}
	m := opt.Mem
	if m == nil {
		m = mem.NewFlatFor(p)
	}
	res := &Result{
		Mem:         m,
		RegionOps:   make([]int64, len(p.Regions)),
		BlockCounts: make([][]int64, len(p.Regions)),
	}
	for _, r := range p.Regions {
		if err := runRegion(ctx, r, m, opt, res); err != nil {
			return nil, fmt.Errorf("region %q: %w", r.Name, err)
		}
	}
	return res, nil
}

func runRegion(ctx context.Context, r *ir.Region, m *mem.Flat, opt Options, res *Result) error {
	vals := make([]uint64, r.NumValues())
	counts := make([]int64, len(r.Blocks))
	res.BlockCounts[r.ID] = counts
	if opt.Tracer != nil {
		opt.Tracer.EnterRegion(r)
	}
	b := r.Entry
	for n := 0; b != nil; n++ {
		if n%ctxPollBlocks == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		if opt.Tracer != nil {
			opt.Tracer.EnterBlock(b)
		}
		counts[b.ID]++
		for _, o := range b.Ops {
			if err := EvalOp(o, vals, m, opt.Tracer); err != nil {
				return err
			}
			res.DynOps++
			res.RegionOps[r.ID]++
			if res.DynOps > opt.MaxOps {
				return fmt.Errorf("op budget exceeded (%d)", opt.MaxOps)
			}
		}
		res.DynOps++ // the terminator
		res.RegionOps[r.ID]++
		switch b.Kind {
		case ir.Jump:
			b = b.Succ[0]
		case ir.CondBr:
			if vals[b.Cond] != 0 {
				b = b.Succ[0]
			} else {
				b = b.Succ[1]
			}
		case ir.Exit:
			b = nil
		}
	}
	return nil
}

// EvalOp executes one IR op against the value and memory state. It is
// exported so the transactional-memory tests and the simulator's functional
// checks can reuse the exact golden semantics.
func EvalOp(o *ir.Op, vals []uint64, m *mem.Flat, tr Tracer) error {
	argI := func(i int) int64 { return int64(vals[o.Args[i]]) }
	argF := func(i int) float64 { return math.Float64frombits(vals[o.Args[i]]) }
	// rhs returns the second integer operand: a value or the immediate.
	rhs := func() int64 {
		if o.Args[1] == ir.NoValue {
			return o.Imm
		}
		return argI(1)
	}
	setI := func(v int64) { vals[o.Dst] = uint64(v) }
	setF := func(v float64) { vals[o.Dst] = math.Float64bits(v) }
	setP := func(v bool) {
		if v {
			vals[o.Dst] = 1
		} else {
			vals[o.Dst] = 0
		}
	}
	switch o.Code {
	case isa.NOP:
	case isa.MOVI:
		setI(o.Imm)
	case isa.MOV:
		setI(argI(0))
	case isa.FMOVI:
		setF(o.F)
	case isa.FMOV:
		setF(argF(0))
	case isa.ADD:
		setI(argI(0) + rhs())
	case isa.SUB:
		setI(argI(0) - rhs())
	case isa.MUL:
		setI(argI(0) * rhs())
	case isa.DIV:
		if d := rhs(); d != 0 {
			setI(argI(0) / d)
		} else {
			setI(0)
		}
	case isa.REM:
		if d := rhs(); d != 0 {
			setI(argI(0) % d)
		} else {
			setI(0)
		}
	case isa.AND:
		setI(argI(0) & rhs())
	case isa.OR:
		setI(argI(0) | rhs())
	case isa.XOR:
		setI(argI(0) ^ rhs())
	case isa.SHL:
		setI(argI(0) << (uint64(rhs()) & 63))
	case isa.SHR:
		setI(argI(0) >> (uint64(rhs()) & 63))
	case isa.FADD:
		setF(argF(0) + argF(1))
	case isa.FSUB:
		setF(argF(0) - argF(1))
	case isa.FMUL:
		setF(argF(0) * argF(1))
	case isa.FDIV:
		setF(argF(0) / argF(1))
	case isa.ITOF:
		setF(float64(argI(0)))
	case isa.FTOI:
		setI(int64(argF(0)))
	case isa.CMPEQ:
		setP(argI(0) == rhs())
	case isa.CMPNE:
		setP(argI(0) != rhs())
	case isa.CMPLT:
		setP(argI(0) < rhs())
	case isa.CMPLE:
		setP(argI(0) <= rhs())
	case isa.CMPGT:
		setP(argI(0) > rhs())
	case isa.CMPGE:
		setP(argI(0) >= rhs())
	case isa.FCMPLT:
		setP(argF(0) < argF(1))
	case isa.PAND:
		setP(vals[o.Args[0]] != 0 && vals[o.Args[1]] != 0)
	case isa.POR:
		setP(vals[o.Args[0]] != 0 || vals[o.Args[1]] != 0)
	case isa.PNOT:
		setP(vals[o.Args[0]] == 0)
	case isa.LOAD:
		addr := argI(0) + o.Imm
		if tr != nil {
			tr.Mem(o, addr, false)
		}
		vals[o.Dst] = m.LoadW(addr)
	case isa.FLOAD:
		addr := argI(0) + o.Imm
		if tr != nil {
			tr.Mem(o, addr, false)
		}
		vals[o.Dst] = m.LoadW(addr)
	case isa.STORE, isa.FSTORE:
		addr := argI(0) + o.Imm
		if tr != nil {
			tr.Mem(o, addr, true)
		}
		m.StoreW(addr, vals[o.Args[1]])
	default:
		return fmt.Errorf("interp: opcode %v not executable in IR", o.Code)
	}
	if tr != nil {
		tr.Op(o)
	}
	return nil
}
