package core

import (
	"context"
	"fmt"
	"math"

	"voltron/internal/isa"
	"voltron/internal/mem"
	"voltron/internal/stats"
	"voltron/internal/trace"
	"voltron/internal/xnet"
)

// Config parameterizes a Voltron machine.
type Config struct {
	Cores int
	Mem   mem.Config
	// RegionSyncLat is the barrier overhead between regions (the paper's
	// call/return synchronization point).
	RegionSyncLat int64
	// ModeSwitchLat is the extra cost of MODE_SWITCH between regions of
	// different modes.
	ModeSwitchLat int64
	// Watchdog aborts a run when no core makes progress for this many
	// cycles (a deadlock means compiler-inserted communication is wrong).
	// It is only consulted by the reference stepper: the event-driven core
	// detects a deadlock exactly, as "no core issued and no wake event is
	// scheduled", independent of this bound.
	Watchdog int64
	// QueueBaseLat/QueueHopLat override the queue-mode network latency
	// when nonzero (used by the latency-sensitivity ablation).
	QueueBaseLat int64
	QueueHopLat  int64
	// QueueCap overrides the per-(sender,receiver) queue capacity when
	// nonzero (-1 = unbounded).
	QueueCap int
	// MeshCols overrides the mesh column count when nonzero (the mesh-shape
	// ablation knob): cores are arranged over MeshCols columns instead of
	// the near-square default, with ghost positions padding the last row.
	// Values below 4 break the coupled compiler's row-group adjacency, so
	// the request surface only admits 0 or [4, cores] (and not 4 at 4
	// cores for coupled strategies, whose code assumes the 2×2 default).
	MeshCols int
	// Tracer, when non-nil, collects the structured timeline of the run:
	// per-core stall spans, operand- and queue-network events, spawn/sleep
	// transitions, cache-miss fills, transactions and region boundaries.
	// Render with its AppendChrome/WriteChrome/Report methods. Nil tracing
	// costs a single nil check at each emit site; the event loop stays
	// allocation-free either way (enforced by TestEventLoopZeroAllocs).
	// A tracer covers one run: the machine drops it when that run ends,
	// so a later run on the same machine is untraced until Reset installs
	// a new one.
	Tracer *trace.Tracer
	// Reference selects the retained naive stepper: the simulator advances
	// one cycle at a time instead of jumping to the next wake event. Cycle
	// counts and stats are identical either way (the cycle-exactness tests
	// assert it); the reference stepper exists as that test's oracle and
	// as a debugging fallback.
	Reference bool
}

// DefaultConfig returns the paper's machine parameters for n cores.
func DefaultConfig(n int) Config {
	return Config{
		Cores:         n,
		Mem:           mem.DefaultConfig(n),
		RegionSyncLat: 4,
		ModeSwitchLat: 2,
		Watchdog:      1_000_000,
	}
}

// RunResult is the outcome of simulating a compiled program.
type RunResult struct {
	*stats.Run
	Mem      *mem.Flat
	MemStats mem.Stats
	// RegionCycles is the wall-clock cycles spent in each region.
	RegionCycles []int64
}

// Machine simulates a Voltron system. A Machine may be reused for any
// number of Run calls (reuse amortizes per-core scratch state, the memory
// hierarchy's tag arrays, the network queues and the TM sets across runs),
// but it must not be shared by concurrent goroutines — create one Machine
// per goroutine, or hand machines out exclusively from a pool.
type Machine struct {
	cfg Config
	top xnet.Topology
	// scratch holds per-core runtime state reused across regions and runs
	// to cut allocation churn on the measured-selection hot path.
	scratch []*coreState
	// sys/direct/queue are the simulation components, allocated on the
	// first run and reset — not rebuilt — on every later one; rs is the
	// embedded run state reused the same way. Per-run outputs (RunResult,
	// stats.Run, the Flat image) are still allocated fresh each run: they
	// outlive the machine's next run by contract.
	sys    *mem.System
	direct *xnet.DirectNet
	queue  *xnet.QueueNet
	rs     runState
	// sched is the decoupled event loop's wake scheduler, reused across
	// regions and runs like the rest of the per-core scratch state.
	sched wakeSched
}

// New creates a machine.
func New(cfg Config) *Machine {
	return &Machine{cfg: cfg, top: topologyOf(cfg)}
}

// Config returns the machine's configuration: the one it was built or
// last reset with, less any tracer a finished run has dropped.
func (m *Machine) Config() Config { return m.cfg }

// topologyOf resolves a config's mesh arrangement: the paper's near-square
// default, or a fixed column count when the mesh-shape knob is set.
func topologyOf(cfg Config) xnet.Topology {
	if cfg.MeshCols > 0 {
		return xnet.TopologyCols(cfg.Cores, cfg.MeshCols)
	}
	return xnet.TopologyFor(cfg.Cores)
}

// Reset reconfigures the machine to cfg, reinstating exactly New(cfg)'s
// invariants. When the machine shape is unchanged (same core count and
// memory geometry) the allocated per-core scratch, cache tag arrays,
// network queues and TM read/write sets are kept and re-zeroed at the next
// run; otherwise the machine is rebuilt as New would build it. Either way
// the next Run is byte-identical to a fresh machine's (the pooled-vs-fresh
// differential tests assert it).
func (m *Machine) Reset(cfg Config) {
	if cfg.Cores != m.cfg.Cores || cfg.Mem != m.cfg.Mem || cfg.MeshCols != m.cfg.MeshCols {
		*m = Machine{cfg: cfg, top: topologyOf(cfg)}
		return
	}
	m.cfg = cfg
}

// coreState is one core's runtime state.
type coreState struct {
	id         int
	pc         int
	awake      bool
	done       bool
	txwait     bool
	txactive   bool
	stallUntil int64
	stallKind  stats.Kind
	fetchUntil int64
	// chargedUntil is the first cycle this core has not yet been charged
	// for. The event-scheduled loop accounts blocked cores lazily: a core
	// skipped over [chargedUntil, now) settles the window in one catchUpTo
	// call when it is next evaluated.
	chargedUntil int64
	regs         [4][]uint64
	ready        [4][]int64
	issuedBranch bool // this cycle (coupled-mode consistency check)
	branchTaken  bool
	halted       bool // issued HALT this cycle (coupled)
}

func classIdx(c isa.RegClass) int { return int(c) - 1 }

// The register accessors index files that reset sized for the region's
// stream: every register an instruction names is below its class's count.

func (cs *coreState) get(r isa.Reg) uint64 {
	return cs.regs[classIdx(r.Class)][r.Index]
}

func (cs *coreState) set(r isa.Reg, v uint64, readyAt int64) {
	cs.regs[classIdx(r.Class)][r.Index] = v
	cs.ready[classIdx(r.Class)][r.Index] = readyAt
}

func (cs *coreState) setPred(r isa.Reg, v bool, readyAt int64) {
	var u uint64
	if v {
		u = 1
	}
	cs.set(r, u, readyAt)
}

func (cs *coreState) readyAt(r isa.Reg) int64 {
	return cs.ready[classIdx(r.Class)][r.Index]
}

// reset reinitializes a recycled coreState for a new region whose stream
// names n registers per class (CompiledRegion.resolve counts them). The
// register files are sized to n once and zeroed, so a register read before
// any write holds 0; their backing arrays are kept for the next region.
func (cs *coreState) reset(id int, awake bool, n regCounts) {
	regs, ready := cs.regs, cs.ready
	for i, k := range n {
		if cap(regs[i]) < k {
			regs[i], ready[i] = make([]uint64, k), make([]int64, k)
			continue
		}
		regs[i], ready[i] = regs[i][:k], ready[i][:k]
		clear(regs[i])
		clear(ready[i])
	}
	*cs = coreState{id: id, awake: awake}
	cs.regs, cs.ready = regs, ready
}

// neverWakes marks a core with no scheduled wake event: only another core's
// progress can unblock it.
const neverWakes = int64(math.MaxInt64)

// runState holds the machinery of one simulation.
type runState struct {
	m      *Machine
	cp     *CompiledProgram
	sys    *mem.System
	direct *xnet.DirectNet
	queue  *xnet.QueueNet
	run    *stats.Run
	cores  []*coreState
	now    int64
	// tr is the structured event collector (nil = tracing off, one branch
	// per emit site); ref selects the naive per-cycle stepper.
	tr  *trace.Tracer
	ref bool
	// sched points at the machine's wake scheduler while the event-driven
	// decoupled loop runs a region; nil otherwise. The notify hooks and
	// counter updates inside the shared step/exec code key off it with a
	// single pointer check, the same discipline as the nil tracer.
	sched *wakeSched
	// current region context
	cr       *CompiledRegion
	regionID int
	lastProg int64
	// ctx is the run's cancellation context (nil when the caller's context
	// can never be canceled, so the hot loops skip the poll entirely);
	// pollCtr rate-limits the ctx.Err() poll to one per 4096 loop passes.
	ctx     context.Context
	pollCtr uint32
	// prevMode is the mode of the last region run (-1 before the first);
	// res is the result of a run that completed, the state Save records
	// (nil while a run is in progress or after one failed).
	prevMode Mode
	res      *RunResult
}

// checkCancel polls the run's context at most once every 4096 calls, so the
// simulation loops stay cancelable without a per-cycle atomic load. A
// canceled run aborts with an error wrapping ctx.Err() (errors.Is with
// context.Canceled / DeadlineExceeded works on it).
func (rs *runState) checkCancel() error {
	if rs.ctx == nil {
		return nil
	}
	if rs.pollCtr++; rs.pollCtr&4095 != 0 {
		return nil
	}
	if err := rs.ctx.Err(); err != nil {
		return fmt.Errorf("simulation canceled at cycle %d: %w", rs.now, err)
	}
	return nil
}

// Run simulates the compiled program to completion.
func (m *Machine) Run(cp *CompiledProgram) (*RunResult, error) {
	return m.RunContext(context.Background(), cp)
}

// RunContext simulates the compiled program to completion, aborting early
// (with an error wrapping ctx.Err()) once ctx is canceled. Cancellation is
// polled from the simulation loops, so a long-running simulation notices a
// canceled context within a bounded number of loop passes.
func (m *Machine) RunContext(ctx context.Context, cp *CompiledProgram) (*RunResult, error) {
	return m.run(ctx, nil, cp)
}

// ResumeContext continues a checkpointed run: it reinstates ck and
// simulates the regions of cp after the checkpoint's, returning the whole
// run's result — exactly what RunContext(ctx, cp) returns, provided cp's
// first regions are the ones the checkpointed run executed. The caller
// guarantees that; the machine checks the configuration, the region count
// and the memory size. A resumed run cannot be traced: its timeline would
// start mid-run.
func (m *Machine) ResumeContext(ctx context.Context, ck *Checkpoint, cp *CompiledProgram) (*RunResult, error) {
	switch {
	case ck.cfg != m.cfg.shape():
		return nil, fmt.Errorf("checkpoint taken on a differently configured machine")
	case m.cfg.Tracer != nil:
		return nil, fmt.Errorf("cannot trace a resumed run")
	case ck.regions > len(cp.Regions):
		return nil, fmt.Errorf("checkpoint after region %d, program has %d regions", ck.regions, len(cp.Regions))
	case ck.sys.Words() != cp.Src.MemWords():
		return nil, fmt.Errorf("checkpoint memory has %d words, program needs %d", ck.sys.Words(), cp.Src.MemWords())
	}
	return m.run(ctx, ck, cp)
}

// Checkpoint is a machine's state at a region boundary, recorded by Save
// after a run and reinstated by ResumeContext: the clock, the previous
// region's mode, the region times and stats so far, the memory hierarchy
// and both networks. Per-core scratch and the wake scheduler are reset at
// every region, so they are not kept. A Checkpoint's buffers are reused by
// later saves into it.
type Checkpoint struct {
	cfg          Config
	regions      int
	now          int64
	prevMode     Mode
	regionCycles []int64
	run          stats.Run
	sys          mem.Snapshot
	direct       xnet.DirectState
	queue        xnet.QueueSnapshot
}

// shape is the part of a configuration a checkpoint must agree with: all
// of it but the tracer and the stepper choice, which change neither
// cycles nor stats.
func (cfg Config) shape() Config {
	cfg.Tracer, cfg.Reference = nil, false
	return cfg
}

// CanResume reports whether a machine configured by cfg can resume the
// checkpoints of one configured by from: the two differ at most in the
// stepper choice, and cfg has no tracer (a resumed timeline would start
// mid-run).
func (cfg Config) CanResume(from Config) bool {
	return cfg.Tracer == nil && cfg.shape() == from.shape()
}

// Save records the state the machine's last run ended in into ck. Call it
// before the next run on the machine and before changing the last run's
// result. It fails when the last run did not complete or left a
// transaction live.
func (m *Machine) Save(ck *Checkpoint) error {
	rs := &m.rs
	if rs.res == nil {
		return fmt.Errorf("no completed run to checkpoint")
	}
	if err := m.sys.Save(&ck.sys); err != nil {
		return err
	}
	ck.cfg = m.cfg.shape()
	ck.regions = len(rs.res.RegionCycles)
	ck.now = rs.now
	ck.prevMode = rs.prevMode
	ck.regionCycles = append(ck.regionCycles[:0], rs.res.RegionCycles...)
	cores := append(ck.run.Cores[:0], rs.run.Cores...)
	ck.run = *rs.run
	ck.run.Cores = cores
	ck.direct = m.direct.Save()
	m.queue.Save(&ck.queue)
	return nil
}

// run simulates cp from the start, or from the region boundary ck records
// when ck is non-nil.
func (m *Machine) run(ctx context.Context, ck *Checkpoint, cp *CompiledProgram) (*RunResult, error) {
	m.rs.res = nil
	first := 0
	if ck != nil {
		first = ck.regions
	}
	for _, cr := range cp.Regions[first:] {
		if err := cr.Validate(cp.Cores); err != nil {
			return nil, err
		}
	}
	if cp.Cores != m.cfg.Cores {
		return nil, fmt.Errorf("program compiled for %d cores, machine has %d", cp.Cores, m.cfg.Cores)
	}
	var flat *mem.Flat
	if ck == nil {
		flat = cp.NewMemory()
	}
	if m.sys == nil {
		m.sys = mem.NewSystem(m.cfg.Mem, flat)
		m.direct = xnet.NewDirectNet(m.top)
		m.queue = xnet.NewQueueNet(m.top)
	} else if ck == nil {
		// Warm machine: reinstate the components' initial state in place
		// instead of rebuilding them — the whole point of pooling.
		m.sys.Reset(flat)
		m.direct.Reset()
		m.queue.Reset()
	}
	if ck != nil {
		flat = m.sys.Restore(&ck.sys)
		m.direct.Restore(ck.direct)
		m.queue.Restore(&ck.queue)
	}
	rs := &m.rs
	cores := rs.cores[:0]
	*rs = runState{
		m:        m,
		cp:       cp,
		sys:      m.sys,
		direct:   m.direct,
		queue:    m.queue,
		run:      stats.NewRun(m.cfg.Cores),
		cores:    cores,
		tr:       m.cfg.Tracer,
		ref:      m.cfg.Reference,
		prevMode: Mode(-1),
	}
	// Drop run-scoped references on the way out so an idle pooled machine
	// pins neither the compiled program nor the request's context/tracer.
	// The tracer serves this run only: the config and the memory system
	// let go of it too.
	defer func() {
		rs.ctx, rs.cp, rs.cr, rs.tr = nil, nil, nil, nil
		m.cfg.Tracer, m.sys.Tracer = nil, nil
	}()
	rs.sys.Tracer = rs.tr
	if ctx.Done() != nil {
		rs.ctx = ctx
	}
	if m.cfg.QueueBaseLat > 0 {
		rs.queue.BaseLat = m.cfg.QueueBaseLat
	}
	if m.cfg.QueueHopLat > 0 {
		rs.queue.HopLat = m.cfg.QueueHopLat
	}
	if m.cfg.QueueCap != 0 {
		rs.queue.Cap = m.cfg.QueueCap
	}
	res := &RunResult{Run: rs.run, Mem: flat, RegionCycles: make([]int64, 0, len(cp.Regions))}
	if ck != nil {
		cores := rs.run.Cores
		*rs.run = ck.run
		rs.run.Cores = cores
		copy(cores, ck.run.Cores)
		rs.now, rs.prevMode = ck.now, ck.prevMode
		res.RegionCycles = append(res.RegionCycles, ck.regionCycles...)
	}
	for i := first; i < len(cp.Regions); i++ {
		cr := cp.Regions[i]
		if rs.tr != nil {
			rs.tr.RegionBegin(rs.now, cr.Name, cr.Mode.String(), m.cfg.Cores)
		}
		start := rs.now
		// Region barrier (+ mode switch when the mode changes).
		overhead := m.cfg.RegionSyncLat
		if rs.prevMode >= 0 && rs.prevMode.StatsMode() != cr.Mode.StatsMode() {
			overhead += m.cfg.ModeSwitchLat
		}
		rs.chargeAll(stats.SyncCallRet, overhead)
		rs.now += overhead
		if err := rs.runRegion(i, cr); err != nil {
			return nil, fmt.Errorf("region %q: %w", cr.Name, err)
		}
		if rs.tr != nil {
			rs.tr.RegionEnd(rs.now)
		}
		cycles := rs.now - start
		res.RegionCycles = append(res.RegionCycles, cycles)
		rs.run.ModeCycles[cr.Mode.StatsMode()] += cycles
		rs.prevMode = cr.Mode
	}
	rs.run.TotalCycles = rs.now
	rs.run.TMConflicts = rs.sys.TM.Conflicts()
	res.MemStats = rs.sys.St
	rs.res = res
	return res, nil
}

func (rs *runState) chargeAll(k stats.Kind, n int64) {
	for i := range rs.run.Cores {
		rs.run.Cores[i].Add(k, n)
	}
	if rs.tr != nil {
		for i := range rs.run.Cores {
			rs.tr.Charge(rs.now, i, k, n)
		}
	}
}

func (rs *runState) charge(core int, k stats.Kind) {
	rs.run.Cores[core].Add(k, 1)
	if rs.tr != nil {
		rs.tr.Charge(rs.now, core, k, 1)
	}
}

// chargeSpan charges the half-open cycle window [from, to) of kind k — the
// event-driven loops use it to account a whole skipped stall window in one
// step. The tracer receives the same window, so stall attribution and the
// stats package always agree (they are charged at the same sites).
func (rs *runState) chargeSpan(core int, k stats.Kind, from, to int64) {
	if to <= from {
		return
	}
	rs.run.Cores[core].Add(k, to-from)
	if rs.tr != nil {
		rs.tr.Charge(from, core, k, to-from)
	}
}

// instAddr gives the I-cache address of an instruction: each core's stream
// for each region lives in its own memory space.
func (rs *runState) instAddr(core, idx int) int64 {
	return int64(rs.regionID)<<24 | int64(core)<<20 | int64(idx)*isa.InstBytes
}

// setPC moves a core to an instruction index and starts the fetch.
func (rs *runState) setPC(cs *coreState, idx int) {
	cs.pc = idx
	done := rs.sys.Fetch(cs.id, rs.instAddr(cs.id, idx), rs.now+1)
	// Overlap the hit latency with execution: only the miss portion stalls.
	cs.fetchUntil = done - rs.sys.Cfg.L1I.HitLat
}

func (rs *runState) runRegion(id int, cr *CompiledRegion) error {
	cr.resolve()
	rs.cr = cr
	rs.regionID = id
	rs.cores = rs.cores[:0]
	for c := 0; c < rs.m.cfg.Cores; c++ {
		if c == len(rs.m.scratch) {
			rs.m.scratch = append(rs.m.scratch, &coreState{})
		}
		cs := rs.m.scratch[c]
		cs.reset(c, cr.StartAwake[c], cr.regs[c])
		rs.cores = append(rs.cores, cs)
		if cs.awake {
			rs.setPC(cs, cr.Entry[c])
		}
	}
	rs.lastProg = rs.now
	if cr.Mode == Coupled {
		return rs.runCoupled()
	}
	return rs.runDecoupled()
}

// clamp bounds v to [lo, hi].
func clamp(v, lo, hi int64) int64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// ---------- coupled (lock-step) execution ----------

func (rs *runState) runCoupled() error {
	cr := rs.cr
	for {
		if err := rs.checkCancel(); err != nil {
			return err
		}
		// Lock-step issue: every core must be able to issue this cycle;
		// otherwise the stall bus stalls them all. Blocked cores release
		// at fixed times (memory doneAt, fetch completion), so the next
		// issue cycle is the latest per-core release. The event-driven
		// core jumps the clock straight there; the reference stepper
		// advances a single cycle. Either way the skipped window is
		// charged exactly as the per-cycle loop would charge it: the
		// stall kind while the core's own stall lasts, I-stall while its
		// fetch lasts, lock-step stall once only peers keep it waiting.
		wake := rs.now
		for _, cs := range rs.cores {
			w := max(cs.stallUntil, cs.fetchUntil)
			if w > wake {
				wake = w
			}
		}
		if wake > rs.now {
			to := wake
			if rs.ref {
				to = rs.now + 1
			}
			for _, cs := range rs.cores {
				s := clamp(cs.stallUntil, rs.now, to)
				f := clamp(cs.fetchUntil, s, to)
				rs.chargeSpan(cs.id, cs.stallKind, rs.now, s)
				rs.chargeSpan(cs.id, stats.IStall, s, f)
				rs.chargeSpan(cs.id, stats.Lockstep, f, to)
			}
			if rs.tr != nil && to == wake {
				// The stall bus releases every core at wake. Under the
				// reference stepper the recorded window is the final
				// single-cycle step; the release cycle is identical.
				rs.tr.StallRelease(wake, wake-rs.now)
			}
			rs.now = to
			if rs.ref {
				if err := rs.watchdog(); err != nil {
					return err
				}
			}
			continue
		}
		// All issue together. Phase A: drive the direct-mode wires.
		rs.direct.BeginCycle(rs.now)
		for _, cs := range rs.cores {
			in := &cr.Code[cs.id][cs.pc]
			switch in.Op {
			case isa.PUT:
				if err := rs.checkOperands(cs, in); err != nil {
					return err
				}
				if err := rs.direct.Put(cs.id, in.Dir, cs.get(in.Src1)); err != nil {
					return err
				}
				if rs.tr != nil {
					rs.tr.Put(rs.now, cs.id, in.Dir)
				}
			case isa.BCAST:
				if err := rs.checkOperands(cs, in); err != nil {
					return err
				}
				if err := rs.direct.Broadcast(cs.id, cs.get(in.Src1)); err != nil {
					return err
				}
				if rs.tr != nil {
					rs.tr.Bcast(rs.now, cs.id)
				}
			}
		}
		// Phase B: everything else.
		halts, branches := 0, 0
		for _, cs := range rs.cores {
			in := &cr.Code[cs.id][cs.pc]
			cs.issuedBranch, cs.halted = false, false
			if in.Op == isa.PUT || in.Op == isa.BCAST {
				rs.charge(cs.id, stats.Busy)
				continue
			}
			if err := rs.execInst(cs, in, true); err != nil {
				return err
			}
			rs.charge(cs.id, stats.Busy)
			if cs.issuedBranch {
				branches++
			}
			if cs.halted {
				halts++
			}
		}
		rs.lastProg = rs.now
		// Branch/halt consistency: the compiler schedules them in the same
		// cycle on every core.
		if halts > 0 && halts != len(rs.cores) {
			return fmt.Errorf("cycle %d: %d/%d cores halted (schedule skew)", rs.now, halts, len(rs.cores))
		}
		if branches > 0 && branches != len(rs.cores) {
			return fmt.Errorf("cycle %d: %d/%d cores branched (schedule skew)", rs.now, branches, len(rs.cores))
		}
		if branches > 0 {
			taken := rs.cores[0].branchTaken
			for _, cs := range rs.cores {
				if cs.branchTaken != taken {
					return fmt.Errorf("cycle %d: branch decision diverged between cores", rs.now)
				}
			}
		}
		// Advance PCs.
		for _, cs := range rs.cores {
			in := &cr.Code[cs.id][cs.pc]
			switch {
			case cs.halted:
				// region ends below
			case cs.issuedBranch && cs.branchTaken:
				idx, ok := cr.lookupLabel(cs.id, int64(cs.get(in.Src1)))
				if !ok {
					return fmt.Errorf("core %d: branch to unknown block %d", cs.id, cs.get(in.Src1))
				}
				rs.setPC(cs, idx)
			default:
				rs.setPC(cs, cs.pc+1)
			}
		}
		rs.now++
		if halts > 0 {
			return nil
		}
		if rs.ref {
			if err := rs.watchdog(); err != nil {
				return err
			}
		}
	}
}

// ---------- decoupled (fine-grain thread) execution ----------

func (rs *runState) runDecoupled() error {
	if rs.ref {
		return rs.runDecoupledRef()
	}
	return rs.runDecoupledEvent()
}

// runDecoupledRef is the naive per-cycle decoupled stepper: every core is
// evaluated on every cycle. It is the cycle-exactness oracle the
// event-scheduled loop is diffed against, and costs O(width) per cycle no
// matter how many cores are actually doing anything.
func (rs *runState) runDecoupledRef() error {
	cr := rs.cr
	for {
		if err := rs.checkCancel(); err != nil {
			return err
		}
		allQuiet := true
		for _, cs := range rs.cores {
			if _, _, err := rs.stepDecoupled(cs); err != nil {
				return err
			}
			if !cs.done && cs.awake {
				allQuiet = false
			}
		}
		// Transactional commit barrier.
		if cr.TxCores > 0 {
			if rs.sys.TM.AnyAborted() {
				return rs.runFallback()
			}
			waiting := 0
			for _, cs := range rs.cores {
				if cs.txwait {
					waiting++
				}
			}
			if waiting == cr.TxCores && waiting > 0 {
				for _, cs := range rs.cores {
					if cs.txwait {
						if !rs.sys.TM.Commit(cs.id) {
							return rs.runFallback()
						}
						if rs.tr != nil {
							rs.tr.TxCommit(rs.now, cs.id)
						}
						cs.txwait, cs.txactive = false, false
					}
				}
			}
		}
		rs.now++
		if allQuiet && !rs.queue.PendingAny() {
			return nil
		}
		if err := rs.watchdog(); err != nil {
			return err
		}
	}
}

// stepDecoupled advances one core by one cycle in decoupled mode. It
// reports whether the core changed machine state (issued, woke, received,
// committed a PC move) and, when it did not, the earliest future cycle at
// which it could — neverWakes when only another core's progress can
// unblock it (full send queue, transaction barrier, done).
func (rs *runState) stepDecoupled(cs *coreState) (acted bool, wake int64, err error) {
	cr := rs.cr
	switch {
	case cs.done:
		rs.charge(cs.id, stats.SyncCallRet)
		return false, neverWakes, nil
	case !cs.awake:
		if addr, from, seq, ok := rs.queue.RecvSpawn(cs.id, rs.now); ok {
			idx, lbl := cr.lookupLabel(cs.id, int64(addr))
			if !lbl {
				return false, 0, fmt.Errorf("core %d: spawned at unknown block %d", cs.id, addr)
			}
			cs.awake = true
			if rs.sched != nil {
				rs.sched.live++
				// The pop freed a slot in the (from, to) pair (spawn messages
				// count against pair capacity), so a back-pressured sender can
				// retry.
				rs.notifyPop(from, cs.id)
			}
			rs.setPC(cs, idx)
			rs.run.Spawns++
			rs.lastProg = rs.now
			if rs.tr != nil {
				rs.tr.Wake(rs.now, cs.id, seq)
			}
			rs.charge(cs.id, stats.SyncCallRet)
			return true, 0, nil
		}
		rs.charge(cs.id, stats.SyncCallRet)
		return false, rs.queue.NextSpawnAt(cs.id), nil
	case cs.txwait:
		rs.charge(cs.id, stats.SyncCallRet)
		return false, neverWakes, nil
	case rs.now < cs.stallUntil:
		rs.charge(cs.id, cs.stallKind)
		return false, max(cs.stallUntil, cs.fetchUntil), nil
	case rs.now < cs.fetchUntil:
		rs.charge(cs.id, stats.IStall)
		return false, cs.fetchUntil, nil
	}
	in := &cr.Code[cs.id][cs.pc]
	// Queue-mode back-pressure: a SEND (or SPAWN/broadcast) to a full
	// receive queue retries until the consumer drains it.
	switch in.Op {
	case isa.SEND, isa.SPAWN:
		if !rs.queue.CanSend(cs.id, in.Core) {
			rs.charge(cs.id, stats.SendStall)
			return false, neverWakes, nil
		}
	case isa.BCAST:
		for c := 0; c < rs.m.cfg.Cores; c++ {
			if c != cs.id && !rs.queue.CanSend(cs.id, c) {
				rs.charge(cs.id, stats.SendStall)
				return false, neverWakes, nil
			}
		}
	}
	// RECV retries until its message arrives: the receive-queue stall.
	if in.Op == isa.RECV {
		v, seq, ok := rs.queue.Recv(cs.id, in.Core, rs.now)
		if !ok {
			if in.Dst.Class == isa.RegPR {
				rs.charge(cs.id, stats.RecvPred)
			} else {
				rs.charge(cs.id, stats.RecvData)
			}
			return false, rs.queue.NextRecvAt(cs.id, in.Core), nil
		}
		cs.set(in.Dst, v, rs.now+1)
		if rs.tr != nil {
			rs.tr.Recv(rs.now, cs.id, in.Core, seq)
		}
		rs.notifyPop(int(in.Core), cs.id)
		rs.charge(cs.id, stats.Busy)
		rs.setPC(cs, cs.pc+1)
		rs.lastProg = rs.now
		return true, 0, nil
	}
	cs.issuedBranch, cs.halted = false, false
	if err := rs.execInst(cs, in, false); err != nil {
		return false, 0, err
	}
	rs.charge(cs.id, stats.Busy)
	rs.lastProg = rs.now
	switch {
	case cs.halted:
		cs.done = true
		if rs.sched != nil {
			rs.sched.live--
		}
	case in.Op == isa.SLEEP:
		cs.awake = false
		if rs.sched != nil {
			rs.sched.live--
		}
		if rs.tr != nil {
			rs.tr.Sleep(rs.now, cs.id)
		}
	case cs.issuedBranch && cs.branchTaken:
		idx, ok := cr.lookupLabel(cs.id, int64(cs.get(in.Src1)))
		if !ok {
			return false, 0, fmt.Errorf("core %d: branch to unknown block %d", cs.id, cs.get(in.Src1))
		}
		rs.setPC(cs, idx)
	default:
		rs.setPC(cs, cs.pc+1)
	}
	return true, 0, nil
}

// skipDecoupled charges one core for the skipped cycles [from, to) exactly
// as the per-cycle loop would have: the core's state cannot change inside
// the window (no core acts before the earliest wake event), only its charge
// kind can switch from the stall source to the fetch source.
func (rs *runState) skipDecoupled(cs *coreState, from, to int64) {
	n := to - from
	if cs.done || !cs.awake || cs.txwait {
		rs.chargeSpan(cs.id, stats.SyncCallRet, from, to)
		return
	}
	if from < cs.stallUntil || from < cs.fetchUntil {
		s := clamp(cs.stallUntil, from, to)
		rs.chargeSpan(cs.id, cs.stallKind, from, s)
		rs.chargeSpan(cs.id, stats.IStall, s, clamp(cs.fetchUntil, s, to))
		return
	}
	in := &rs.cr.Code[cs.id][cs.pc]
	switch in.Op {
	case isa.SEND, isa.SPAWN, isa.BCAST:
		rs.chargeSpan(cs.id, stats.SendStall, from, to)
	case isa.RECV:
		if in.Dst.Class == isa.RegPR {
			rs.chargeSpan(cs.id, stats.RecvPred, from, to)
		} else {
			rs.chargeSpan(cs.id, stats.RecvData, from, to)
		}
		// The per-cycle loop would have polled the receive queue once per
		// skipped cycle; keep the poll counter identical.
		rs.queue.RecvWaits += n
	}
}

// runFallback handles a DOALL dependence violation: abort every transaction,
// roll memory back, and re-execute the loop serially on core 0 from the
// region's fallback stream. The compiler is responsible for register state
// (the fallback re-materializes everything), matching the paper's
// compiler-managed register rollback.
func (rs *runState) runFallback() error {
	if rs.tr != nil {
		for _, cs := range rs.cores {
			if cs.txactive {
				rs.tr.TxAbort(rs.now, cs.id)
			}
		}
	}
	rs.sys.TM.AbortAll(rs.sys.Flat)
	cr := rs.cr
	cs := &coreState{}
	cs.reset(0, true, cr.fbRegs)
	// Distinct address space for the fallback stream.
	saveRegion := rs.regionID
	rs.regionID = saveRegion | 1<<16
	defer func() { rs.regionID = saveRegion }()
	rs.setPC(cs, 0)
	for {
		if err := rs.checkCancel(); err != nil {
			return err
		}
		if rs.now < cs.stallUntil || rs.now < cs.fetchUntil {
			// Stalled: jump to the release point (one cycle at a time for
			// the reference stepper), charging the idled cores' rollback
			// cycles and core 0's stall breakdown for the whole window.
			to := max(cs.stallUntil, cs.fetchUntil)
			if rs.ref {
				to = rs.now + 1
			}
			for i := 1; i < len(rs.cores); i++ {
				rs.chargeSpan(i, stats.TMRollback, rs.now, to)
			}
			s := clamp(cs.stallUntil, rs.now, to)
			rs.chargeSpan(0, cs.stallKind, rs.now, s)
			rs.chargeSpan(0, stats.IStall, s, to)
			rs.now = to
			if rs.ref {
				if err := rs.watchdog(); err != nil {
					return err
				}
			}
			continue
		}
		for i := 1; i < len(rs.cores); i++ {
			rs.charge(i, stats.TMRollback)
		}
		in := &cr.Fallback[cs.pc]
		cs.issuedBranch, cs.halted = false, false
		if err := rs.execInst(cs, in, false); err != nil {
			return err
		}
		rs.charge(0, stats.Busy)
		rs.lastProg = rs.now
		switch {
		case cs.halted:
			rs.now++
			return nil
		case cs.issuedBranch && cs.branchTaken:
			idx, ok := cr.lookupFallbackLabel(int64(cs.get(in.Src1)))
			if !ok {
				return fmt.Errorf("fallback: branch to unknown block %d", cs.get(in.Src1))
			}
			rs.setPC(cs, idx)
		default:
			rs.setPC(cs, cs.pc+1)
		}
		rs.now++
		if rs.ref {
			if err := rs.watchdog(); err != nil {
				return err
			}
		}
	}
}

// ---------- shared instruction semantics ----------

// checkOperands enforces the static-schedule contract: every source
// register must be ready when an instruction issues. A violation is a
// compiler bug, reported as a simulation error. The checks are unrolled
// over Src1/Src2 so the hot path never materializes an operand slice.
func (rs *runState) checkOperands(cs *coreState, in *isa.Inst) error {
	if in.Src1.Valid() {
		if rdy := cs.readyAt(in.Src1); rdy > rs.now {
			return rs.scheduleViolation(cs, in, in.Src1, rdy)
		}
	}
	if in.Src2.Valid() {
		if rdy := cs.readyAt(in.Src2); rdy > rs.now {
			return rs.scheduleViolation(cs, in, in.Src2, rdy)
		}
	}
	return nil
}

func (rs *runState) scheduleViolation(cs *coreState, in *isa.Inst, r isa.Reg, rdy int64) error {
	return fmt.Errorf("cycle %d core %d: %v reads %v ready at %d (schedule violation)",
		rs.now, cs.id, in, r, rdy)
}

// execInst executes one instruction's semantics at the current cycle.
// Coupled-only operations (GET) and decoupled-only ones (SEND/RECV/SPAWN)
// are enforced by mode. The body is written without closures or slice
// construction: it runs once per issued instruction and must not allocate.
func (rs *runState) execInst(cs *coreState, in *isa.Inst, coupled bool) error {
	if err := rs.checkOperands(cs, in); err != nil {
		return err
	}
	switch in.Op {
	case isa.NOP, isa.MODESWITCH:
	case isa.MOVI:
		cs.set(in.Dst, uint64(in.Imm), rs.now+int64(in.Op.Latency()))
	case isa.MOV:
		cs.set(in.Dst, cs.get(in.Src1), rs.now+int64(in.Op.Latency()))
	case isa.FMOVI:
		cs.set(in.Dst, math.Float64bits(in.F), rs.now+int64(in.Op.Latency()))
	case isa.FMOV:
		cs.set(in.Dst, cs.get(in.Src1), rs.now+int64(in.Op.Latency()))
	case isa.ADD, isa.SUB, isa.MUL, isa.DIV, isa.REM,
		isa.AND, isa.OR, isa.XOR, isa.SHL, isa.SHR:
		a := int64(cs.get(in.Src1))
		b := in.Imm
		if in.Src2.Valid() {
			b = int64(cs.get(in.Src2))
		}
		var v int64
		switch in.Op {
		case isa.ADD:
			v = a + b
		case isa.SUB:
			v = a - b
		case isa.MUL:
			v = a * b
		case isa.DIV:
			if b != 0 {
				v = a / b
			}
		case isa.REM:
			if b != 0 {
				v = a % b
			}
		case isa.AND:
			v = a & b
		case isa.OR:
			v = a | b
		case isa.XOR:
			v = a ^ b
		case isa.SHL:
			v = a << (uint64(b) & 63)
		case isa.SHR:
			v = a >> (uint64(b) & 63)
		}
		cs.set(in.Dst, uint64(v), rs.now+int64(in.Op.Latency()))
	case isa.FADD, isa.FSUB, isa.FMUL, isa.FDIV:
		a := math.Float64frombits(cs.get(in.Src1))
		b := math.Float64frombits(cs.get(in.Src2))
		var v float64
		switch in.Op {
		case isa.FADD:
			v = a + b
		case isa.FSUB:
			v = a - b
		case isa.FMUL:
			v = a * b
		case isa.FDIV:
			v = a / b
		}
		cs.set(in.Dst, math.Float64bits(v), rs.now+int64(in.Op.Latency()))
	case isa.ITOF:
		cs.set(in.Dst, math.Float64bits(float64(int64(cs.get(in.Src1)))), rs.now+int64(in.Op.Latency()))
	case isa.FTOI:
		cs.set(in.Dst, uint64(int64(math.Float64frombits(cs.get(in.Src1)))), rs.now+int64(in.Op.Latency()))
	case isa.CMPEQ, isa.CMPNE, isa.CMPLT, isa.CMPLE, isa.CMPGT, isa.CMPGE:
		a := int64(cs.get(in.Src1))
		b := in.Imm
		if in.Src2.Valid() {
			b = int64(cs.get(in.Src2))
		}
		var v bool
		switch in.Op {
		case isa.CMPEQ:
			v = a == b
		case isa.CMPNE:
			v = a != b
		case isa.CMPLT:
			v = a < b
		case isa.CMPLE:
			v = a <= b
		case isa.CMPGT:
			v = a > b
		case isa.CMPGE:
			v = a >= b
		}
		cs.setPred(in.Dst, v, rs.now+1)
	case isa.FCMPLT:
		cs.setPred(in.Dst, math.Float64frombits(cs.get(in.Src1)) < math.Float64frombits(cs.get(in.Src2)), rs.now+1)
	case isa.PAND:
		cs.setPred(in.Dst, cs.get(in.Src1) != 0 && cs.get(in.Src2) != 0, rs.now+1)
	case isa.POR:
		cs.setPred(in.Dst, cs.get(in.Src1) != 0 || cs.get(in.Src2) != 0, rs.now+1)
	case isa.PNOT:
		cs.setPred(in.Dst, cs.get(in.Src1) == 0, rs.now+1)
	case isa.LOAD, isa.FLOAD:
		addr := int64(cs.get(in.Src1)) + in.Imm
		v, done := rs.sys.Read(cs.id, addr, rs.now)
		cs.set(in.Dst, v, done)
		// Blocking cache: the miss portion stalls the core; the hit
		// latency is covered by the schedule.
		hit := rs.sys.Cfg.L1D.HitLat
		if done > rs.now+hit {
			cs.stallUntil = done - hit + 1
			cs.stallKind = stats.DStall
		}
	case isa.STORE, isa.FSTORE:
		// Stores retire through a store buffer: the write updates cache
		// state and occupies the bus, but the core does not stall on the
		// miss/upgrade latency.
		addr := int64(cs.get(in.Src1)) + in.Imm
		rs.sys.Write(cs.id, addr, rs.now, cs.get(in.Src2))
	case isa.PBR:
		cs.set(in.Dst, uint64(in.Imm), rs.now+1)
	case isa.BR:
		cs.issuedBranch = true
		cs.branchTaken = true
		if in.Src2.Valid() {
			cs.branchTaken = cs.get(in.Src2) != 0
		}
	case isa.HALT:
		cs.halted = true
	case isa.GETOP:
		if !coupled {
			return fmt.Errorf("core %d: GET in decoupled mode", cs.id)
		}
		v, err := rs.direct.Get(cs.id, in.Dir)
		if err != nil {
			return err
		}
		if rs.tr != nil {
			rs.tr.Get(rs.now, cs.id, in.Dir)
		}
		cs.set(in.Dst, v, rs.now+1)
	case isa.PUT:
		// Handled in phase A of the coupled loop; reaching here means a
		// PUT leaked into decoupled code.
		return fmt.Errorf("core %d: PUT in decoupled mode", cs.id)
	case isa.SEND:
		if coupled {
			return fmt.Errorf("core %d: SEND in coupled mode", cs.id)
		}
		seq, arrive := rs.queue.Send(cs.id, in.Core, cs.get(in.Src1), rs.now)
		if rs.tr != nil {
			rs.tr.Send(rs.now, cs.id, int(in.Core), seq, arrive)
		}
		rs.notifyArrive(int(in.Core), arrive)
	case isa.BCAST:
		if coupled {
			return nil // phase A already drove the wires
		}
		// Decoupled broadcast is lowered to SENDs by the compiler; a BCAST
		// here sends to every other core.
		for c := 0; c < rs.m.cfg.Cores; c++ {
			if c != cs.id {
				seq, arrive := rs.queue.Send(cs.id, c, cs.get(in.Src1), rs.now)
				if rs.tr != nil {
					rs.tr.Send(rs.now, cs.id, c, seq, arrive)
				}
				rs.notifyArrive(c, arrive)
			}
		}
	case isa.SPAWN:
		if coupled {
			return fmt.Errorf("core %d: SPAWN in coupled mode", cs.id)
		}
		seq, arrive := rs.queue.SendSpawn(cs.id, in.Core, uint64(in.Imm), rs.now)
		if rs.tr != nil {
			rs.tr.Spawn(rs.now, cs.id, int(in.Core), seq, arrive)
		}
		rs.notifyArrive(int(in.Core), arrive)
	case isa.SLEEP:
		if coupled {
			return fmt.Errorf("core %d: SLEEP in coupled mode", cs.id)
		}
		// State change handled by the caller.
	case isa.TXBEGIN:
		rs.sys.TM.Begin(cs.id, int(in.Imm))
		cs.txactive = true
		if rs.tr != nil {
			rs.tr.TxBegin(rs.now, cs.id, int64(in.Imm))
		}
	case isa.TXCOMMIT:
		if !cs.txactive {
			return fmt.Errorf("core %d: TXCOMMIT without TXBEGIN", cs.id)
		}
		cs.txwait = true
		if rs.sched != nil {
			rs.sched.txWait++
		}
	case isa.TXABORT:
		return fmt.Errorf("core %d: explicit TXABORT is not emitted by the compiler", cs.id)
	default:
		return fmt.Errorf("core %d: cannot execute %v", cs.id, in)
	}
	return nil
}

// watchdog is the reference stepper's progress bound: abort when no core
// made progress for Config.Watchdog consecutive cycles.
func (rs *runState) watchdog() error {
	if rs.now-rs.lastProg > rs.m.cfg.Watchdog {
		return fmt.Errorf("deadlock: no progress since cycle %d (now %d):%s", rs.lastProg, rs.now, rs.coreDump())
	}
	return nil
}

// deadlock is the event-driven watchdog: the decoupled loop proved that no
// core issued this cycle and no wake event is scheduled, so the machine
// state can never change again. Unlike the cycle-counting watchdog this
// trips exactly at the freeze point and can neither be masked nor falsely
// triggered by cycle skipping.
func (rs *runState) deadlock() error {
	return fmt.Errorf("deadlock: no core can issue and no wake event is scheduled (frozen at cycle %d, last progress %d):%s",
		rs.now, rs.lastProg, rs.coreDump())
}

func (rs *runState) coreDump() string {
	var dump string
	for _, cs := range rs.cores {
		dump += fmt.Sprintf(" core%d{pc=%d awake=%v done=%v txwait=%v}",
			cs.id, cs.pc, cs.awake, cs.done, cs.txwait)
	}
	return dump
}
