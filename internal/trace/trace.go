// Package trace implements structured timeline tracing for the simulator:
// a low-overhead event collector threaded through the core's execution
// loops (per-core stall spans, typed events for operand-network and
// queue-network traffic, spawn/sleep transitions, stall-bus releases, cache
// miss fills, transactions, and region/mode boundaries) plus renderers over
// the collected stream — Chrome trace-event JSON (loadable in Perfetto) and
// an aggregated stall-attribution report (cycles by cause, per core and per
// region).
//
// The collector is a concrete struct, not an interface: emit calls are
// direct appends into a flat event slice, so a traced run's per-event cost
// is a bounds check and a copy, and an untraced run's cost is a single nil
// check at each emit site (enforced by the core package's allocation guard).
package trace

import (
	"voltron/internal/isa"
	"voltron/internal/stats"
)

// Kind classifies one trace event.
type Kind uint8

// Event kinds. Field usage per kind is documented on Event.
const (
	KindRegionBegin Kind = iota
	KindRegionEnd
	KindStall        // a span of non-busy cycles with a cause
	KindStallRelease // coupled mode: the stall bus released all cores
	KindPut          // direct-mode operand transfer driven
	KindGet          // direct-mode operand transfer consumed
	KindBcast        // direct-mode broadcast driven
	KindSend         // queue-mode message enqueued
	KindRecv         // queue-mode message consumed
	KindSpawn        // thread-start message enqueued
	KindWake         // sleeping core woken by a spawn message
	KindSleep        // core issued SLEEP
	KindCacheMiss    // an L1 miss and its fill window
	KindTxBegin      // transaction opened
	KindTxCommit     // transaction committed at the barrier
	KindTxAbort      // transaction aborted (DOALL violation)
)

// String names the kind as rendered in trace output.
func (k Kind) String() string {
	switch k {
	case KindRegionBegin:
		return "region-begin"
	case KindRegionEnd:
		return "region-end"
	case KindStall:
		return "stall"
	case KindStallRelease:
		return "stall-release"
	case KindPut:
		return "PUT"
	case KindGet:
		return "GET"
	case KindBcast:
		return "BCAST"
	case KindSend:
		return "SEND"
	case KindRecv:
		return "RECV"
	case KindSpawn:
		return "SPAWN"
	case KindWake:
		return "WAKE"
	case KindSleep:
		return "SLEEP"
	case KindCacheMiss:
		return "miss"
	case KindTxBegin:
		return "TXBEGIN"
	case KindTxCommit:
		return "TXCOMMIT"
	case KindTxAbort:
		return "TXABORT"
	}
	return "kind?"
}

// Miss classifies a KindCacheMiss event (the Aux field).
const (
	MissL1DRead = iota
	MissL1DWrite
	MissL1I
)

// missNames renders the Aux field of a KindCacheMiss event.
var missNames = [...]string{"L1D-read", "L1D-write", "L1I"}

// Event is one timeline record. The overloaded fields hold, per kind:
//
//	RegionBegin   Name (region), Detail (mode)
//	RegionEnd     —
//	Stall         Dur (cycles), Aux (stats.Kind cause)
//	StallRelease  Dur (window length; 0 when unknown under the reference stepper)
//	Put/Get/Bcast Aux (isa.Direction; -1 for Bcast)
//	Send/Spawn    Aux (target core), Arg (message seq), Dur (network latency)
//	Recv/Wake     Aux (sender core; -1 when unknown), Arg (message seq)
//	Sleep         —
//	CacheMiss     Aux (Miss*), Arg (address), Dur (total access latency)
//	Tx*           Arg (chunk id for TxBegin, else 0)
type Event struct {
	Cycle  int64
	Dur    int64
	Arg    int64
	Name   string
	Detail string
	Region int32
	Aux    int32
	Core   int16
	Kind   Kind
}

// MachineCore marks machine-wide events (region boundaries, stall-bus
// releases) that belong to no single core.
const MachineCore = int16(-1)

// regionAgg is one region's stall attribution: cycles by cause, per core.
type regionAgg struct {
	name       string
	mode       string
	start, end int64
	// cycles is indexed core*stats.NumKinds + kind.
	cycles []int64
}

// Tracer collects the structured event stream of one simulation run. It is
// not safe for concurrent use — attach one Tracer per Machine, like the
// Machine itself. Reuse across runs requires Reset.
type Tracer struct {
	Events []Event

	cores   int
	regions []regionAgg
	cur     int32 // index of the open region, -1 outside any region
}

// New creates an empty tracer.
func New() *Tracer { return &Tracer{cur: -1} }

// Reset clears the tracer for reuse, keeping the event backing array.
func (t *Tracer) Reset() {
	t.Events = t.Events[:0]
	t.regions = t.regions[:0]
	t.cur = -1
	t.cores = 0
}

// emit appends one event stamped with the open region.
func (t *Tracer) emit(e Event) {
	e.Region = t.cur
	t.Events = append(t.Events, e)
}

// RegionBegin opens a region: events and charges that follow attribute to
// it until the matching RegionEnd.
func (t *Tracer) RegionBegin(cycle int64, name, mode string, cores int) {
	if cores > t.cores {
		t.cores = cores
	}
	t.regions = append(t.regions, regionAgg{
		name: name, mode: mode, start: cycle, end: cycle,
		cycles: make([]int64, cores*stats.NumKinds),
	})
	t.cur = int32(len(t.regions) - 1)
	t.emit(Event{Cycle: cycle, Kind: KindRegionBegin, Core: MachineCore, Name: name, Detail: mode})
}

// RegionEnd closes the open region.
func (t *Tracer) RegionEnd(cycle int64) {
	if t.cur >= 0 {
		t.regions[t.cur].end = cycle
	}
	t.emit(Event{Cycle: cycle, Kind: KindRegionEnd, Core: MachineCore})
	t.cur = -1
}

// Charge attributes n cycles of kind k to a core, starting at cycle from.
// Busy cycles update the attribution counters only; every other kind also
// records a stall span event.
func (t *Tracer) Charge(from int64, core int, k stats.Kind, n int64) {
	if n <= 0 {
		return
	}
	if t.cur >= 0 {
		t.regions[t.cur].cycles[core*stats.NumKinds+int(k)] += n
	}
	if k != stats.Busy {
		t.emit(Event{Cycle: from, Dur: n, Kind: KindStall, Core: int16(core), Aux: int32(k)})
	}
}

// StallRelease records the coupled-mode stall bus releasing all cores at
// cycle, after a window of dur stalled cycles (0 when the window length is
// unknown, as under the per-cycle reference stepper).
func (t *Tracer) StallRelease(cycle, dur int64) {
	t.emit(Event{Cycle: cycle, Dur: dur, Kind: KindStallRelease, Core: MachineCore})
}

// Put records a direct-mode operand transfer driven toward dir.
func (t *Tracer) Put(cycle int64, core int, dir isa.Direction) {
	t.emit(Event{Cycle: cycle, Kind: KindPut, Core: int16(core), Aux: int32(dir)})
}

// Get records a direct-mode operand transfer consumed from dir.
func (t *Tracer) Get(cycle int64, core int, dir isa.Direction) {
	t.emit(Event{Cycle: cycle, Kind: KindGet, Core: int16(core), Aux: int32(dir)})
}

// Bcast records a direct-mode broadcast.
func (t *Tracer) Bcast(cycle int64, core int) {
	t.emit(Event{Cycle: cycle, Kind: KindBcast, Core: int16(core), Aux: -1})
}

// Send records a queue-mode message enqueue toward core `to`, arriving at
// arriveAt, carrying the network sequence number seq.
func (t *Tracer) Send(cycle int64, core, to int, seq, arriveAt int64) {
	t.emit(Event{Cycle: cycle, Dur: arriveAt - cycle, Arg: seq, Kind: KindSend, Core: int16(core), Aux: int32(to)})
}

// Recv records a successful queue-mode receive of message seq from core
// `from`.
func (t *Tracer) Recv(cycle int64, core, from int, seq int64) {
	t.emit(Event{Cycle: cycle, Arg: seq, Kind: KindRecv, Core: int16(core), Aux: int32(from)})
}

// Spawn records a thread-start message enqueue toward core `to`.
func (t *Tracer) Spawn(cycle int64, core, to int, seq, arriveAt int64) {
	t.emit(Event{Cycle: cycle, Dur: arriveAt - cycle, Arg: seq, Kind: KindSpawn, Core: int16(core), Aux: int32(to)})
}

// Wake records a sleeping core woken by spawn message seq.
func (t *Tracer) Wake(cycle int64, core int, seq int64) {
	t.emit(Event{Cycle: cycle, Arg: seq, Kind: KindWake, Core: int16(core), Aux: -1})
}

// Sleep records a core issuing SLEEP.
func (t *Tracer) Sleep(cycle int64, core int) {
	t.emit(Event{Cycle: cycle, Kind: KindSleep, Core: int16(core)})
}

// CacheMiss records an L1 miss (what = Miss*) at addr whose fill completes
// after dur cycles.
func (t *Tracer) CacheMiss(cycle int64, core, what int, addr, dur int64) {
	t.emit(Event{Cycle: cycle, Dur: dur, Arg: addr, Kind: KindCacheMiss, Core: int16(core), Aux: int32(what)})
}

// TxBegin records a transaction opening for chunk id.
func (t *Tracer) TxBegin(cycle int64, core int, chunk int64) {
	t.emit(Event{Cycle: cycle, Arg: chunk, Kind: KindTxBegin, Core: int16(core)})
}

// TxCommit records a transaction committing at the barrier.
func (t *Tracer) TxCommit(cycle int64, core int) {
	t.emit(Event{Cycle: cycle, Kind: KindTxCommit, Core: int16(core)})
}

// TxAbort records a transaction aborting (DOALL dependence violation).
func (t *Tracer) TxAbort(cycle int64, core int) {
	t.emit(Event{Cycle: cycle, Kind: KindTxAbort, Core: int16(core)})
}

// Cores returns the machine width observed by the tracer.
func (t *Tracer) Cores() int { return t.cores }
