package mem

import (
	"fmt"
	"slices"

	"voltron/internal/trace"
)

// The memory system: per-core private L1 I and D caches kept coherent by a
// bus-based snooping MOESI protocol, over a shared banked L2 and main
// memory — the organization the paper evaluates (§5.1). The model is
// timing-and-coherence: data lives in the functional Flat store; the tag
// pipeline produces access latencies, bus serialization and coherence
// transitions.

// Config holds the memory-system parameters (defaults per the paper).
type Config struct {
	Cores  int
	L1D    CacheCfg
	L1I    CacheCfg
	L2     CacheCfg
	L2Lat  int64 // L2 access latency
	MemLat int64 // main-memory latency
	BusLat int64 // per bus transaction (snoop/transfer) overhead
	// C2CLat is the latency of a cache-to-cache transfer on the bus.
	C2CLat int64
	// L2Banks is the number of independent L2 banks (the paper's L2 is
	// banked): accesses to different banks overlap, same-bank accesses
	// serialize.
	L2Banks int
}

// DefaultConfig returns the paper's memory parameters for n cores: 4 kB
// 2-way L1 I and D, shared 128 kB 4-way L2.
func DefaultConfig(n int) Config {
	return Config{
		Cores:   n,
		L1D:     CacheCfg{SizeBytes: 4 << 10, Assoc: 2, LineBytes: 64, HitLat: 2},
		L1I:     CacheCfg{SizeBytes: 4 << 10, Assoc: 2, LineBytes: 64, HitLat: 1},
		L2:      CacheCfg{SizeBytes: 128 << 10, Assoc: 4, LineBytes: 64, HitLat: 10},
		L2Lat:   10,
		MemLat:  100,
		BusLat:  3,
		C2CLat:  8,
		L2Banks: 4,
	}
}

// Stats counts memory-system events.
type Stats struct {
	L1DHits, L1DMisses   []int64
	L1IHits, L1IMisses   []int64
	L2Hits, L2Misses     int64
	C2CTransfers         int64
	Invalidations        int64
	Writebacks           int64
	BusTransactions      int64
	UpgradeTransactions  int64
	TransactionConflicts int64
}

// System is the shared memory hierarchy of one simulated machine.
type System struct {
	Cfg  Config
	Flat *Flat
	TM   *TM
	// Tracer, when non-nil, receives one typed event per L1 miss (read,
	// write, fetch) with the fill window. Nil tracing costs one branch per
	// miss — never one per access.
	Tracer *trace.Tracer

	l1d []*cache
	l1i []*cache
	l2  *cache
	// all lists every cache in snapshot order: each L1D, each L1I, the L2.
	all []*cache
	// lastFetch[core] holds the addresses of the L1I line the core
	// fetched last (see Fetch).
	lastFetch []addrRange

	busFreeAt int64
	// bankFreeAt serializes same-bank L2 accesses.
	bankFreeAt []int64
	St         Stats
}

// NewSystem builds the hierarchy over a functional backing store.
func NewSystem(cfg Config, flat *Flat) *System {
	s := &System{Cfg: cfg, Flat: flat}
	for i := 0; i < cfg.Cores; i++ {
		s.l1d = append(s.l1d, newCache(cfg.L1D))
		s.l1i = append(s.l1i, newCache(cfg.L1I))
	}
	s.l2 = newCache(cfg.L2)
	s.all = append(append(append(s.all, s.l1d...), s.l1i...), s.l2)
	s.lastFetch = make([]addrRange, cfg.Cores)
	banks := cfg.L2Banks
	if banks < 1 {
		banks = 1
	}
	s.bankFreeAt = make([]int64, banks)
	s.St.L1DHits = make([]int64, cfg.Cores)
	s.St.L1DMisses = make([]int64, cfg.Cores)
	s.St.L1IHits = make([]int64, cfg.Cores)
	s.St.L1IMisses = make([]int64, cfg.Cores)
	s.TM = NewTM(cfg.Cores)
	return s
}

// Reset reinstates NewSystem's initial state over a new backing store,
// reusing the allocated cache tag arrays, bank table and TM sets — this is
// Machine.Reset's path for pooled machines, so it must leave the hierarchy
// byte-identical to a fresh one. The per-core stat slices are reallocated
// rather than cleared in place: a RunResult holds a by-value copy of Stats
// whose slices alias these, and a prior run's retained copy must stay
// frozen after the machine is reused.
func (s *System) Reset(flat *Flat) {
	s.Flat = flat
	s.Tracer = nil
	for _, c := range s.all {
		c.reset()
	}
	clear(s.lastFetch)
	s.busFreeAt = 0
	clear(s.bankFreeAt)
	s.St = Stats{
		L1DHits:   make([]int64, s.Cfg.Cores),
		L1DMisses: make([]int64, s.Cfg.Cores),
		L1IHits:   make([]int64, s.Cfg.Cores),
		L1IMisses: make([]int64, s.Cfg.Cores),
	}
	s.TM.Reset()
}

// acquireBus serializes bus transactions: the transaction starts no earlier
// than now and the bus being free, and holds the bus for dur cycles. It
// returns the completion time.
func (s *System) acquireBus(now, dur int64) int64 {
	start := now
	if s.busFreeAt > start {
		start = s.busFreeAt
	}
	s.busFreeAt = start + dur
	s.St.BusTransactions++
	return start + dur
}

// l2BankBusy is the per-access bank occupancy (pipelined banks).
const l2BankBusy = 2

// l2Access models a banked L2 lookup (and fill on miss); the request
// serializes behind earlier accesses to the same bank (line-interleaved
// banking), then pays the L2 latency and, on a miss, the memory latency.
func (s *System) l2Access(addr, start int64) int64 {
	bank := (addr / s.Cfg.L2.LineBytes) % int64(len(s.bankFreeAt))
	if s.bankFreeAt[bank] > start {
		start = s.bankFreeAt[bank]
	}
	var done int64
	if i := s.l2.find(addr); i >= 0 {
		s.l2.touchIdx(i)
		s.St.L2Hits++
		done = start + s.Cfg.L2Lat
	} else {
		s.St.L2Misses++
		vs, _ := s.l2.fill(addr, modified) // L2 lines: valid/dirty folded into M
		if vs == modified || vs == owned {
			s.St.Writebacks++
		}
		done = start + s.Cfg.L2Lat + s.Cfg.MemLat
	}
	// Banks are pipelined: each access occupies its bank for the array
	// access slot only, not the full latency.
	s.bankFreeAt[bank] = start + l2BankBusy
	return done
}

// Read performs a data read by core at time now; the returned doneAt is the
// cycle the value is available (>= now + L1 hit latency). The word value
// comes from the functional store.
func (s *System) Read(core int, addr, now int64) (val uint64, doneAt int64) {
	val = s.Flat.LoadW(addr)
	s.TM.OnRead(core, addr)
	c := s.l1d[core]
	if i := c.find(addr); i >= 0 {
		c.touchIdx(i)
		s.St.L1DHits[core]++
		return val, now + c.cfg.HitLat
	}
	s.St.L1DMisses[core]++
	// Bus transaction: snoop other L1s (one tag scan per snooped cache).
	t := s.acquireBus(now, s.Cfg.BusLat)
	ownerFound := false
	sharerFound := false
	for i, o := range s.l1d {
		if i == core {
			continue
		}
		li := o.find(addr)
		if li < 0 {
			continue
		}
		switch o.lines[li].state {
		case modified, owned, exclusive:
			ownerFound = true
			// Owner supplies the line and degrades: M/E -> O keeps the
			// dirty data supplier role (MOESI); E -> S would also be legal,
			// we use O uniformly for suppliers of non-clean lines.
			if o.lines[li].state == exclusive {
				o.lines[li].state = shared
			} else {
				o.lines[li].state = owned
			}
		case shared:
			sharerFound = true
		}
	}
	var fillState lineState
	switch {
	case ownerFound:
		s.St.C2CTransfers++
		t += s.Cfg.C2CLat
		fillState = shared
	case sharerFound:
		t = s.l2Access(addr, t)
		fillState = shared
	default:
		t = s.l2Access(addr, t)
		fillState = exclusive
	}
	s.fillL1D(core, addr, fillState)
	if s.Tracer != nil {
		s.Tracer.CacheMiss(now, core, trace.MissL1DRead, addr, t+c.cfg.HitLat-now)
	}
	return val, t + c.cfg.HitLat
}

// Write performs a data write by core at time now, returning the completion
// cycle. The functional store is updated immediately (program order within
// a core; cross-core ordering is the compiler's synchronization problem,
// exactly as on the real machine).
func (s *System) Write(core int, addr, now int64, val uint64) (doneAt int64) {
	s.TM.OnWrite(core, addr, s.Flat.LoadW(addr))
	s.Flat.StoreW(addr, val)
	c := s.l1d[core]
	if li := c.find(addr); li >= 0 {
		switch c.lines[li].state {
		case modified:
			c.touchIdx(li)
			s.St.L1DHits[core]++
			return now + c.cfg.HitLat
		case exclusive:
			c.lines[li].state = modified
			c.touchIdx(li)
			s.St.L1DHits[core]++
			return now + c.cfg.HitLat
		default: // shared, owned
			// Upgrade: invalidate other copies over the bus.
			t := s.acquireBus(now, s.Cfg.BusLat)
			s.St.UpgradeTransactions++
			s.invalidateOthers(core, addr)
			c.lines[li].state = modified
			c.touchIdx(li)
			s.St.L1DHits[core]++
			return t + c.cfg.HitLat
		}
	}
	// Write miss: read-for-ownership. One scan per snooped cache detects the
	// owner and invalidates in the same pass.
	s.St.L1DMisses[core]++
	t := s.acquireBus(now, s.Cfg.BusLat)
	owner := false
	for i, o := range s.l1d {
		if i == core {
			continue
		}
		li := o.find(addr)
		if li < 0 {
			continue
		}
		if st := o.lines[li].state; st == modified || st == owned || st == exclusive {
			owner = true
		}
		o.lines[li].state = invalid
		s.St.Invalidations++
	}
	if owner {
		s.St.C2CTransfers++
		t += s.Cfg.C2CLat
	} else {
		t = s.l2Access(addr, t)
	}
	s.fillL1D(core, addr, modified)
	if s.Tracer != nil {
		s.Tracer.CacheMiss(now, core, trace.MissL1DWrite, addr, t+c.cfg.HitLat-now)
	}
	return t + c.cfg.HitLat
}

func (s *System) invalidateOthers(core int, addr int64) {
	for i, o := range s.l1d {
		if i == core {
			continue
		}
		if li := o.find(addr); li >= 0 {
			o.lines[li].state = invalid
			s.St.Invalidations++
		}
	}
}

func (s *System) fillL1D(core int, addr int64, st lineState) {
	vs, _ := s.l1d[core].fill(addr, st)
	if vs == modified || vs == owned {
		s.St.Writebacks++
		// Writeback occupies the bus briefly; folded into BusLat of the
		// next transaction for simplicity.
	}
}

// Fetch models an instruction fetch by core at time now and returns the
// cycle the instruction is available.
//
// A fetch from the core's previous line is a hit on that line, which is
// still the most recently used one in its set: only Fetch touches the
// private L1I. Skipping its LRU touch is exact, because the touch would
// only renew the newest stamp in the set, so every relative LRU order is
// unchanged. The fast path is then one range check and the hit counter.
func (s *System) Fetch(core int, addr, now int64) (doneAt int64) {
	if l := s.lastFetch[core]; uint64(addr-l.base) < uint64(l.size) {
		s.St.L1IHits[core]++
		return now + s.Cfg.L1I.HitLat
	}
	return s.fetchLine(core, addr, now)
}

// fetchLine is Fetch's path through the L1I tags; it records addr's line
// as the core's latest.
func (s *System) fetchLine(core int, addr, now int64) int64 {
	c := s.l1i[core]
	s.lastFetch[core] = c.lineRange(addr)
	if i := c.find(addr); i >= 0 {
		c.touchIdx(i)
		s.St.L1IHits[core]++
		return now + c.cfg.HitLat
	}
	s.St.L1IMisses[core]++
	t := s.l2Access(addr, now)
	c.fill(addr, shared)
	if s.Tracer != nil {
		s.Tracer.CacheMiss(now, core, trace.MissL1I, addr, t+c.cfg.HitLat-now)
	}
	return t + c.cfg.HitLat
}

// L1DState exposes a line's MOESI state for tests.
func (s *System) L1DState(core int, addr int64) string {
	return s.l1d[core].stateOf(addr).String()
}

// Snapshot is a System's state at a region boundary, taken by Save and
// reinstated by Restore: every cache's lines and LRU clock, the fetch
// fast path, the bus and bank timers, the event counters, the TM conflict
// count and the backing store's words. No transaction is live at a
// boundary, so no TM set or undo log is kept. Its buffers are reused by
// later saves: once they have grown to a machine's size, Save allocates
// nothing.
type Snapshot struct {
	cfg       Config
	lines     []line  // every L1D, then every L1I, then the L2
	ticks     []int64 // the caches' LRU clocks in the same order
	lastFetch []addrRange
	busFreeAt int64
	// bankFreeAt, then the per-core L1D hits, L1D misses, L1I hits and
	// L1I misses.
	counts    []int64
	st        Stats // scalar counters; the per-core ones live in counts
	conflicts int64
	words     []uint64
}

// Save copies the hierarchy's state into sn. It fails while a transaction
// is live: a snapshot is only defined at a region boundary.
func (s *System) Save(sn *Snapshot) error {
	if s.TM.anyActive() {
		return fmt.Errorf("mem: snapshot with a live transaction")
	}
	sn.cfg = s.Cfg
	n := 0
	for _, c := range s.all {
		n += len(c.lines)
	}
	sn.lines, sn.ticks = slices.Grow(sn.lines[:0], n), sn.ticks[:0]
	for _, c := range s.all {
		sn.lines = append(sn.lines, c.lines...)
		sn.ticks = append(sn.ticks, c.tick)
	}
	sn.lastFetch = append(sn.lastFetch[:0], s.lastFetch...)
	sn.busFreeAt = s.busFreeAt
	sn.counts = append(sn.counts[:0], s.bankFreeAt...)
	for _, v := range [][]int64{s.St.L1DHits, s.St.L1DMisses, s.St.L1IHits, s.St.L1IMisses} {
		sn.counts = append(sn.counts, v...)
	}
	sn.st = s.St
	sn.st.L1DHits, sn.st.L1DMisses, sn.st.L1IHits, sn.st.L1IMisses = nil, nil, nil, nil
	sn.conflicts = s.TM.conflicts
	sn.words = append(sn.words[:0], s.Flat.words...)
	return nil
}

// Words returns the size of the snapshot's backing store in words.
func (sn *Snapshot) Words() int64 { return int64(len(sn.words)) }

// Restore reinstates a snapshot taken on a System of the same
// configuration over a new backing store holding the snapshot's words,
// and returns that store. Like Reset it allocates fresh per-core stat
// slices, so a prior run's retained Stats stay frozen.
func (s *System) Restore(sn *Snapshot) *Flat {
	if sn.cfg != s.Cfg {
		panic("mem: snapshot of a different memory configuration")
	}
	s.Flat = &Flat{words: append([]uint64(nil), sn.words...)}
	s.Tracer = nil
	off := 0
	for k, c := range s.all {
		off += copy(c.lines, sn.lines[off:])
		c.tick = sn.ticks[k]
	}
	copy(s.lastFetch, sn.lastFetch)
	s.busFreeAt = sn.busFreeAt
	n := copy(s.bankFreeAt, sn.counts)
	s.St = sn.st
	for _, v := range []*[]int64{&s.St.L1DHits, &s.St.L1DMisses, &s.St.L1IHits, &s.St.L1IMisses} {
		*v = append([]int64(nil), sn.counts[n:n+s.Cfg.Cores]...)
		n += s.Cfg.Cores
	}
	s.TM.Reset()
	s.TM.conflicts = sn.conflicts
	return s.Flat
}
