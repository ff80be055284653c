package mem

// Low-cost transactional memory for speculative execution of statistical
// DOALL loops (paper §3, citing Herlihy & Moss). Iteration chunks run as
// transactions, one per core; the hardware watches coherence traffic for
// cross-core memory dependences and rolls back memory state on violation.
// Register rollback is the compiler's job (it re-materializes live-ins when
// re-executing a chunk), exactly as in the paper.
//
// Conflict policy: chunks are ordered by the loop iterations they execute;
// the conflicting transaction with the *later* chunk order aborts, so the
// logically earliest iterations always make progress (forward progress is
// guaranteed — re-execution is serial in the worst case).
//
// Like a cache's per-line speculative read/write bits, the read and write
// sets are kept per memory word: one bitmask pair with a bit per core, so
// a conflict check is two word loads instead of a probe of every other
// core's sets.

import (
	"fmt"
	"math/bits"
)

// txState tracks one core's active transaction. Its read and write sets
// live in TM.masks; reads lists the words it set a read bit on and the undo
// log the words it set a write bit on, so Begin and Reset clear exactly the
// bits this core owns.
type txState struct {
	active   bool
	order    int // chunk order for conflict arbitration
	reads    []int
	undoAddr []int64
	undoVal  []uint64
	aborted  bool
}

// wordMask holds, for one memory word, a bit per core whose current (or
// last, until its next Begin) transaction read or wrote that word.
type wordMask struct{ rd, wr uint64 }

// maxTMCores is the widest machine one uint64 bit per core can track.
const maxTMCores = 64

// TM is the machine-wide transactional memory.
type TM struct {
	tx        []txState
	masks     WordTable[wordMask] // the read/write sets of every core
	conflicts int64
	// aborted counts cores whose live transaction is marked aborted (an
	// aborted transaction stays active until Abort or Begin).
	aborted int
}

// NewTM creates TM state for n cores.
func NewTM(n int) *TM {
	if n > maxTMCores {
		panic(fmt.Sprintf("mem: TM tracks at most %d cores, got %d", maxTMCores, n))
	}
	return &TM{tx: make([]txState, n)}
}

// Reset restores NewTM's initial state while keeping the mask pages and
// each core's read list and undo-log backing arrays — the same allocations
// Begin recycles within a run are worth keeping across pooled-machine runs.
func (tm *TM) Reset() {
	tm.conflicts, tm.aborted = 0, 0
	for i := range tm.tx {
		tm.clearSets(i)
		t := &tm.tx[i]
		t.active, t.aborted = false, false
		t.order = 0
	}
}

// clearSets drops core's bits from the word masks and empties its read
// list and undo log.
func (tm *TM) clearSets(core int) {
	t := &tm.tx[core]
	bit := uint64(1) << core
	for _, w := range t.reads {
		tm.masks.At(w).rd &^= bit
	}
	for _, addr := range t.undoAddr {
		tm.masks.At(int(addr >> 3)).wr &^= bit
	}
	t.reads, t.undoAddr, t.undoVal = t.reads[:0], t.undoAddr[:0], t.undoVal[:0]
}

// Begin starts a transaction on core with the given chunk order. The read
// list and undo log are recycled across transactions on the same core
// (chunked DOALL loops begin one transaction per chunk, so fresh
// allocations here would dominate the TM cost).
func (tm *TM) Begin(core, order int) {
	tm.clearSets(core)
	t := &tm.tx[core]
	if t.aborted {
		tm.aborted--
	}
	t.active, t.aborted = true, false
	t.order = order
}

// Active reports whether core has a live transaction.
func (tm *TM) Active(core int) bool { return tm.tx[core].active }

// Aborted reports whether core's transaction has been marked for abort by a
// conflict.
func (tm *TM) Aborted(core int) bool { return tm.tx[core].aborted }

// Conflicts returns the total number of detected violations.
func (tm *TM) Conflicts() int64 { return tm.conflicts }

// OnRead records a transactional read and detects read-after-write
// conflicts with other active transactions.
func (tm *TM) OnRead(core int, addr int64) {
	t := &tm.tx[core]
	if !t.active || t.aborted {
		return
	}
	m := tm.masks.At(int(addr >> 3)) // the System has bounds-checked addr
	bit := uint64(1) << core
	if m.rd&bit == 0 {
		m.rd |= bit
		t.reads = append(t.reads, int(addr>>3))
	}
	tm.resolveAll(core, m.wr&^bit)
}

// OnWrite records a transactional write (with the old value for rollback)
// and detects write-after-read / write-after-write conflicts.
func (tm *TM) OnWrite(core int, addr int64, old uint64) {
	t := &tm.tx[core]
	if !t.active || t.aborted {
		return
	}
	m := tm.masks.At(int(addr >> 3))
	bit := uint64(1) << core
	if m.wr&bit == 0 {
		m.wr |= bit
		t.undoAddr = append(t.undoAddr, addr)
		t.undoVal = append(t.undoVal, old)
	}
	tm.resolveAll(core, (m.wr|m.rd)&^bit)
}

// resolveAll arbitrates core's access against every core in others whose
// transaction is live and not yet aborted, in ascending core order. The
// filter is applied as each core is reached, so an abort decided earlier
// in the walk is seen by the later checks.
func (tm *TM) resolveAll(core int, others uint64) {
	for others != 0 {
		i := bits.TrailingZeros64(others)
		others &= others - 1
		if o := &tm.tx[i]; o.active && !o.aborted {
			tm.resolve(core, i)
		}
	}
}

// resolve aborts the later-ordered of two conflicting transactions.
func (tm *TM) resolve(a, b int) {
	tm.conflicts++
	loser := &tm.tx[b]
	if tm.tx[a].order >= tm.tx[b].order {
		loser = &tm.tx[a]
	}
	if !loser.aborted {
		loser.aborted = true
		tm.aborted++
	}
}

// Commit ends core's transaction, making its writes permanent. Returns
// false (and rolls back nothing) if the transaction was marked aborted —
// the caller must then roll back with Abort.
func (tm *TM) Commit(core int) bool {
	t := &tm.tx[core]
	if t.aborted {
		return false
	}
	t.active = false
	return true
}

// Abort rolls back core's transactional writes in reverse order and ends
// the transaction.
func (tm *TM) Abort(core int, flat *Flat) {
	t := &tm.tx[core]
	for i := len(t.undoAddr) - 1; i >= 0; i-- {
		flat.StoreW(t.undoAddr[i], t.undoVal[i])
	}
	if t.aborted {
		tm.aborted--
	}
	t.active, t.aborted = false, false
}

// AbortAll rolls back every active transaction; used when a violation
// forces serial re-execution of a chunked loop.
func (tm *TM) AbortAll(flat *Flat) {
	for i := range tm.tx {
		if tm.tx[i].active {
			tm.Abort(i, flat)
		}
	}
}

// AnyAborted reports whether any active transaction is marked aborted.
func (tm *TM) AnyAborted() bool { return tm.aborted > 0 }

// anyActive reports whether any core has a live transaction.
func (tm *TM) anyActive() bool {
	for i := range tm.tx {
		if tm.tx[i].active {
			return true
		}
	}
	return false
}
