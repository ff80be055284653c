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

// txState tracks one core's active transaction.
type txState struct {
	active   bool
	order    int // chunk order for conflict arbitration
	readSet  map[int64]bool
	writeSet map[int64]bool
	undoAddr []int64
	undoVal  []uint64
	aborted  bool
}

// TM is the machine-wide transactional memory.
type TM struct {
	tx        []txState
	conflicts int64
}

// NewTM creates TM state for n cores.
func NewTM(n int) *TM {
	return &TM{tx: make([]txState, n)}
}

// Reset restores NewTM's initial state while keeping each core's
// read/write-set maps and undo-log backing arrays — the same allocations
// Begin recycles within a run are worth keeping across pooled-machine runs.
func (tm *TM) Reset() {
	tm.conflicts = 0
	for i := range tm.tx {
		t := &tm.tx[i]
		t.active, t.aborted = false, false
		t.order = 0
		if t.readSet != nil {
			clear(t.readSet)
			clear(t.writeSet)
		}
		t.undoAddr, t.undoVal = t.undoAddr[:0], t.undoVal[:0]
	}
}

// Begin starts a transaction on core with the given chunk order. The
// read/write-set maps and undo log are recycled across transactions on the
// same core (chunked DOALL loops begin one transaction per chunk, so fresh
// allocations here dominate the TM cost).
func (tm *TM) Begin(core, order int) {
	t := &tm.tx[core]
	if t.readSet == nil {
		t.readSet = make(map[int64]bool)
		t.writeSet = make(map[int64]bool)
	} else {
		clear(t.readSet)
		clear(t.writeSet)
	}
	t.active, t.aborted = true, false
	t.order = order
	t.undoAddr, t.undoVal = t.undoAddr[:0], t.undoVal[:0]
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
	t.readSet[addr] = true
	for i := range tm.tx {
		o := &tm.tx[i]
		if i == core || !o.active || o.aborted {
			continue
		}
		if o.writeSet[addr] {
			tm.resolve(core, i)
		}
	}
}

// OnWrite records a transactional write (with the old value for rollback)
// and detects write-after-read / write-after-write conflicts.
func (tm *TM) OnWrite(core int, addr int64, old uint64) {
	t := &tm.tx[core]
	if !t.active || t.aborted {
		return
	}
	if !t.writeSet[addr] {
		t.writeSet[addr] = true
		t.undoAddr = append(t.undoAddr, addr)
		t.undoVal = append(t.undoVal, old)
	}
	for i := range tm.tx {
		o := &tm.tx[i]
		if i == core || !o.active || o.aborted {
			continue
		}
		if o.writeSet[addr] || o.readSet[addr] {
			tm.resolve(core, i)
		}
	}
}

// resolve aborts the later-ordered of two conflicting transactions.
func (tm *TM) resolve(a, b int) {
	tm.conflicts++
	if tm.tx[a].order >= tm.tx[b].order {
		tm.tx[a].aborted = true
	} else {
		tm.tx[b].aborted = true
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
func (tm *TM) AnyAborted() bool {
	for i := range tm.tx {
		if tm.tx[i].active && tm.tx[i].aborted {
			return true
		}
	}
	return false
}

// anyActive reports whether any core has a live transaction.
func (tm *TM) anyActive() bool {
	for i := range tm.tx {
		if tm.tx[i].active {
			return true
		}
	}
	return false
}
