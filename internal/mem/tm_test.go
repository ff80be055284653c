package mem

import (
	"math/rand"
	"testing"
)

// refTM is the map-based transactional memory the word-mask TM replaced:
// every core keeps its own read and write sets, and a conflict check probes
// every other core's sets in ascending core order. It is the oracle the
// TM must match step for step.
type refTM struct {
	tx        []refTx
	conflicts int64
}

type refTx struct {
	active   bool
	order    int
	readSet  map[int64]bool
	writeSet map[int64]bool
	undoAddr []int64
	undoVal  []uint64
	aborted  bool
}

func newRefTM(n int) *refTM { return &refTM{tx: make([]refTx, n)} }

func (tm *refTM) Reset() {
	tm.conflicts = 0
	for i := range tm.tx {
		t := &tm.tx[i]
		t.active, t.aborted = false, false
		t.order = 0
		clear(t.readSet)
		clear(t.writeSet)
		t.undoAddr, t.undoVal = t.undoAddr[:0], t.undoVal[:0]
	}
}

func (tm *refTM) Begin(core, order int) {
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

func (tm *refTM) OnRead(core int, addr int64) {
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

func (tm *refTM) OnWrite(core int, addr int64, old uint64) {
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

func (tm *refTM) resolve(a, b int) {
	tm.conflicts++
	if tm.tx[a].order >= tm.tx[b].order {
		tm.tx[a].aborted = true
	} else {
		tm.tx[b].aborted = true
	}
}

func (tm *refTM) Commit(core int) bool {
	t := &tm.tx[core]
	if t.aborted {
		return false
	}
	t.active = false
	return true
}

func (tm *refTM) Abort(core int, flat *Flat) {
	t := &tm.tx[core]
	for i := len(t.undoAddr) - 1; i >= 0; i-- {
		flat.StoreW(t.undoAddr[i], t.undoVal[i])
	}
	t.active, t.aborted = false, false
}

func (tm *refTM) AbortAll(flat *Flat) {
	for i := range tm.tx {
		if tm.tx[i].active {
			tm.Abort(i, flat)
		}
	}
}

func (tm *refTM) AnyAborted() bool {
	for i := range tm.tx {
		if tm.tx[i].active && tm.tx[i].aborted {
			return true
		}
	}
	return false
}

// TestTMMatchesReference drives the TM and refTM through the same seeded
// random operation sequences. After every step it compares the conflict
// count and every core's flags, and after every rollback the memory. Most
// accesses hit a few hot words so transactions conflict often; a few reach
// far words so the mask table grows mid-run.
func TestTMMatchesReference(t *testing.T) {
	const words = 1 << 12
	for _, cores := range []int{2, 4, 16, 64} {
		for seed := int64(1); seed <= 10; seed++ {
			rng := rand.New(rand.NewSource(seed*100 + int64(cores)))
			tm, ref := NewTM(cores), newRefTM(cores)
			got, want := NewFlat(words), NewFlat(words)
			addr := func() int64 {
				if rng.Intn(16) == 0 {
					return int64(rng.Intn(words)) * 8
				}
				return int64(rng.Intn(4+cores/2)) * 8
			}
			for step := 0; step < 3000; step++ {
				c := rng.Intn(cores)
				var op string
				switch k := rng.Intn(100); {
				case k < 12:
					op = "Begin"
					order := rng.Intn(cores)
					tm.Begin(c, order)
					ref.Begin(c, order)
				case k < 50:
					op = "OnRead"
					a := addr()
					tm.OnRead(c, a)
					ref.OnRead(c, a)
				case k < 85:
					op = "OnWrite"
					a, v := addr(), rng.Uint64()
					tm.OnWrite(c, a, got.LoadW(a))
					ref.OnWrite(c, a, want.LoadW(a))
					got.StoreW(a, v)
					want.StoreW(a, v)
				case k < 93:
					op = "Commit"
					if g, w := tm.Commit(c), ref.Commit(c); g != w {
						t.Fatalf("cores=%d seed=%d step %d: Commit(%d) = %v, want %v", cores, seed, step, c, g, w)
					}
				case k < 98:
					op = "Abort"
					tm.Abort(c, got)
					ref.Abort(c, want)
				case k < 99:
					op = "AbortAll"
					tm.AbortAll(got)
					ref.AbortAll(want)
				default:
					op = "Reset"
					tm.Reset()
					ref.Reset()
				}
				if tm.Conflicts() != ref.conflicts {
					t.Fatalf("cores=%d seed=%d step %d (%s core %d): conflicts %d, want %d", cores, seed, step, op, c, tm.Conflicts(), ref.conflicts)
				}
				if tm.AnyAborted() != ref.AnyAborted() {
					t.Fatalf("cores=%d seed=%d step %d (%s core %d): AnyAborted %v, want %v", cores, seed, step, op, c, tm.AnyAborted(), ref.AnyAborted())
				}
				for i := range ref.tx {
					if tm.Active(i) != ref.tx[i].active || tm.Aborted(i) != ref.tx[i].aborted {
						t.Fatalf("cores=%d seed=%d step %d (%s core %d): core %d active/aborted %v/%v, want %v/%v",
							cores, seed, step, op, c, i, tm.Active(i), tm.Aborted(i), ref.tx[i].active, ref.tx[i].aborted)
					}
				}
				if op != "Abort" && op != "AbortAll" {
					continue // only a rollback writes memory differently
				}
				if a, g, w, diff := got.FirstDiff(want); diff {
					t.Fatalf("cores=%d seed=%d step %d (%s core %d): word %#x = %d, want %d", cores, seed, step, op, c, a, g, w)
				}
			}
		}
	}
}

// TestTMSteadyStateAllocs pins that a warmed-up 64-core TM allocates
// nothing per chunk: every core begins, reads and writes its own words,
// and commits.
func TestTMSteadyStateAllocs(t *testing.T) {
	const cores = 64
	flat := NewFlat(1 << 12)
	tm := NewTM(cores)
	round := func() {
		for c := 0; c < cores; c++ {
			tm.Begin(c, c)
			for k := int64(0); k < 4; k++ {
				addr := (int64(c)*4 + k) * 8
				tm.OnRead(c, addr)
				tm.OnWrite(c, addr, flat.LoadW(addr))
			}
		}
		for c := 0; c < cores; c++ {
			if !tm.Commit(c) {
				t.Fatalf("core %d aborted without a conflict", c)
			}
		}
	}
	round()
	if n := testing.AllocsPerRun(100, round); n != 0 {
		t.Errorf("steady-state 64-core transaction round: %v allocs, want 0", n)
	}
}
