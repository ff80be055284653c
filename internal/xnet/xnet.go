// Package xnet implements Voltron's dual-mode scalar operand network: a
// 2-D mesh of register-value links between cores with a direct mode
// (1 cycle/hop, sender and receiver synchronized — used in coupled
// execution) and a queue mode (2 cycles + 1 cycle/hop, send queue, routed
// delivery, CAM receive queue — used in decoupled execution), plus the 1-bit
// stall bus used for lock-step execution (modeled in package core).
package xnet

import (
	"fmt"
	"math"

	"voltron/internal/isa"
)

// NoWake is returned by the Next*At probes when no queued message will ever
// satisfy the poll: only new network activity can unblock the receiver.
const NoWake = int64(math.MaxInt64)

// Topology arranges n cores in a mesh; core id = y*Cols + x. When N is
// nonzero it is the number of populated positions: a near-square mesh over
// n cores may leave ghost positions at the tail of the last row, which
// route traffic (the mesh wiring exists) but hold no core.
type Topology struct {
	Cols, Rows int
	N          int
}

// TopologyFor returns the paper's arrangements: 1 core (1×1), 2 cores
// (2×1 — adjacent), 4 cores (2×2), up to 8 cores a 4-column mesh, and a
// near-square mesh beyond that (never narrower than 4 columns, so the
// coupled compiler's 4-core row groups stay intact): 16 cores is 4×4,
// 32 is 6×6 with four ghost positions, 64 is 8×8.
func TopologyFor(n int) Topology {
	switch {
	case n <= 1:
		return Topology{1, 1, n}
	case n == 2:
		return Topology{2, 1, n}
	case n <= 4:
		return Topology{2, (n + 1) / 2, n}
	case n <= 8:
		return Topology{4, (n + 3) / 4, n}
	default:
		cols := 4
		for cols*cols < n {
			cols++
		}
		return TopologyCols(n, cols)
	}
}

// TopologyCols arranges n cores over a fixed column count (the mesh-shape
// knob): rows = ceil(n/cols), ghost positions in the last row when cols
// does not divide n.
func TopologyCols(n, cols int) Topology {
	if cols < 1 {
		cols = 1
	}
	if cols > n {
		cols = n
	}
	return Topology{cols, (n + cols - 1) / cols, n}
}

// Cores returns the number of mesh positions (including ghost positions).
func (t Topology) Cores() int { return t.Cols * t.Rows }

// cores returns the populated position count (all of them for literal
// topologies that leave N zero).
func (t Topology) cores() int {
	if t.N > 0 {
		return t.N
	}
	return t.Cols * t.Rows
}

// Coord returns the (x, y) mesh position of a core.
func (t Topology) Coord(core int) (x, y int) { return core % t.Cols, core / t.Cols }

// Neighbor returns the core adjacent to c in direction d, or -1 at the mesh
// edge and at ghost positions (mesh wiring with no core behind it).
func (t Topology) Neighbor(c int, d isa.Direction) int {
	x, y := t.Coord(c)
	switch d {
	case isa.East:
		x++
	case isa.West:
		x--
	case isa.North:
		y--
	case isa.South:
		y++
	}
	if x < 0 || x >= t.Cols || y < 0 || y >= t.Rows {
		return -1
	}
	id := y*t.Cols + x
	if id >= t.cores() {
		return -1
	}
	return id
}

// Hops returns the Manhattan distance between two cores.
func (t Topology) Hops(a, b int) int {
	ax, ay := t.Coord(a)
	bx, by := t.Coord(b)
	dx, dy := ax-bx, ay-by
	if dx < 0 {
		dx = -dx
	}
	if dy < 0 {
		dy = -dy
	}
	return dx + dy
}

// Route returns the dimension-ordered (X then Y) hop sequence from a to b.
func (t Topology) Route(a, b int) []isa.Direction {
	var route []isa.Direction
	ax, ay := t.Coord(a)
	bx, by := t.Coord(b)
	for ax < bx {
		route = append(route, isa.East)
		ax++
	}
	for ax > bx {
		route = append(route, isa.West)
		ax--
	}
	for ay < by {
		route = append(route, isa.South)
		ay++
	}
	for ay > by {
		route = append(route, isa.North)
		ay--
	}
	return route
}

// DirectNet models the direct-mode wires: one register-width link in each
// direction between adjacent cores, valid within a single cycle. The
// coupled-mode compiler guarantees each PUT has a matching same-cycle GET;
// the network checks that contract and reports violations as errors (they
// indicate compiler bugs, not runtime conditions).
type DirectNet struct {
	T Topology
	// wires holds one slot per (from, to) pair, indexed from*Cores()+to. A
	// slot is live only when its generation matches the current cycle's, so
	// BeginCycle invalidates every wire by bumping gen instead of clearing.
	wires []wireSlot
	gen   int64
	cycle int64
	// Transfers counts delivered values (for bandwidth accounting).
	Transfers int64
}

type wireSlot struct {
	gen int64
	val uint64
}

// NewDirectNet creates the direct-mode network for a topology.
func NewDirectNet(t Topology) *DirectNet {
	// gen starts at 1 so zero-valued slots are never live.
	return &DirectNet{T: t, wires: make([]wireSlot, t.Cores()*t.Cores()), gen: 1}
}

// Reset restores NewDirectNet's initial state, keeping the wire array.
func (d *DirectNet) Reset() {
	clear(d.wires)
	d.gen = 1
	d.cycle = 0
	d.Transfers = 0
}

// BeginCycle clears the wires for a new lock-step cycle.
func (d *DirectNet) BeginCycle(cycle int64) {
	d.cycle = cycle
	d.gen++
}

// Put drives the wire from core `from` toward direction dir.
func (d *DirectNet) Put(from int, dir isa.Direction, v uint64) error {
	to := d.T.Neighbor(from, dir)
	if to < 0 {
		return fmt.Errorf("xnet: PUT off mesh edge: core %d dir %v", from, dir)
	}
	slot := &d.wires[from*d.T.Cores()+to]
	if slot.gen == d.gen {
		return fmt.Errorf("xnet: wire %d->%d driven twice in cycle %d", from, to, d.cycle)
	}
	slot.gen, slot.val = d.gen, v
	return nil
}

// Broadcast drives all outgoing wires of a core (the BCAST operation).
func (d *DirectNet) Broadcast(from int, v uint64) error {
	for _, dir := range []isa.Direction{isa.East, isa.West, isa.North, isa.South} {
		if d.T.Neighbor(from, dir) >= 0 {
			if err := d.Put(from, dir, v); err != nil {
				return err
			}
		}
	}
	return nil
}

// Get reads the wire arriving at core `to` from direction dir; the matching
// PUT must have been driven in the same cycle.
func (d *DirectNet) Get(to int, dir isa.Direction) (uint64, error) {
	from := d.T.Neighbor(to, dir)
	if from < 0 {
		return 0, fmt.Errorf("xnet: GET off mesh edge: core %d dir %v", to, dir)
	}
	slot := &d.wires[from*d.T.Cores()+to]
	if slot.gen != d.gen {
		return 0, fmt.Errorf("xnet: GET with no matching PUT on wire %d->%d in cycle %d", from, to, d.cycle)
	}
	d.Transfers++
	return slot.val, nil
}

// message is one queue-mode value in flight or waiting in a receive queue.
type message struct {
	from, to int
	val      uint64
	spawn    bool
	readyAt  int64
	seq      int64
}

// fifo is one in-order message queue with an O(1) head pop. Sequence
// numbers are assigned in send order, so within one fifo they are strictly
// increasing and the head is always the oldest (lowest-seq) message — the
// exact message the CAM's oldest-match pop selects.
type fifo struct {
	buf  []message
	head int
}

func (f *fifo) empty() bool    { return f.head == len(f.buf) }
func (f *fifo) peek() *message { return &f.buf[f.head] }
func (f *fifo) push(m message) { f.buf = append(f.buf, m) }
func (f *fifo) reset()         { f.buf = f.buf[:0]; f.head = 0 }
func (f *fifo) pop() (m message) {
	m = f.buf[f.head]
	f.head++
	if f.head == len(f.buf) {
		// Drained: rewind so the backing array is reused, not regrown.
		f.buf, f.head = f.buf[:0], 0
	}
	return m
}

// QueueNet models the queue-mode network: SEND enqueues a routed message
// (latency 2 + hops: one cycle into the send queue, one per hop, one out of
// the receive queue), RECV performs a CAM lookup by sender id in the
// receive queue. Spawn messages (start addresses) travel the same network
// but match a separate RECV used by the idle-core loop.
//
// The CAM is modeled as one FIFO per (sender, receiver) pair plus one spawn
// FIFO per receiver: RECV matches by sender id and pops the oldest match,
// which is exactly the head of that pair's FIFO, so Recv, RecvSpawn and the
// NextRecvAt/NextSpawnAt wake probes are all O(1) instead of a linear CAM
// walk — the probes sit on the event scheduler's hot path at every width.
type QueueNet struct {
	T Topology
	// BaseLat is the fixed part of the latency (2 in the paper).
	BaseLat int64
	// HopLat is the per-hop latency (1 in the paper).
	HopLat int64
	// Cap bounds each (sender, receiver) pair's in-flight-plus-waiting
	// messages. A full pair back-pressures the sender, bounding how far a
	// producer thread runs ahead of its consumer. Capacity is per pair —
	// not per receiver — so back-pressure only ever blocks a sender that
	// is AHEAD of its receiver; around any cycle of cores the run-ahead
	// deltas sum to zero, so a cycle of blocked senders is impossible
	// (deadlock freedom). 0 means unbounded.
	Cap int
	// pairs[from*Cores()+to] holds the non-spawn messages from→to;
	// spawns[to] holds the spawn messages bound for core to.
	pairs  []fifo
	spawns []fifo
	// counts caches the per-(sender, receiver) queue occupancy (spawn
	// messages included), indexed from*Cores()+to, so CanSend is O(1).
	counts []int32
	// pending is the total queued message count (PendingAny's O(1) answer).
	pending int
	seq     int64
	// Messages counts total sends; RecvWaits counts RECV polls that found
	// nothing ready (an idle-cycle measure).
	Messages  int64
	RecvWaits int64
}

// Queue-mode defaults (the paper's parameters). NewQueueNet applies them
// and Reset restores them, so a reset network forgets any per-run latency
// or capacity override.
const (
	DefaultBaseLat = 2
	DefaultHopLat  = 1
	DefaultCap     = 16
)

// NewQueueNet creates the queue-mode network with the paper's latencies and
// a 16-entry receive queue per core.
func NewQueueNet(t Topology) *QueueNet {
	q := &QueueNet{T: t, BaseLat: DefaultBaseLat, HopLat: DefaultHopLat, Cap: DefaultCap}
	q.pairs = make([]fifo, t.Cores()*t.Cores())
	q.spawns = make([]fifo, t.Cores())
	q.counts = make([]int32, t.Cores()*t.Cores())
	return q
}

// Reset restores NewQueueNet's initial state — default latencies and
// capacity, empty queues, zeroed sequence and counters — while keeping the
// per-queue backing arrays.
func (q *QueueNet) Reset() {
	q.BaseLat, q.HopLat, q.Cap = DefaultBaseLat, DefaultHopLat, DefaultCap
	for i := range q.pairs {
		q.pairs[i].reset()
	}
	for i := range q.spawns {
		q.spawns[i].reset()
	}
	clear(q.counts)
	q.pending = 0
	q.seq = 0
	q.Messages, q.RecvWaits = 0, 0
}

// CanSend reports whether the (from, to) pair has room for another message.
func (q *QueueNet) CanSend(from, to int) bool {
	if q.Cap <= 0 {
		return true
	}
	return q.counts[from*q.T.Cores()+to] < int32(q.Cap)
}

// Send enqueues a value from core `from` to core `to` at the given cycle.
// It returns the message's sequence number and arrival cycle so callers that
// trace message flow can bind the send to the matching receive; other
// callers ignore the results.
func (q *QueueNet) Send(from, to int, v uint64, cycle int64) (seq, arriveAt int64) {
	q.seq++
	hops := int64(q.T.Hops(from, to))
	arriveAt = cycle + q.BaseLat + hops*q.HopLat
	q.pairs[from*q.T.Cores()+to].push(message{
		from: from, to: to, val: v,
		readyAt: arriveAt,
		seq:     q.seq,
	})
	q.counts[from*q.T.Cores()+to]++
	q.pending++
	q.Messages++
	return q.seq, arriveAt
}

// SendSpawn enqueues a thread-start message carrying a code address. Like
// Send it returns the message's sequence number and arrival cycle.
func (q *QueueNet) SendSpawn(from, to int, addr uint64, cycle int64) (seq, arriveAt int64) {
	q.seq++
	hops := int64(q.T.Hops(from, to))
	arriveAt = cycle + q.BaseLat + hops*q.HopLat
	q.spawns[to].push(message{
		from: from, to: to, val: addr, spawn: true,
		readyAt: arriveAt,
		seq:     q.seq,
	})
	q.counts[from*q.T.Cores()+to]++
	q.pending++
	q.Messages++
	return q.seq, arriveAt
}

// Recv pops the oldest non-spawn message from `from` that has arrived by
// `cycle`. ok=false means the receiver must stall this cycle. On success the
// popped message's sequence number (as returned by Send) identifies the
// matching send for trace flow binding.
func (q *QueueNet) Recv(to, from int, cycle int64) (v uint64, seq int64, ok bool) {
	f := &q.pairs[from*q.T.Cores()+to]
	if f.empty() || f.peek().readyAt > cycle {
		q.RecvWaits++
		return 0, 0, false
	}
	m := f.pop()
	q.counts[from*q.T.Cores()+to]--
	q.pending--
	return m.val, m.seq, true
}

// NextRecvAt returns the cycle at which a RECV on core `to` polling sender
// `from` would first succeed, given no further network activity: the arrival
// time of the oldest matching message, or NoWake when none is queued. Recv
// always pops the oldest (lowest-seq) matching message and succeeds only
// once THAT message has arrived, so the probe reports the pair FIFO head's
// readyAt rather than the minimum over all matches.
func (q *QueueNet) NextRecvAt(to, from int) int64 {
	f := &q.pairs[from*q.T.Cores()+to]
	if f.empty() {
		return NoWake
	}
	return f.peek().readyAt
}

// RecvSpawn pops the oldest spawn message for an idle core. On success the
// popped message's sequence number identifies the matching SendSpawn, and
// `from` is the spawning core (the event scheduler uses it to release a
// sender blocked on that pair's back-pressure).
func (q *QueueNet) RecvSpawn(to int, cycle int64) (addr uint64, from int, seq int64, ok bool) {
	f := &q.spawns[to]
	if f.empty() || f.peek().readyAt > cycle {
		return 0, 0, 0, false
	}
	m := f.pop()
	q.counts[m.from*q.T.Cores()+to]--
	q.pending--
	return m.val, m.from, m.seq, true
}

// NextSpawnAt returns the cycle at which an idle core `to` would first see a
// spawn message, or NoWake when none is queued. Like NextRecvAt it reports
// the oldest spawn message's arrival time (spawns from different senders
// travel different distances, so a newer message can arrive earlier — but
// RecvSpawn still waits for the oldest).
func (q *QueueNet) NextSpawnAt(to int) int64 {
	f := &q.spawns[to]
	if f.empty() {
		return NoWake
	}
	return f.peek().readyAt
}

// Pending reports whether any message (arrived or in flight) is queued for
// core `to` — used to distinguish idle from deadlocked cores.
func (q *QueueNet) Pending(to int) bool {
	if !q.spawns[to].empty() {
		return true
	}
	n := q.T.Cores()
	for from := 0; from < n; from++ {
		if !q.pairs[from*n+to].empty() {
			return true
		}
	}
	return false
}

// PendingAny reports whether any message exists anywhere in the network.
func (q *QueueNet) PendingAny() bool { return q.pending > 0 }

// DirectState is a DirectNet's state at a region boundary. Wires are valid
// within one cycle only, so none is kept.
type DirectState struct {
	gen, cycle, transfers int64
}

// Save returns the network's boundary state.
func (d *DirectNet) Save() DirectState {
	return DirectState{gen: d.gen, cycle: d.cycle, transfers: d.Transfers}
}

// Restore reinstates a saved state. The wires are cleared: a slot left by
// an earlier run could otherwise carry a generation the restored clock
// reaches again.
func (d *DirectNet) Restore(st DirectState) {
	clear(d.wires)
	d.gen, d.cycle, d.Transfers = st.gen, st.cycle, st.transfers
}

// QueueSnapshot is a QueueNet's state at a region boundary: the sequence
// number, the counters and every queued message. Latencies and capacity
// come from the machine configuration and are not kept. Its buffer is
// reused by later saves.
type QueueSnapshot struct {
	seq, messages, recvWaits int64
	// msgs holds the queued messages, each queue's in FIFO order.
	msgs []message
}

// Save copies the network's state into sn.
func (q *QueueNet) Save(sn *QueueSnapshot) {
	sn.seq, sn.messages, sn.recvWaits = q.seq, q.Messages, q.RecvWaits
	sn.msgs = sn.msgs[:0]
	if q.pending == 0 {
		return
	}
	for _, fs := range [][]fifo{q.pairs, q.spawns} {
		for i := range fs {
			sn.msgs = append(sn.msgs, fs[i].buf[fs[i].head:]...)
		}
	}
}

// Restore reinstates a snapshot taken on a network of the same topology,
// after the same reset to defaults Reset performs.
func (q *QueueNet) Restore(sn *QueueSnapshot) {
	q.Reset()
	q.seq, q.Messages, q.RecvWaits = sn.seq, sn.messages, sn.recvWaits
	n := q.T.Cores()
	for _, m := range sn.msgs {
		if m.spawn {
			q.spawns[m.to].push(m)
		} else {
			q.pairs[m.from*n+m.to].push(m)
		}
		q.counts[m.from*n+m.to]++
		q.pending++
	}
}
