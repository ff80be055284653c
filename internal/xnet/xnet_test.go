package xnet

import (
	"testing"
	"testing/quick"

	"voltron/internal/isa"
)

func TestTopologyFor(t *testing.T) {
	cases := []struct {
		n, cols, rows int
	}{
		{1, 1, 1}, {2, 2, 1}, {3, 2, 2}, {4, 2, 2}, {8, 4, 2}, {16, 4, 4},
	}
	for _, c := range cases {
		top := TopologyFor(c.n)
		if top.Cols != c.cols || top.Rows != c.rows {
			t.Errorf("TopologyFor(%d) = %dx%d, want %dx%d", c.n, top.Cols, top.Rows, c.cols, c.rows)
		}
		if top.Cores() < c.n {
			t.Errorf("TopologyFor(%d) holds only %d cores", c.n, top.Cores())
		}
	}
}

// TestTopologyNearSquare pins the many-core arrangements and their hop
// distances: wide machines get near-square meshes, not 4-column strips
// (a 4×16 strip would stretch 64-core corner-to-corner traffic to 18 hops).
func TestTopologyNearSquare(t *testing.T) {
	hopStats := func(top Topology, n int) (diam int, total int) {
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				h := top.Hops(a, b)
				total += h
				if h > diam {
					diam = h
				}
			}
		}
		return diam, total
	}
	cases := []struct {
		n, cols, rows int
		// corner-to-corner hops (core 0 to core n-1) and network diameter
		// (max hops over populated pairs).
		corner, diameter int
	}{
		{16, 4, 4, 6, 6},
		{32, 6, 6, 6, 10},
		{64, 8, 8, 14, 14},
	}
	for _, c := range cases {
		top := TopologyFor(c.n)
		if top.Cols != c.cols || top.Rows != c.rows || top.N != c.n {
			t.Errorf("TopologyFor(%d) = %dx%d N=%d, want %dx%d N=%d",
				c.n, top.Cols, top.Rows, top.N, c.cols, c.rows, c.n)
			continue
		}
		if got := top.Hops(0, c.n-1); got != c.corner {
			t.Errorf("TopologyFor(%d): Hops(0, %d) = %d, want %d", c.n, c.n-1, got, c.corner)
		}
		diam, total := hopStats(top, c.n)
		if diam != c.diameter {
			t.Errorf("TopologyFor(%d): diameter = %d, want %d", c.n, diam, c.diameter)
		}
		// Strip comparison: beyond 16 cores the near-square mesh must be
		// strictly cheaper than the old 4-column strip on mean hop count
		// and no worse on diameter.
		if c.n > 16 {
			stripDiam, stripTotal := hopStats(TopologyCols(c.n, 4), c.n)
			if total >= stripTotal {
				t.Errorf("TopologyFor(%d): total hops %d not better than 4-column strip's %d", c.n, total, stripTotal)
			}
			if diam > stripDiam {
				t.Errorf("TopologyFor(%d): diameter %d worse than 4-column strip's %d", c.n, diam, stripDiam)
			}
		}
	}
}

// TestTopologyGhostPositions checks that unpopulated mesh positions route
// traffic but are never reported as neighbors.
func TestTopologyGhostPositions(t *testing.T) {
	top := TopologyFor(32) // 6×6, positions 32..35 are ghosts
	if top.Cores() != 36 {
		t.Fatalf("Cores() = %d, want 36 mesh positions", top.Cores())
	}
	// Core 31 sits at (1,5); its east neighbor position 32 holds no core.
	if got := top.Neighbor(31, isa.East); got != -1 {
		t.Errorf("Neighbor(31, East) = %d, want -1 (ghost position)", got)
	}
	if got := top.Neighbor(31, isa.West); got != 30 {
		t.Errorf("Neighbor(31, West) = %d, want 30", got)
	}
	// Routes between populated cores still walk real coordinates: core 5
	// at (5,0) to core 30 at (0,5) crosses the whole populated mesh.
	if got := top.Hops(5, 30); got != 10 {
		t.Errorf("Hops(5, 30) = %d, want 10", got)
	}
}

func TestNeighbor2x2(t *testing.T) {
	top := TopologyFor(4)
	// layout: 0 1 / 2 3
	if top.Neighbor(0, isa.East) != 1 || top.Neighbor(0, isa.South) != 2 {
		t.Error("core 0 neighbors wrong")
	}
	if top.Neighbor(0, isa.West) != -1 || top.Neighbor(0, isa.North) != -1 {
		t.Error("core 0 edge not detected")
	}
	if top.Neighbor(3, isa.West) != 2 || top.Neighbor(3, isa.North) != 1 {
		t.Error("core 3 neighbors wrong")
	}
}

func TestHopsAndRouteAgree(t *testing.T) {
	top := TopologyFor(4)
	f := func(a, b uint8) bool {
		x, y := int(a)%4, int(b)%4
		r := top.Route(x, y)
		if len(r) != top.Hops(x, y) {
			return false
		}
		// Walking the route lands on the destination.
		c := x
		for _, d := range r {
			c = top.Neighbor(c, d)
			if c < 0 {
				return false
			}
		}
		return c == y
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDirectPutGet(t *testing.T) {
	d := NewDirectNet(TopologyFor(4))
	d.BeginCycle(1)
	if err := d.Put(0, isa.East, 42); err != nil {
		t.Fatal(err)
	}
	v, err := d.Get(1, isa.West)
	if err != nil || v != 42 {
		t.Fatalf("Get = %d, %v", v, err)
	}
	if d.Transfers != 1 {
		t.Errorf("transfers = %d, want 1", d.Transfers)
	}
}

func TestDirectGetWithoutPutFails(t *testing.T) {
	d := NewDirectNet(TopologyFor(4))
	d.BeginCycle(1)
	if _, err := d.Get(1, isa.West); err == nil {
		t.Error("unmatched GET must error (compiler contract violation)")
	}
}

func TestDirectWireClearsAcrossCycles(t *testing.T) {
	d := NewDirectNet(TopologyFor(4))
	d.BeginCycle(1)
	d.Put(0, isa.East, 7)
	d.BeginCycle(2)
	if _, err := d.Get(1, isa.West); err == nil {
		t.Error("wire value must not persist to the next cycle")
	}
}

func TestDirectDoubleDriveFails(t *testing.T) {
	d := NewDirectNet(TopologyFor(4))
	d.BeginCycle(1)
	d.Put(0, isa.East, 1)
	if err := d.Put(0, isa.East, 2); err == nil {
		t.Error("double-driven wire must error")
	}
}

func TestDirectPutOffEdgeFails(t *testing.T) {
	d := NewDirectNet(TopologyFor(4))
	d.BeginCycle(1)
	if err := d.Put(0, isa.West, 1); err == nil {
		t.Error("PUT off mesh edge must error")
	}
}

func TestBroadcast(t *testing.T) {
	d := NewDirectNet(TopologyFor(4))
	d.BeginCycle(1)
	if err := d.Broadcast(0, 5); err != nil {
		t.Fatal(err)
	}
	if v, err := d.Get(1, isa.West); err != nil || v != 5 {
		t.Error("east neighbor missed broadcast")
	}
	if v, err := d.Get(2, isa.North); err != nil || v != 5 {
		t.Error("south neighbor missed broadcast")
	}
}

func TestQueueLatency(t *testing.T) {
	q := NewQueueNet(TopologyFor(4))
	q.Send(0, 3, 42, 100) // 2 hops in 2x2
	if _, _, ok := q.Recv(3, 0, 103); ok {
		t.Error("message arrived before 2+hops latency")
	}
	v, _, ok := q.Recv(3, 0, 104)
	if !ok || v != 42 {
		t.Errorf("Recv = %d, %v; want 42 at cycle 104", v, ok)
	}
}

func TestQueueAdjacentLatency(t *testing.T) {
	q := NewQueueNet(TopologyFor(2))
	q.Send(0, 1, 9, 10)
	if _, _, ok := q.Recv(1, 0, 12); ok {
		t.Error("arrived too early")
	}
	if v, _, ok := q.Recv(1, 0, 13); !ok || v != 9 {
		t.Error("adjacent queue-mode latency should be 3 (2 + 1 hop)")
	}
}

func TestQueueFIFOPerSender(t *testing.T) {
	q := NewQueueNet(TopologyFor(2))
	q.Send(0, 1, 1, 0)
	q.Send(0, 1, 2, 1)
	v1, _, ok1 := q.Recv(1, 0, 100)
	v2, _, ok2 := q.Recv(1, 0, 100)
	if !ok1 || !ok2 || v1 != 1 || v2 != 2 {
		t.Errorf("FIFO broken: got %d,%d", v1, v2)
	}
}

func TestQueueCAMSelectsBySender(t *testing.T) {
	q := NewQueueNet(TopologyFor(4))
	q.Send(2, 3, 20, 0)
	q.Send(1, 3, 10, 0)
	// Receiver asks for core 1's message even though core 2's arrived too.
	if v, _, ok := q.Recv(3, 1, 100); !ok || v != 10 {
		t.Errorf("CAM lookup by sender failed: %d %v", v, ok)
	}
	if v, _, ok := q.Recv(3, 2, 100); !ok || v != 20 {
		t.Errorf("remaining message lost: %d %v", v, ok)
	}
}

func TestSpawnSeparateFromData(t *testing.T) {
	q := NewQueueNet(TopologyFor(2))
	q.SendSpawn(0, 1, 7, 0)
	q.Send(0, 1, 99, 0)
	if _, _, ok := q.Recv(1, 0, 100); !ok {
		t.Fatal("data recv failed")
	}
	addr, from, _, ok := q.RecvSpawn(1, 100)
	if !ok || addr != 7 || from != 0 {
		t.Errorf("spawn recv = %d from %d, %v", addr, from, ok)
	}
	if _, _, _, ok := q.RecvSpawn(1, 100); ok {
		t.Error("spawn message delivered twice")
	}
}

func TestPending(t *testing.T) {
	q := NewQueueNet(TopologyFor(2))
	if q.PendingAny() {
		t.Error("fresh network pending")
	}
	q.Send(0, 1, 1, 0)
	if !q.Pending(1) || q.Pending(0) {
		t.Error("Pending wrong")
	}
	q.Recv(1, 0, 100)
	if q.PendingAny() {
		t.Error("drained network still pending")
	}
}

func TestPairCapacityBackpressure(t *testing.T) {
	q := NewQueueNet(TopologyFor(2))
	q.Cap = 4
	for i := 0; i < 4; i++ {
		if !q.CanSend(0, 1) {
			t.Fatalf("pair full after %d sends, cap 4", i)
		}
		q.Send(0, 1, uint64(i), 0)
	}
	if q.CanSend(0, 1) {
		t.Error("pair not full after cap sends")
	}
	// A different pair into the same receiver stays open (per-pair, not
	// per-receiver, capacity — the deadlock-freedom property).
	top4 := NewQueueNet(TopologyFor(4))
	top4.Cap = 2
	top4.Send(0, 3, 1, 0)
	top4.Send(0, 3, 2, 0)
	if top4.CanSend(0, 3) {
		t.Error("pair 0->3 should be full")
	}
	if !top4.CanSend(1, 3) {
		t.Error("pair 1->3 wrongly blocked by 0->3 traffic")
	}
	// Draining reopens the pair.
	q.Recv(1, 0, 100)
	if !q.CanSend(0, 1) {
		t.Error("drained pair still blocked")
	}
}

func TestUnboundedCapacity(t *testing.T) {
	q := NewQueueNet(TopologyFor(2))
	q.Cap = 0
	for i := 0; i < 1000; i++ {
		if !q.CanSend(0, 1) {
			t.Fatal("unbounded queue reported full")
		}
		q.Send(0, 1, 1, 0)
	}
}

// TestDirectRestoreClearsWires: a wire driven at a generation the restored
// clock reaches again must not read as driven.
func TestDirectRestoreClearsWires(t *testing.T) {
	d := NewDirectNet(TopologyFor(4))
	st := d.Save()
	d.BeginCycle(0)
	if err := d.Put(0, isa.East, 7); err != nil {
		t.Fatal(err)
	}
	d.Restore(st)
	d.BeginCycle(0)
	if _, err := d.Get(1, isa.West); err == nil {
		t.Error("GET read a wire driven before the restore")
	}
	if err := d.Put(0, isa.East, 8); err != nil {
		t.Errorf("PUT after restore: %v", err)
	}
}

// TestQueueSaveRestore restores a network with messages queued on several
// pairs and spawn queues, some already popped, into a network holding
// other messages; both must then behave identically.
func TestQueueSaveRestore(t *testing.T) {
	top := TopologyFor(4)
	fill := func(q *QueueNet, base uint64) {
		for i := uint64(0); i < 3; i++ {
			q.Send(0, 1, base+i, int64(i))
			q.Send(2, 1, base+10+i, int64(i))
			q.SendSpawn(3, 1, base+20+i, int64(i))
		}
		q.Recv(1, 0, 100)
		q.Recv(1, 3, 100) // nothing queued: counts a wait
	}
	orig := NewQueueNet(top)
	fill(orig, 0)
	var sn QueueSnapshot
	orig.Save(&sn)
	other := NewQueueNet(top)
	fill(other, 1000)
	other.Send(3, 2, 5, 0)
	other.Restore(&sn)
	// A small capacity makes CanSend depend on the restored counts.
	for _, q := range []*QueueNet{orig, other} {
		q.Cap = 2
	}
	if orig.seq != other.seq || orig.Messages != other.Messages || orig.RecvWaits != other.RecvWaits {
		t.Errorf("counters: seq %d/%d, messages %d/%d, waits %d/%d", orig.seq, other.seq,
			orig.Messages, other.Messages, orig.RecvWaits, other.RecvWaits)
	}
	for from := 0; from < 4; from++ {
		if a, b := orig.CanSend(from, 1), other.CanSend(from, 1); a != b {
			t.Errorf("CanSend(%d, 1) = %v after restore, %v before", from, b, a)
		}
	}
	for i := 0; i < 4; i++ {
		for _, from := range []int{0, 2} {
			v1, s1, ok1 := orig.Recv(1, from, 100)
			v2, s2, ok2 := other.Recv(1, from, 100)
			if v1 != v2 || s1 != s2 || ok1 != ok2 {
				t.Errorf("Recv from %d: (%d, %d, %v) after restore, (%d, %d, %v) before", from, v2, s2, ok2, v1, s1, ok1)
			}
		}
		a1, f1, s1, ok1 := orig.RecvSpawn(1, 100)
		a2, f2, s2, ok2 := other.RecvSpawn(1, 100)
		if a1 != a2 || f1 != f2 || s1 != s2 || ok1 != ok2 {
			t.Errorf("RecvSpawn: (%d, %d, %d, %v) after restore, (%d, %d, %d, %v) before", a2, f2, s2, ok2, a1, f1, s1, ok1)
		}
	}
	if orig.PendingAny() || other.PendingAny() {
		t.Error("messages left after draining both networks")
	}
}
