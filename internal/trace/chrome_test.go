package trace

import (
	"bytes"
	"encoding/json"
	"testing"

	"voltron/internal/isa"
	"voltron/internal/stats"
)

// syntheticTracer collects rounds repetitions of every event kind on a
// cores-wide machine, each round in a region named name with mode mode.
// Stall charges alternate cause and include back-to-back pieces, so
// coalescing and flushing both render.
func syntheticTracer(rounds, cores int, name, mode string) *Tracer {
	tr := New()
	cyc := int64(1)
	for i := 0; i < rounds; i++ {
		tr.RegionBegin(cyc, name, mode, cores)
		c := i % cores
		k := stats.Kind(1 + i%(stats.NumKinds-1))
		tr.Charge(cyc, c, k, 3)
		tr.Charge(cyc+3, c, k, 2) // coalesces with the previous piece
		tr.Charge(cyc+5, c, stats.Busy, 1)
		tr.StallRelease(cyc, int64(i%7))
		tr.Put(cyc, c, isa.Direction(i%4))
		tr.Get(cyc+1, c, isa.Direction(i%4))
		tr.Bcast(cyc, c)
		tr.Send(cyc, c, (c+1)%cores, int64(i), cyc+4)
		tr.Recv(cyc+4, (c+1)%cores, c, int64(i))
		tr.Spawn(cyc, c, (c+2)%cores, int64(i), cyc+9)
		tr.Wake(cyc+9, (c+2)%cores, int64(i))
		tr.Sleep(cyc+2, c)
		tr.CacheMiss(cyc, c, i%3, 0x10000+8*int64(i), 40)
		tr.TxBegin(cyc, c, int64(i))
		tr.TxCommit(cyc+6, c)
		tr.TxAbort(cyc+7, c)
		cyc += 11
		tr.RegionEnd(cyc)
	}
	return tr
}

// reference renders tr with the fmt-based reference renderer.
func reference(t testing.TB, tr *Tracer) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteChromeReference(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestChromeMatchesReferenceEscaping diffs the append renderer against the
// reference on region names and modes that need JSON escaping, on every
// event kind, on vocabulary values outside their tables, and on a non-empty
// destination.
func TestChromeMatchesReferenceEscaping(t *testing.T) {
	texts := []string{
		`plain`, `quote"d`, `back\slash`, `<html>`, `a&b`, "ctl\x01\x1f\t\n",
		"line\u2028sep\u2029", "bad\xffutf8\xc3", "", "\u2192 arrow", "del\x7f", "a.b_c-1 (r2)",
	}
	for _, name := range texts {
		for _, mode := range texts {
			tr := syntheticTracer(3, 4, name, mode)
			// A second region with an unknown direction, a region end with
			// no open region, and an unknown stall cause outside regions
			// (which keeps it out of the per-region attribution counters).
			tr.RegionBegin(100, mode, name, 2)
			tr.Put(101, 0, isa.Direction(9))
			tr.RegionEnd(110)
			tr.RegionEnd(111)
			tr.Charge(112, 1, stats.Kind(stats.NumKinds+3), 4)
			want := reference(t, tr)
			if got := tr.AppendChrome(nil); !bytes.Equal(got, want) {
				t.Fatalf("name %q mode %q: append renderer differs from reference\n--- got\n%s\n--- want\n%s", name, mode, got, want)
			}
			if !json.Valid(want) {
				t.Fatalf("name %q mode %q: reference trace is not valid JSON", name, mode)
			}
			prefix := []byte("prefix")
			if got := tr.AppendChrome(prefix); !bytes.Equal(got, append(prefix, want...)) {
				t.Fatalf("name %q mode %q: appending after a prefix differs", name, mode)
			}
			var w bytes.Buffer
			if err := tr.WriteChrome(&w); err != nil || !bytes.Equal(w.Bytes(), want) {
				t.Fatalf("name %q mode %q: WriteChrome differs from reference (err %v)", name, mode, err)
			}
		}
	}
	empty := New()
	if got, want := empty.AppendChrome(nil), reference(t, empty); !bytes.Equal(got, want) {
		t.Fatalf("empty tracer: got %q, want %q", got, want)
	}
}

// TestChromeAllocsIndependentOfEvents guards the append renderer's cost
// model: into a destination with room, rendering allocates the same number
// of times (once, for the open stall spans) for 10 rounds of every event
// kind and region as for 2000. A per-event fmt call, or a json.Marshal of
// every region's plain name, makes the large trace allocate thousands of
// times.
func TestChromeAllocsIndependentOfEvents(t *testing.T) {
	allocs := func(rounds int) float64 {
		tr := syntheticTracer(rounds, 16, "kernel.r2", "decoupled")
		dst := tr.AppendChrome(nil)
		return testing.AllocsPerRun(20, func() { dst = tr.AppendChrome(dst[:0]) })
	}
	small, large := allocs(10), allocs(2000)
	t.Logf("allocations per render: %v (10 rounds), %v (2000 rounds)", small, large)
	if large > small {
		t.Errorf("render allocations grow with the event count: %v for 10 rounds, %v for 2000", small, large)
	}
	if small > 1 {
		t.Errorf("render allocates %v times, want at most 1", small)
	}
}
