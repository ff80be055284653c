package stats

import (
	"sync"
	"testing"
	"time"
)

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
			c.Add(-500)
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 8*500 {
		t.Errorf("counter = %d, want %d", got, 8*500)
	}
}

func TestHistogramBuckets(t *testing.T) {
	cases := []struct {
		us   int64
		want int
	}{
		{0, 0}, {1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {1024, 10}, {1025, 11},
	}
	for _, c := range cases {
		if got := bucketOf(c.us); got != c.want {
			t.Errorf("bucketOf(%d) = %d, want %d", c.us, got, c.want)
		}
	}
}

func TestHistogramSnapshot(t *testing.T) {
	var h Histogram
	if s := h.Snapshot(); s.Count != 0 || s.P99US != 0 || len(s.Buckets) != 0 {
		t.Errorf("empty snapshot not empty: %+v", s)
	}
	// 99 fast observations and one slow one: P50/P90 land in the fast
	// bucket, P99 still in the fast bucket (rank 99 of 100), max is slow.
	for i := 0; i < 99; i++ {
		h.Observe(3 * time.Microsecond)
	}
	h.Observe(10 * time.Millisecond)
	s := h.Snapshot()
	if s.Count != 100 {
		t.Fatalf("count = %d, want 100", s.Count)
	}
	if s.MinUS != 3 || s.MaxUS != 10000 {
		t.Errorf("min/max = %d/%d, want 3/10000", s.MinUS, s.MaxUS)
	}
	if s.P50US != 4 || s.P90US != 4 || s.P99US != 4 {
		t.Errorf("quantile bounds = %d/%d/%d, want 4/4/4", s.P50US, s.P90US, s.P99US)
	}
	if len(s.Buckets) != 2 {
		t.Errorf("buckets = %+v, want 2 non-empty", s.Buckets)
	}
	wantMean := (99*3 + 10000) / 100.0
	if s.MeanUS != wantMean {
		t.Errorf("mean = %f, want %f", s.MeanUS, wantMean)
	}
	// Quantiles are clamped to the observed range: a tail that lands in the
	// (8192, 16384] bucket reports its max, not the bucket bound, while an
	// in-range bound (p50: 128) stands; a single-valued histogram reports
	// that value at every quantile.
	var tail Histogram
	for i := 0; i < 10; i++ {
		tail.Observe(100 * time.Microsecond)
	}
	tail.Observe(9 * time.Millisecond)
	if s := tail.Snapshot(); s.P50US != 128 || s.P99US != 9000 {
		t.Errorf("p50/p99 = %d/%d, want 128/9000", s.P50US, s.P99US)
	}
	var one Histogram
	one.Observe(3 * time.Microsecond)
	if s := one.Snapshot(); s.P50US != 3 || s.P90US != 3 || s.P99US != 3 {
		t.Errorf("single-value quantiles = %d/%d/%d, want 3/3/3", s.P50US, s.P90US, s.P99US)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				h.Observe(time.Duration(i*j) * time.Microsecond)
			}
		}(i)
	}
	wg.Wait()
	if got := h.Snapshot().Count; got != 8*200 {
		t.Errorf("count = %d, want %d", got, 8*200)
	}
}
