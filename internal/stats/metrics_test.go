package stats

import (
	"math"
	"math/rand"
	"slices"
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
		{-1, 0}, {0, 0}, {1, 1}, {15, 15}, {16, 16}, {17, 16}, {18, 17}, {31, 23},
		{32, 24}, {1024, 64}, {1151, 64}, {1152, 65}, {math.MaxInt64, histBuckets - 1},
	}
	for _, c := range cases {
		if got := bucketOf(c.us); got != c.want {
			t.Errorf("bucketOf(%d) = %d, want %d", c.us, got, c.want)
		}
	}
	// Every bucket's bound is the last value mapping to it, and the first
	// value of the next bucket follows it directly.
	for i := 0; i < histBuckets-1; i++ {
		b := bucketBound(i)
		if bucketOf(b) != i || bucketOf(b+1) != i+1 {
			t.Fatalf("bucket %d: bound %d maps to %d, bound+1 to %d", i, b, bucketOf(b), bucketOf(b+1))
		}
	}
	if b := bucketBound(histBuckets - 1); b != math.MaxInt64 {
		t.Errorf("last bucket bound %d, want MaxInt64", b)
	}
}

// TestHistogramQuantileError checks the log-linear buckets' promise: p50,
// p90 and p99 of a seeded sample spanning six decades lie within 12.5% of
// the sample's exact quantiles.
func TestHistogramQuantileError(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var h Histogram
	sample := make([]int64, 20000)
	for i := range sample {
		us := int64(math.Exp(rng.NormFloat64()*2 + 7))
		sample[i] = us
		h.Observe(time.Duration(us) * time.Microsecond)
	}
	slices.Sort(sample)
	s := h.Snapshot()
	for _, q := range []struct {
		p   float64
		got int64
	}{{0.50, s.P50US}, {0.90, s.P90US}, {0.99, s.P99US}} {
		exact := sample[int(math.Ceil(q.p*float64(len(sample))))-1]
		if err := math.Abs(float64(q.got-exact)) / float64(exact); err > 0.125 {
			t.Errorf("p%g = %d, exact %d: relative error %.3f > 0.125", q.p*100, q.got, exact, err)
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
	// Values below 16 µs have exact buckets.
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
	if s.P50US != 3 || s.P90US != 3 || s.P99US != 3 {
		t.Errorf("quantile bounds = %d/%d/%d, want 3/3/3", s.P50US, s.P90US, s.P99US)
	}
	if len(s.Buckets) != 2 {
		t.Errorf("buckets = %+v, want 2 non-empty", s.Buckets)
	}
	wantMean := (99*3 + 10000) / 100.0
	if s.MeanUS != wantMean {
		t.Errorf("mean = %f, want %f", s.MeanUS, wantMean)
	}
	// Quantiles are clamped to the observed range: a tail that lands in the
	// [8192, 9215] bucket reports its max, not the bucket bound, while an
	// in-range bound (p50: 103, of [96, 103]) stands; a single-valued
	// histogram reports that value at every quantile.
	var tail Histogram
	for i := 0; i < 10; i++ {
		tail.Observe(100 * time.Microsecond)
	}
	tail.Observe(9 * time.Millisecond)
	if s := tail.Snapshot(); s.P50US != 103 || s.P99US != 9000 {
		t.Errorf("p50/p99 = %d/%d, want 103/9000", s.P50US, s.P99US)
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
