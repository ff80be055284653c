package stats

// Serving-side metrics: the cycle accounting above describes the simulated
// machine; Counter and Histogram describe the host-side service that runs
// it (voltron-serve). Both are safe for concurrent use.

import (
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a concurrency-safe accumulator. Deltas may be negative, so a
// Counter can also track a level (e.g. current queue depth) via paired
// Add(1)/Add(-1) calls.
type Counter struct {
	n atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.n.Add(1) }

// Add adds delta (which may be negative).
func (c *Counter) Add(delta int64) { c.n.Add(delta) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.n.Load() }

// Histogram buckets are log-linear: values below 16 µs have a bucket each,
// and every octave [2^e, 2^(e+1)) above is split into histSub equal-width
// sub-buckets. A bucket's upper bound is then within 1/histSub (12.5%) of
// any value in it, at constant memory over the whole int64 range.
const (
	histSubBits = 3
	histSub     = 1 << histSubBits
	histBuckets = (64 - histSubBits) * histSub // bucketOf(MaxInt64) is the last
)

// Histogram is a concurrency-safe latency histogram with log-linear
// microsecond buckets — constant-memory, cheap to observe into, and
// honest to 12.5% at every quantile, which is what a per-request metrics
// path wants.
type Histogram struct {
	mu     sync.Mutex
	counts [histBuckets]int64
	count  int64
	sumUS  int64
	minUS  int64
	maxUS  int64
}

// bucketOf maps a microsecond latency to its bucket index.
func bucketOf(us int64) int {
	if us < 2*histSub {
		return int(max(us, 0))
	}
	e := bits.Len64(uint64(us)) - 1 // us is in octave [2^e, 2^(e+1))
	return (e-histSubBits+1)*histSub + int(us>>(e-histSubBits))&(histSub-1)
}

// Observe records one latency.
func (h *Histogram) Observe(d time.Duration) {
	us := d.Microseconds()
	if us < 0 {
		us = 0
	}
	h.mu.Lock()
	h.counts[bucketOf(us)]++
	if h.count == 0 || us < h.minUS {
		h.minUS = us
	}
	if us > h.maxUS {
		h.maxUS = us
	}
	h.count++
	h.sumUS += us
	h.mu.Unlock()
}

// HistBucket is one non-empty histogram bucket: Count observations were
// ≤ LeUS microseconds (and above the previous bucket's bound).
type HistBucket struct {
	LeUS  int64 `json:"le_us"`
	Count int64 `json:"count"`
}

// HistogramSnapshot is a point-in-time copy of a Histogram, shaped for
// JSON (the /metrics endpoint serves these directly).
type HistogramSnapshot struct {
	Count   int64        `json:"count"`
	MeanUS  float64      `json:"mean_us"`
	MinUS   int64        `json:"min_us"`
	MaxUS   int64        `json:"max_us"`
	P50US   int64        `json:"p50_us"`
	P90US   int64        `json:"p90_us"`
	P99US   int64        `json:"p99_us"`
	Buckets []HistBucket `json:"buckets,omitempty"`
}

// Snapshot returns a consistent copy of the histogram. Quantiles are
// upper-bound estimates — the bound of the bucket containing the quantile —
// clamped to the observed [min, max], so no quantile exceeds the slowest
// observation.
func (h *Histogram) Snapshot() HistogramSnapshot {
	h.mu.Lock()
	counts := h.counts
	s := HistogramSnapshot{Count: h.count, MinUS: h.minUS, MaxUS: h.maxUS}
	if h.count > 0 {
		s.MeanUS = float64(h.sumUS) / float64(h.count)
	}
	h.mu.Unlock()
	for i, n := range counts {
		if n > 0 {
			s.Buckets = append(s.Buckets, HistBucket{LeUS: bucketBound(i), Count: n})
		}
	}
	q := func(p float64) int64 {
		return min(max(quantileBound(counts[:], s.Count, p), s.MinUS), s.MaxUS)
	}
	s.P50US, s.P90US, s.P99US = q(0.50), q(0.90), q(0.99)
	return s
}

// bucketBound is the inclusive upper bound (µs) of bucket i.
func bucketBound(i int) int64 {
	if i < 2*histSub {
		return int64(i)
	}
	shift := i/histSub - 1 // sub-bucket width is 1<<shift
	lower := int64(histSub+i%histSub) << shift
	return lower + (int64(1)<<shift - 1)
}

// quantileBound returns the upper bound of the bucket holding quantile q.
func quantileBound(counts []int64, total int64, q float64) int64 {
	if total == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i, n := range counts {
		seen += n
		if seen >= rank {
			return bucketBound(i)
		}
	}
	return bucketBound(len(counts) - 1)
}
