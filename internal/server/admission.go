package server

// Admission control: bounded per-class queues in front of the worker slots.
// A request is classified before it is admitted — "cached-read" if its
// content address already has a completed local cache entry (microseconds
// of work), "simulate" otherwise (it may compile and run an event loop) —
// and each class has its own bound on concurrently admitted requests. A
// class at its bound sheds with a typed 429 body and a Retry-After estimate
// instead of queueing without limit: under open-loop overload an unbounded
// queue only converts every request into a timeout, while shedding keeps
// the admitted ones fast and tells clients when to come back. Admitted
// requests run synchronously inside their handlers, so http.Server draining
// also drains the admission queues — shutdown completes every admitted
// request (a test pins this) and sheds nothing.

import (
	"sync"

	"voltron/internal/stats"
)

// admClass classifies one request's expected cost.
type admClass int

const (
	// admSimulate: the request may compile and simulate (no completed cache
	// entry for its key).
	admSimulate admClass = iota
	// admCachedRead: the request's key has a completed cache entry; serving
	// it is a lookup plus a write.
	admCachedRead
	admClasses
)

func (c admClass) String() string {
	if c == admCachedRead {
		return "cached-read"
	}
	return "simulate"
}

// admission holds the per-class bounds and current depths. Depth counts
// requests between admit and release — waiting for a worker slot or running —
// so the bound covers the whole residence of a request, not just its queue
// wait.
type admission struct {
	mu    sync.Mutex
	limit [admClasses]int
	depth [admClasses]int
	shed  [admClasses]stats.Counter
}

func newAdmission(simulate, cachedRead int) *admission {
	a := &admission{}
	a.limit[admSimulate] = simulate
	a.limit[admCachedRead] = cachedRead
	return a
}

// admit reserves one slot in class c. ok=false means the class is at its
// bound and the request must be shed; the returned snapshot of depth backs
// the 429 body. On success the caller must call release exactly once
// (calling it more than once is harmless).
func (a *admission) admit(c admClass) (release func(), depth int, ok bool) {
	a.mu.Lock()
	if a.depth[c] >= a.limit[c] {
		depth = a.depth[c]
		a.mu.Unlock()
		a.shed[c].Inc()
		return nil, depth, false
	}
	a.depth[c]++
	depth = a.depth[c]
	a.mu.Unlock()
	var once sync.Once
	return func() {
		once.Do(func() {
			a.mu.Lock()
			a.depth[c]--
			a.mu.Unlock()
		})
	}, depth, true
}

// depthOf reports the current admitted depth of class c.
func (a *admission) depthOf(c admClass) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.depth[c]
}

// ShedResponse is the typed 429 body: which queue was full, how full, and
// when to retry (the same value as the Retry-After header). Code is the
// stable machine-readable identifier (always spec.ErrQueueFull), matching
// the error model of every other failing endpoint.
type ShedResponse struct {
	SchemaVersion     int    `json:"schema_version"`
	Code              string `json:"code"`
	Error             string `json:"error"`
	Class             string `json:"class"`
	QueueDepth        int    `json:"queue_depth"`
	QueueLimit        int    `json:"queue_limit"`
	RetryAfterSeconds int    `json:"retry_after_seconds"`
}
