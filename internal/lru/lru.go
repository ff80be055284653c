// Package lru is the repository's one memo: a bounded least-recently-used
// map whose misses are computed at most once across concurrent callers
// (singleflight). The service's result, compile-artifact and trace caches,
// its request memo, and the experiment suite's program tier and run
// caches are all instances of Cache.
package lru

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"voltron/internal/par"
)

// Status classifies how a lookup was satisfied.
type Status int

const (
	// Miss: this caller computed the value.
	Miss Status = iota
	// Hit: the value was already cached.
	Hit
	// Deduped: an identical computation was in flight; this caller waited
	// for its result instead of computing.
	Deduped
	Statuses // the number of statuses, for per-status counters
)

func (s Status) String() string {
	switch s {
	case Hit:
		return "hit"
	case Deduped:
		return "dedup"
	}
	return "miss"
}

// ErrPanic is wrapped by the error a panicking computation fails with.
var ErrPanic = errors.New("computation panicked")

// Cache is a bounded LRU over completed entries plus singleflight
// deduplication of in-flight computations. Values must be immutable once
// stored, so concurrent callers may share them. Errors and panics are never
// cached: a failed computation frees its key for the next caller.
type Cache[K comparable, V any] struct {
	mu      sync.Mutex
	max     int
	entries map[K]*entry[K, V]
	order   list.List // completed entries, front = most recently used
	panics  atomic.Int64
}

// entry is one key's value. It is immutable once completed: Put replaces
// the entry instead of writing to it, so waiters read val without the lock.
type entry[K comparable, V any] struct {
	key  K
	elem *list.Element // nil while in flight
	done chan struct{} // closed when the computation ends; nil for Put
	val  V
	err  error
}

// New returns an empty cache holding at most max completed entries.
func New[K comparable, V any](max int) *Cache[K, V] {
	return &Cache[K, V]{max: max, entries: map[K]*entry[K, V]{}}
}

// Get returns the value for key, computing it via fn at most once across
// concurrent callers. A failed computation is not cached: its entry is
// removed, its waiters get its error, and the next caller computes afresh.
// A waiter whose own ctx ends stops waiting and returns ctx's error; the
// computation continues for the others. A computation that ends with its
// claimant's ctx error (context.Canceled or DeadlineExceeded) fails only
// that claimant: a waiter whose own ctx is live claims the key again. A
// panic in fn fails the claimant and its waiters with an error wrapping
// ErrPanic that carries the panic value but no stack.
func (c *Cache[K, V]) Get(ctx context.Context, key K, fn func() (V, error)) (V, Status, error) {
	var zero V
	c.mu.Lock()
	for e, ok := c.entries[key]; ok; e, ok = c.entries[key] {
		if e.elem != nil {
			c.order.MoveToFront(e.elem)
			c.mu.Unlock()
			return e.val, Hit, nil
		}
		c.mu.Unlock()
		select {
		case <-e.done:
			if e.err == nil {
				return e.val, Deduped, nil
			}
			if ctx.Err() != nil || !(errors.Is(e.err, context.Canceled) || errors.Is(e.err, context.DeadlineExceeded)) {
				return zero, Deduped, e.err
			}
		case <-ctx.Done():
			return zero, Deduped, ctx.Err()
		}
		c.mu.Lock()
	}
	e := &entry[K, V]{key: key, done: make(chan struct{})}
	c.entries[key] = e
	c.mu.Unlock()

	e.val, e.err = c.compute(key, fn)
	c.mu.Lock()
	if c.entries[key] == e { // else a Put replaced the claim
		if e.err != nil {
			delete(c.entries, key)
		} else {
			c.push(e)
		}
	}
	c.mu.Unlock()
	close(e.done)
	if e.err != nil {
		return zero, Miss, e.err
	}
	return e.val, Miss, nil
}

// compute runs fn, turning a panic into an error.
func (c *Cache[K, V]) compute(key K, fn func() (V, error)) (val V, err error) {
	defer func() {
		if p := recover(); p != nil {
			c.panics.Add(1)
			if pp, ok := p.(*par.Panic); ok {
				p = pp.Value // the value, not the stack it carries
			}
			var zero V
			val, err = zero, fmt.Errorf("computing %v: %w: %v", key, ErrPanic, p)
		}
	}()
	return fn()
}

// Completed returns the value stored under key when its computation has
// completed, marking it most recently used. It never claims or waits: a
// missing or in-flight entry reports false.
func (c *Cache[K, V]) Completed(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok || e.elem == nil {
		var zero V
		return zero, false
	}
	c.order.MoveToFront(e.elem)
	return e.val, true
}

// Put stores val under key as a completed entry, replacing any previous
// value, for stores filled as a side effect of other work.
func (c *Cache[K, V]) Put(key K, val V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if old, ok := c.entries[key]; ok && old.elem != nil {
		c.order.Remove(old.elem)
	}
	e := &entry[K, V]{key: key, val: val}
	c.entries[key] = e
	c.push(e)
}

// push makes e the most recently used completed entry and evicts past max.
// Callers hold mu.
func (c *Cache[K, V]) push(e *entry[K, V]) {
	e.elem = c.order.PushFront(e)
	for c.order.Len() > c.max {
		old := c.order.Remove(c.order.Back()).(*entry[K, V])
		delete(c.entries, old.key)
	}
}

// Len reports the number of completed entries.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// Panics reports how many computations panicked.
func (c *Cache[K, V]) Panics() int64 { return c.panics.Load() }
