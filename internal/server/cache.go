package server

import (
	"container/list"
	"context"
	"fmt"
	"sync"

	"voltron/internal/spec"
	"voltron/internal/stats"
)

// cacheStatus classifies how a lookup was satisfied.
type cacheStatus int

const (
	// cacheMiss: this request computed the value.
	cacheMiss cacheStatus = iota
	// cacheHit: the value was already cached.
	cacheHit
	// cacheDeduped: an identical request was in flight; this one waited for
	// its result instead of computing (singleflight).
	cacheDeduped
	cacheStatuses // the number of statuses, for per-status counters
)

func (s cacheStatus) String() string {
	switch s {
	case cacheHit:
		return "hit"
	case cacheDeduped:
		return "dedup"
	}
	return "miss"
}

// sfCache is a content-addressed cache: bounded LRU over completed entries
// plus singleflight deduplication of in-flight computations. Values must be
// immutable once computed — rendered response bodies, compiled artifacts —
// so concurrent callers may share them. The server instantiates it twice:
// as the per-run result cache (V = []byte, the rendered response) and as
// the compile-artifact cache (V = *core.CompiledProgram, shared across
// every run keyed to the same compile identity).
type sfCache[V any] struct {
	mu      sync.Mutex
	max     int
	entries map[string]*sfEntry[V]
	lru     list.List // completed entries, front = most recently used
	// panics counts computations that panicked (contained by get).
	panics stats.Counter
}

type sfEntry[V any] struct {
	key  string
	elem *list.Element // nil while in flight
	done chan struct{}
	val  V
	err  error
}

func newSFCache[V any](max int) *sfCache[V] {
	return &sfCache[V]{max: max, entries: map[string]*sfEntry[V]{}}
}

// cache is the rendered-response instantiation, the original result cache.
type cache = sfCache[[]byte]

func newCache(max int) *cache { return newSFCache[[]byte](max) }

// get returns the value for key, computing it via fn at most once across
// concurrent callers. Errors are not cached: the failed entry is removed so
// a later request retries (this also covers cancellation — a canceled
// claimant aborts its waiters with the same error, and the next identical
// request starts fresh). A waiter whose own ctx is canceled stops waiting
// and returns its ctx error; the in-flight computation continues for the
// other waiters. A panic in fn is contained the same way: the entry is
// removed and the claimant and its waiters fail with a typed
// spec.ErrInternal error instead of the key staying in flight forever.
func (c *sfCache[V]) get(ctx context.Context, key string, fn func() (V, error)) (V, cacheStatus, error) {
	var zero V
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		if e.elem != nil { // completed
			c.lru.MoveToFront(e.elem)
			c.mu.Unlock()
			return e.val, cacheHit, nil
		}
		c.mu.Unlock()
		select {
		case <-e.done:
			if e.err != nil {
				return zero, cacheDeduped, e.err
			}
			return e.val, cacheDeduped, nil
		case <-ctx.Done():
			return zero, cacheDeduped, ctx.Err()
		}
	}
	e := &sfEntry[V]{key: key, done: make(chan struct{})}
	c.entries[key] = e
	c.mu.Unlock()

	e.val, e.err = c.compute(key, fn)
	c.mu.Lock()
	if e.err != nil {
		delete(c.entries, key)
	} else {
		e.elem = c.lru.PushFront(e)
		for c.lru.Len() > c.max {
			old := c.lru.Remove(c.lru.Back()).(*sfEntry[V])
			delete(c.entries, old.key)
		}
	}
	c.mu.Unlock()
	close(e.done)
	if e.err != nil {
		return zero, cacheMiss, e.err
	}
	return e.val, cacheMiss, nil
}

// compute runs fn, turning a panic into a typed internal error.
func (c *sfCache[V]) compute(key string, fn func() (V, error)) (val V, err error) {
	defer func() {
		if p := recover(); p != nil {
			c.panics.Inc()
			var zero V
			val, err = zero, &spec.Error{Code: spec.ErrInternal, Message: fmt.Sprintf("computing %s panicked: %v", key, p)}
		}
	}()
	return fn()
}

// completed returns the value cached under key when its computation has
// completed, marking it most recently used. It never claims or waits: a
// missing or in-flight entry reports false.
func (c *sfCache[V]) completed(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok || e.elem == nil {
		var zero V
		return zero, false
	}
	c.lru.MoveToFront(e.elem)
	return e.val, true
}

// len reports the number of completed cached entries.
func (c *sfCache[V]) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// lru is a bounded LRU map with no singleflight: values are stored as a
// side effect of other work, never computed on read. The server uses it
// twice — as the rendered-trace store (job content key → Chrome trace JSON)
// and as the request memo (body digest → content key, see handleJob).
type lru[K comparable, V any] struct {
	mu      sync.Mutex
	max     int
	entries map[K]*list.Element
	order   list.List // of *lruEntry, front = most recently used
}

type lruEntry[K comparable, V any] struct {
	key K
	val V
}

func newLRU[K comparable, V any](max int) *lru[K, V] {
	return &lru[K, V]{max: max, entries: map[K]*list.Element{}}
}

// put stores val under key (overwriting any previous value).
func (c *lru[K, V]) put(key K, val V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		el.Value.(*lruEntry[K, V]).val = val
		c.order.MoveToFront(el)
		return
	}
	c.entries[key] = c.order.PushFront(&lruEntry[K, V]{key: key, val: val})
	for c.order.Len() > c.max {
		old := c.order.Remove(c.order.Back()).(*lruEntry[K, V])
		delete(c.entries, old.key)
	}
}

// get returns the value for key, if still resident.
func (c *lru[K, V]) get(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*lruEntry[K, V]).val, true
}
