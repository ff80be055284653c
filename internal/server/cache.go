package server

import (
	"container/list"
	"context"
	"sync"
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
// other waiters.
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

	e.val, e.err = fn()
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

// replace swaps the completed value cached under key for a new one (the
// stall-report feedback loop re-selects compiled artifacts after they were
// cached). The old entry is removed and a fresh completed entry inserted —
// dedup waiters may still be reading the old entry's fields after its done
// channel closed, so a cached entry is never mutated in place. An in-flight
// entry is left alone: its claimant will install its own result.
func (c *sfCache[V]) replace(key string, val V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if old, ok := c.entries[key]; ok {
		if old.elem == nil {
			return // in flight; never race the claimant
		}
		c.lru.Remove(old.elem)
		delete(c.entries, key)
	}
	e := &sfEntry[V]{key: key, done: make(chan struct{}), val: val}
	close(e.done)
	e.elem = c.lru.PushFront(e)
	c.entries[key] = e
	for c.lru.Len() > c.max {
		old := c.lru.Remove(c.lru.Back()).(*sfEntry[V])
		delete(c.entries, old.key)
	}
}

// peek reports whether a completed value is cached under key, without
// claiming, waiting, or touching LRU order. Admission control uses it to
// classify a request as a cached read before deciding whether to admit it.
func (c *sfCache[V]) peek(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	return ok && e.elem != nil
}

// len reports the number of completed cached entries.
func (c *sfCache[V]) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// blobStore is a bounded LRU of immutable rendered blobs (trace JSON),
// keyed by job content address. Unlike cache it has no singleflight: blobs
// are stored as a side effect of a job computing, never computed on read.
type blobStore struct {
	mu      sync.Mutex
	max     int
	entries map[string]*list.Element
	lru     list.List // of blobEntry, front = most recently used
}

type blobEntry struct {
	key string
	val []byte
}

func newBlobStore(max int) *blobStore {
	return &blobStore{max: max, entries: map[string]*list.Element{}}
}

// put stores a blob (overwriting any previous value for key).
func (b *blobStore) put(key string, val []byte) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if el, ok := b.entries[key]; ok {
		el.Value.(*blobEntry).val = val
		b.lru.MoveToFront(el)
		return
	}
	b.entries[key] = b.lru.PushFront(&blobEntry{key: key, val: val})
	for b.lru.Len() > b.max {
		old := b.lru.Remove(b.lru.Back()).(*blobEntry)
		delete(b.entries, old.key)
	}
}

// get returns the blob for key, if still resident.
func (b *blobStore) get(key string) ([]byte, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	el, ok := b.entries[key]
	if !ok {
		return nil, false
	}
	b.lru.MoveToFront(el)
	return el.Value.(*blobEntry).val, true
}
