package mem

// Set-associative cache with LRU replacement. The caches in this model are
// timing-and-coherence only: data lives in the functional backing store
// (Flat); the caches track tags and MOESI states to produce latencies,
// coherence traffic, and the conflict signals the transactional memory and
// the stall accounting need.

// lineState is a MOESI state.
type lineState uint8

// MOESI states. Plain (non-coherent) caches use only invalid/valid(=shared)
// plus the dirty bit.
const (
	invalid lineState = iota
	shared
	exclusive
	owned
	modified
)

func (s lineState) String() string {
	switch s {
	case invalid:
		return "I"
	case shared:
		return "S"
	case exclusive:
		return "E"
	case owned:
		return "O"
	case modified:
		return "M"
	}
	return "?"
}

type line struct {
	tag   int64
	state lineState
	lru   int64
}

// CacheCfg sizes one cache.
type CacheCfg struct {
	SizeBytes int64
	Assoc     int
	LineBytes int64
	HitLat    int64
}

// cache is the tag store: one flat set-major array (numSets × assoc lines)
// so a set scan is a contiguous walk and a hit yields a flat line index the
// caller can reuse for state reads, state writes and LRU touches without
// re-scanning the set.
type cache struct {
	cfg     CacheCfg
	lines   []line
	numSets int64
	tick    int64
	// Shift/mask fast path for the usual power-of-two geometry (index is
	// on the critical path of every simulated memory access).
	pow2      bool
	lineShift uint
	setShift  uint
}

func newCache(cfg CacheCfg) *cache {
	numSets := cfg.SizeBytes / (cfg.LineBytes * int64(cfg.Assoc))
	if numSets < 1 {
		numSets = 1
	}
	c := &cache{cfg: cfg, lines: make([]line, numSets*int64(cfg.Assoc)), numSets: numSets}
	if cfg.LineBytes&(cfg.LineBytes-1) == 0 && numSets&(numSets-1) == 0 {
		c.pow2 = true
		for v := cfg.LineBytes; v > 1; v >>= 1 {
			c.lineShift++
		}
		for v := numSets; v > 1; v >>= 1 {
			c.setShift++
		}
	}
	return c
}

func (c *cache) index(addr int64) (set int64, tag int64) {
	lineAddr := c.lineOf(addr)
	if c.pow2 {
		return lineAddr & (c.numSets - 1), lineAddr >> c.setShift
	}
	return lineAddr % c.numSets, lineAddr / c.numSets
}

// lineOf returns the line address of addr: addresses with the same line
// address map to the same set and tag.
func (c *cache) lineOf(addr int64) int64 {
	if c.pow2 {
		return addr >> c.lineShift
	}
	return addr / c.cfg.LineBytes
}

// addrRange is the byte addresses [base, base+size); the zero value is
// empty.
type addrRange struct {
	base, size int64
}

// lineRange returns the addresses of addr's line. It is empty for a
// negative addr: under division indexing such a line is not one
// contiguous range.
func (c *cache) lineRange(addr int64) addrRange {
	if addr < 0 {
		return addrRange{}
	}
	return addrRange{base: c.lineOf(addr) * c.cfg.LineBytes, size: c.cfg.LineBytes}
}

// find returns the flat index of the line holding addr, or -1.
func (c *cache) find(addr int64) int {
	set, tag := c.index(addr)
	base := int(set) * c.cfg.Assoc
	for i := base; i < base+c.cfg.Assoc; i++ {
		l := &c.lines[i]
		if l.state != invalid && l.tag == tag {
			return i
		}
	}
	return -1
}

// touchIdx refreshes LRU for a resident line found by find.
func (c *cache) touchIdx(i int) {
	c.tick++
	c.lines[i].lru = c.tick
}

// stateOf returns the MOESI state of the line holding addr.
func (c *cache) stateOf(addr int64) lineState {
	i := c.find(addr)
	if i < 0 {
		return invalid
	}
	return c.lines[i].state
}

// fill inserts addr with the given state, evicting LRU; it returns the
// victim's state and line base address (victim.state == invalid when no
// writeback-relevant eviction happened).
func (c *cache) fill(addr int64, s lineState) (victimState lineState, victimAddr int64) {
	set, tag := c.index(addr)
	base := int(set) * c.cfg.Assoc
	// Prefer an invalid way.
	victim := base
	for i := base; i < base+c.cfg.Assoc; i++ {
		if c.lines[i].state == invalid {
			victim = i
			goto place
		}
	}
	for i := base; i < base+c.cfg.Assoc; i++ {
		if c.lines[i].lru < c.lines[victim].lru {
			victim = i
		}
	}
place:
	v := c.lines[victim]
	victimState = v.state
	victimAddr = (v.tag*c.numSets + set) * c.cfg.LineBytes
	c.tick++
	c.lines[victim] = line{tag: tag, state: s, lru: c.tick}
	return victimState, victimAddr
}

// reset restores a freshly constructed cache's state — every line invalid
// with zeroed tags and LRU stamps, clock rewound — while keeping the tag
// array allocation. Unlike flushAll it erases tags and LRU order too, so a
// reset cache is indistinguishable from a new one (machine pooling depends
// on that for byte-identical reruns).
func (c *cache) reset() {
	clear(c.lines)
	c.tick = 0
}

// flushAll invalidates every line, returning how many were dirty (M or O).
func (c *cache) flushAll() int {
	dirty := 0
	for i := range c.lines {
		st := c.lines[i].state
		if st == modified || st == owned {
			dirty++
		}
		c.lines[i].state = invalid
	}
	return dirty
}
