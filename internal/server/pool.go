package server

// The warm-machine layer: a pool of reusable core.Machines keyed by machine
// configuration. With the artifact cache in front of it, the hot serving
// path is "one event loop per job": the compile stage is satisfied by the
// artifact cache and the machine by a Reset instead of a rebuild.

import (
	"sync"

	"voltron/internal/core"
	"voltron/internal/stats"
)

// machinePool keeps warm core.Machines per machine configuration so a
// worker slot grabs a reset machine instead of rebuilding the cache tag
// arrays, network queues and TM sets per job. A machine handed out by get
// is exclusively owned by the caller until put back — the pool never
// aliases a machine to two owners (asserted by a -race test). Only idle
// machines are bounded (perKey per configuration, maxIdle overall); in-use
// machines are already bounded by the worker semaphore.
type machinePool struct {
	mu      sync.Mutex
	perKey  int
	maxIdle int
	idle    map[string][]*core.Machine
	total   int

	hits   stats.Counter // get satisfied by a warm pooled machine
	resets stats.Counter // Machine.Reset calls performed on reuse
	news   stats.Counter // get built a fresh machine
}

// newMachinePool creates a pool bounded to perKey (at least 1) idle
// machines per configuration.
func newMachinePool(perKey int) *machinePool {
	return &machinePool{perKey: perKey, maxIdle: 4 * perKey, idle: map[string][]*core.Machine{}}
}

// get returns a machine configured per cfg, reusing (and resetting) a
// pooled one under the same key when available.
func (p *machinePool) get(key string, cfg core.Config) *core.Machine {
	p.mu.Lock()
	if q := p.idle[key]; len(q) > 0 {
		m := q[len(q)-1]
		q[len(q)-1] = nil
		p.idle[key] = q[:len(q)-1]
		p.total--
		p.mu.Unlock()
		p.hits.Inc()
		p.resets.Inc()
		m.Reset(cfg)
		return m
	}
	p.mu.Unlock()
	p.news.Inc()
	return core.New(cfg)
}

// put returns a machine to the pool; machines over the idle bounds are
// dropped for the GC.
func (p *machinePool) put(key string, m *core.Machine) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.idle[key]) >= p.perKey || p.total >= p.maxIdle {
		return
	}
	p.idle[key] = append(p.idle[key], m)
	p.total++
}

// size reports the number of idle pooled machines.
func (p *machinePool) size() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.total
}
