package server

// Cluster is the in-process multi-replica harness: N replicas, each a full
// Server behind its own listener, wired into one consistent-hash ring. The
// e2e tests boot one to assert fleet behaviour (peer cache fill,
// byte-identical bodies, fleet-wide singleflight) and voltron-load's -spawn
// mode boots one to measure it — same code path as a real fleet, because it
// IS the real fleet: replicas talk to each other over TCP loopback exactly
// as they would across hosts.

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
)

// Cluster is a set of in-process replicas sharing a ring. Create with
// NewCluster, stop with Close (which drains every replica).
type Cluster struct {
	servers  []*Server
	frontend []*httptest.Server
	replicas []Replica
}

// NewCluster boots n replicas named r0..r(n-1), each configured with base
// plus the cluster membership. Listeners bind first so every replica knows
// the full peer URL set before any of them serves.
func NewCluster(n int, base Config) *Cluster {
	c := &Cluster{
		frontend: make([]*httptest.Server, n),
		replicas: make([]Replica, n),
	}
	for i := range c.frontend {
		c.frontend[i] = httptest.NewUnstartedServer(http.NotFoundHandler())
		c.replicas[i] = Replica{
			Name: fmt.Sprintf("r%d", i),
			URL:  "http://" + c.frontend[i].Listener.Addr().String(),
		}
	}
	for i := range c.frontend {
		cfg := base
		cfg.Self = c.replicas[i].Name
		cfg.Peers = c.replicas
		srv := New(cfg)
		c.servers = append(c.servers, srv)
		c.frontend[i].Config.Handler = srv.Handler()
		c.frontend[i].Start()
	}
	return c
}

// Size is the replica count.
func (c *Cluster) Size() int { return len(c.servers) }

// Server returns replica i's Server (metrics, internals).
func (c *Cluster) Server(i int) *Server { return c.servers[i] }

// URL returns replica i's base URL.
func (c *Cluster) URL(i int) string { return c.replicas[i].URL }

// URLs returns every replica's base URL in replica order.
func (c *Cluster) URLs() []string {
	urls := make([]string, len(c.replicas))
	for i, r := range c.replicas {
		urls[i] = r.URL
	}
	return urls
}

// Close shuts every replica down concurrently, draining in-flight requests
// (httptest.Server.Close blocks until outstanding requests finish).
// Concurrency matters beyond speed: replica A's drain may be blocked on a
// forward to replica B, so a sequential shutdown starting at B could wait on
// A's half-open request.
func (c *Cluster) Close() {
	var wg sync.WaitGroup
	for _, f := range c.frontend {
		wg.Add(1)
		go func(f *httptest.Server) {
			defer wg.Done()
			f.Close()
		}(f)
	}
	wg.Wait()
}
