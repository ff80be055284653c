package server

// Multi-replica e2e: the in-process cluster harness (NewCluster) backing
// the fleet guarantees — peer cache fill, byte-identical bodies on every
// replica, fleet-wide singleflight, and trace lookups that follow the ring.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"testing"

	"voltron/internal/spec"
)

// clusterJob builds the i-th normalized inline job of a deterministic
// family, returning its POST body and run key. The trace flag is part of
// the key, so traced and untraced variants shard independently.
func clusterJob(t *testing.T, i int, traced bool) ([]byte, string) {
	t.Helper()
	req := &spec.JobRequest{
		Program: &spec.ProgramSpec{
			Kind: spec.KindKernels,
			Name: fmt.Sprintf("cl%03d", i),
			Kernels: []spec.KernelSpec{
				{Kind: "doall-map", Name: "m", N: 64, Work: 2},
				{Kind: "serial-chain", Name: "c", N: 16},
			},
		},
		Strategy: "llp",
		Cores:    2,
		Trace:    traced,
	}
	if err := req.Normalize(func(string) bool { return false }); err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return b, req.Key()
}

// jobOwnedBy finds a job in the clusterJob family whose ring owner is
// replica `owner`, so tests can choose where a job's home is.
func jobOwnedBy(t *testing.T, c *Cluster, owner string, traced bool) ([]byte, string) {
	t.Helper()
	for i := 0; i < 1000; i++ {
		body, key := clusterJob(t, i, traced)
		if c.Server(0).ring.owner(spec.RingKeyOf(key)) == owner {
			return body, key
		}
	}
	t.Fatalf("no clusterJob owned by %s in 1000 candidates", owner)
	return nil, ""
}

// postRaw posts a prebuilt body to a URL and returns response + body.
func postRaw(t *testing.T, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s/v1/jobs: %v", url, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatalf("reading body: %v", err)
	}
	return resp, buf.Bytes()
}

// TestClusterPeerCacheFill is the acceptance scenario: a job simulated once
// on its owning replica is served by another replica as a cache hit via
// peer, with a byte-identical body, and afterwards serves locally on the
// non-owner (the fill warmed it).
func TestClusterPeerCacheFill(t *testing.T) {
	c := NewCluster(3, Config{Workers: 2})
	defer c.Close()
	job, key := jobOwnedBy(t, c, "r0", false)

	// Simulate on the owner: a plain local miss, no peer involved.
	resp0, b0 := postRaw(t, c.URL(0), job)
	if resp0.StatusCode != http.StatusOK {
		t.Fatalf("owner job: status %d, body %s", resp0.StatusCode, b0)
	}
	if got := resp0.Header.Get("X-Voltron-Cache"); got != "miss" {
		t.Errorf("owner first touch cache status = %q, want miss", got)
	}
	if got := resp0.Header.Get("X-Voltron-Peer"); got != "" {
		t.Errorf("owner served its own key via peer %q", got)
	}

	// The same job on a non-owner: filled from the owner, reported as the
	// fleet-level hit, body byte-identical to the owner's.
	resp1, b1 := postRaw(t, c.URL(1), job)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("non-owner job: status %d, body %s", resp1.StatusCode, b1)
	}
	if got := resp1.Header.Get("X-Voltron-Cache"); got != "hit" {
		t.Errorf("non-owner cache status = %q, want hit (via peer)", got)
	}
	if got := resp1.Header.Get("X-Voltron-Peer"); got != "r0" {
		t.Errorf("X-Voltron-Peer = %q, want r0", got)
	}
	if !bytes.Equal(b0, b1) {
		t.Errorf("bodies differ across replicas:\n%s\n%s", b0, b1)
	}

	// The fill warmed replica 1: a repeat serves locally (no peer header).
	resp2, b2 := postRaw(t, c.URL(1), job)
	if got := resp2.Header.Get("X-Voltron-Cache"); got != "hit" {
		t.Errorf("warmed non-owner cache status = %q, want hit", got)
	}
	if got := resp2.Header.Get("X-Voltron-Peer"); got != "" {
		t.Errorf("warmed non-owner still forwarding (peer %q)", got)
	}
	if !bytes.Equal(b0, b2) {
		t.Error("warmed body differs from the owner's")
	}

	// One simulation total, on the owner; replica 1 recorded the fill.
	var sims int64
	for i := 0; i < c.Size(); i++ {
		sims += c.Server(i).Metrics().Simulations
	}
	if sims != 1 {
		t.Errorf("fleet ran %d simulations of one job, want 1", sims)
	}
	m1 := c.Server(1).Metrics()
	if m1.PeerFills != 1 || m1.PeerFallbacks != 0 {
		t.Errorf("replica 1 peer fills/fallbacks = %d/%d, want 1/0", m1.PeerFills, m1.PeerFallbacks)
	}
	_ = key
}

// TestClusterNonOwnerFirstTouch: a job that first lands on a non-owner is
// forwarded, simulated exactly once on the owner, and the forwarding
// replica reports the owner's miss plus the peer that served it.
func TestClusterNonOwnerFirstTouch(t *testing.T) {
	c := NewCluster(2, Config{Workers: 2})
	defer c.Close()
	job, _ := jobOwnedBy(t, c, "r1", false)

	resp, b := postRaw(t, c.URL(0), job)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, body %s", resp.StatusCode, b)
	}
	if got := resp.Header.Get("X-Voltron-Cache"); got != "miss" {
		t.Errorf("cache status = %q, want miss (owner simulated on demand)", got)
	}
	if got := resp.Header.Get("X-Voltron-Peer"); got != "r1" {
		t.Errorf("X-Voltron-Peer = %q, want r1", got)
	}
	if m0, m1 := c.Server(0).Metrics(), c.Server(1).Metrics(); m0.Simulations != 0 || m1.Simulations != 1 {
		t.Errorf("simulations r0/r1 = %d/%d, want 0/1 (only the owner simulates)", m0.Simulations, m1.Simulations)
	}
}

// TestClusterSingleflightAcrossReplicas hammers one identical job at every
// replica concurrently: the owner's singleflight must collapse local
// clients and peer forwards alike onto a single simulation, and every
// caller gets byte-identical bytes. Run with -race, this is also the
// concurrency proof for the ring + peer-fill path.
func TestClusterSingleflightAcrossReplicas(t *testing.T) {
	c := NewCluster(3, Config{Workers: 4})
	defer c.Close()

	const perReplica = 4
	n := c.Size() * perReplica
	bodies := make([][]byte, n)
	statuses := make([]int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, b := postRaw(t, c.URL(i%c.Size()), []byte(mediumJob()))
			statuses[i], bodies[i] = resp.StatusCode, b
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if statuses[i] != http.StatusOK {
			t.Fatalf("request %d: status %d, body %s", i, statuses[i], bodies[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Errorf("request %d body differs", i)
		}
	}
	var sims, fills int64
	for i := 0; i < c.Size(); i++ {
		m := c.Server(i).Metrics()
		sims += m.Simulations
		fills += m.PeerFills
	}
	if sims != 1 {
		t.Errorf("fleet ran %d simulations, want 1 (cross-replica singleflight broken)", sims)
	}
	if fills != 2 {
		t.Errorf("peer fills = %d, want 2 (one per non-owner replica)", fills)
	}
}

// TestClusterTraceFollowsRing: a traced job forwarded to its owner leaves
// the trace blob on the owner; any replica can serve the trace URL by
// forwarding the lookup the same way, and the fetch fills its local store.
func TestClusterTraceFollowsRing(t *testing.T) {
	c := NewCluster(3, Config{Workers: 2})
	defer c.Close()
	traced, _ := jobOwnedBy(t, c, "r0", true)

	// POST the traced job at a non-owner: the owner runs it and keeps the
	// trace blob; the response (with the trace URL) fills replica 1.
	resp, b := postRaw(t, c.URL(1), traced)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("traced job: status %d, body %s", resp.StatusCode, b)
	}
	var jr JobResponse
	if err := json.Unmarshal(b, &jr); err != nil {
		t.Fatal(err)
	}
	if jr.TraceURL == "" {
		t.Fatalf("traced job response has no trace_url: %s", b)
	}

	// Fetch the trace from a replica that neither ran nor forwarded the job:
	// it must follow the ring to the owner and relay the blob.
	get := func(i int) (*http.Response, []byte) {
		resp, err := http.Get(c.URL(i) + jr.TraceURL)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp, buf.Bytes()
	}
	tresp, tb := get(2)
	if tresp.StatusCode != http.StatusOK {
		t.Fatalf("trace via replica 2: status %d: %.200s", tresp.StatusCode, tb)
	}
	if got := tresp.Header.Get("X-Voltron-Peer"); got != "r0" {
		t.Errorf("trace X-Voltron-Peer = %q, want r0", got)
	}
	if !json.Valid(tb) || !bytes.Contains(tb, []byte("traceEvents")) {
		t.Errorf("forwarded trace is not Chrome trace JSON: %.200s", tb)
	}

	// The fill warmed replica 2: the repeat serves locally, byte-identical.
	tresp2, tb2 := get(2)
	if tresp2.StatusCode != http.StatusOK || tresp2.Header.Get("X-Voltron-Peer") != "" {
		t.Errorf("warmed trace fetch: status %d, peer %q; want local 200",
			tresp2.StatusCode, tresp2.Header.Get("X-Voltron-Peer"))
	}
	if !bytes.Equal(tb, tb2) {
		t.Error("trace bytes differ between peer fill and local re-read")
	}
}
