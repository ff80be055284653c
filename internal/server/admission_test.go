package server

// Admission tests: per-class bounds shed with a pinned 429 contract
// (Retry-After header mirrored in a typed body), cached reads keep serving
// while the simulate queue sheds, and graceful shutdown drains admitted
// requests instead of dropping them.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"testing"
	"time"
)

// namedMediumJob is mediumJob with a distinct program name, so tests can
// make several simulate-class jobs that do not collapse in the cache.
func namedMediumJob(name string) string {
	return fmt.Sprintf(`{
		"program": {"kind": "kernels", "name": %q, "kernels": [
			{"kind": "pipeline", "name": "p", "table": 16384, "n": 16384, "work": 16}
		]},
		"strategy": "serial", "cores": 1
	}`, name)
}

// waitForDepth polls until the admitted simulate depth reaches want.
func waitForDepth(t *testing.T, s *Server, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if s.adm.depthOf(admSimulate) >= want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("simulate depth never reached %d (now %d)", want, s.adm.depthOf(admSimulate))
}

// TestAdmissionUnit pins admit/release bookkeeping: slots are reserved up
// to the limit, a shed snapshots the depth, release frees exactly one slot
// no matter how often it is called, and sheds are counted.
func TestAdmissionUnit(t *testing.T) {
	a := newAdmission(2, 1)
	rel1, depth, ok := a.admit(admSimulate)
	if !ok || depth != 1 {
		t.Fatalf("first admit: ok=%v depth=%d, want true/1", ok, depth)
	}
	rel2, depth, ok := a.admit(admSimulate)
	if !ok || depth != 2 {
		t.Fatalf("second admit: ok=%v depth=%d, want true/2", ok, depth)
	}
	if _, depth, ok := a.admit(admSimulate); ok || depth != 2 {
		t.Fatalf("over-limit admit: ok=%v depth=%d, want false/2", ok, depth)
	}
	if got := a.shed[admSimulate].Value(); got != 1 {
		t.Errorf("shed counter = %d, want 1", got)
	}
	// Classes are independent: cached-read still has its own slot.
	if _, _, ok := a.admit(admCachedRead); !ok {
		t.Error("cached-read admit failed while only simulate is full")
	}
	rel1()
	rel1() // double release must not free a second slot
	if got := a.depthOf(admSimulate); got != 1 {
		t.Errorf("depth after release = %d, want 1", got)
	}
	if _, _, ok := a.admit(admSimulate); !ok {
		t.Error("admit failed after a slot was released")
	}
	rel2()
}

// TestAdmissionSheds429 fills the simulate class and pins the shed
// contract: status 429, a Retry-After header whose value reappears in the
// typed JSON body along with class, depth and limit — and, per-class
// isolation: cached reads keep serving with the simulate queue full.
func TestAdmissionSheds429(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, AdmitSimulate: 1, AdmitCachedRead: 4})

	// Warm one tiny job so a cached-read exists to probe with later.
	if resp, b := postJob(t, ts, tinyJob()); resp.StatusCode != http.StatusOK {
		t.Fatalf("warm job: status %d: %s", resp.StatusCode, b)
	}

	// Occupy the single simulate slot with a job long enough to outlive the
	// shed assertions below (a beefed-up medium, not slowJob — this test
	// only needs hundreds of milliseconds of occupancy, not tens of seconds).
	occupier := `{
		"program": {"kind": "kernels", "name": "occupy", "kernels": [
			{"kind": "pipeline", "name": "p", "table": 16384, "n": 16384, "work": 64}
		]},
		"strategy": "serial", "cores": 1
	}`
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if resp, b := postJob(t, ts, occupier); resp.StatusCode != http.StatusOK {
			t.Errorf("occupying job: status %d: %s", resp.StatusCode, b)
		}
	}()
	waitForDepth(t, s, 1)

	// A second, distinct simulate-class job must shed.
	resp, body := postJob(t, ts, namedMediumJob("shed-me"))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d (body %.200s), want 429", resp.StatusCode, body)
	}
	ra := resp.Header.Get("Retry-After")
	secs, err := strconv.Atoi(ra)
	if err != nil || secs < 1 || secs > 30 {
		t.Fatalf("Retry-After = %q, want an integer in [1, 30]", ra)
	}
	var shed ShedResponse
	if err := json.Unmarshal(body, &shed); err != nil {
		t.Fatalf("shed body is not a ShedResponse: %v: %s", err, body)
	}
	if shed.Class != "simulate" || shed.QueueDepth != 1 || shed.QueueLimit != 1 {
		t.Errorf("shed body class/depth/limit = %s/%d/%d, want simulate/1/1",
			shed.Class, shed.QueueDepth, shed.QueueLimit)
	}
	if shed.RetryAfterSeconds != secs {
		t.Errorf("body retry_after_seconds = %d, header = %d; want equal", shed.RetryAfterSeconds, secs)
	}
	if shed.Error == "" || shed.SchemaVersion == 0 {
		t.Errorf("shed body missing error/schema_version: %+v", shed)
	}

	// Per-class isolation: the warmed job still serves as a cached read.
	cresp, _ := postJob(t, ts, tinyJob())
	if cresp.StatusCode != http.StatusOK || cresp.Header.Get("X-Voltron-Cache") != "hit" {
		t.Errorf("cached read during simulate shed: status %d cache %q, want 200/hit",
			cresp.StatusCode, cresp.Header.Get("X-Voltron-Cache"))
	}

	wg.Wait()

	// Shedding is not sticky: with the slot free, the shed job now runs.
	if resp, b := postJob(t, ts, namedMediumJob("shed-me")); resp.StatusCode != http.StatusOK {
		t.Errorf("post-drain retry: status %d: %.200s", resp.StatusCode, b)
	}

	m := s.Metrics()
	if m.ShedSimulate != 1 || m.ShedCachedRead != 0 {
		t.Errorf("shed counters sim/cached = %d/%d, want 1/0", m.ShedSimulate, m.ShedCachedRead)
	}
	if m.AdmitLimitSimulate != 1 || m.AdmitLimitCachedRead != 4 {
		t.Errorf("admit limits = %d/%d, want 1/4", m.AdmitLimitSimulate, m.AdmitLimitCachedRead)
	}
	if m.AdmitQueueSimulate != 0 || m.AdmitQueueCachedRead != 0 {
		t.Errorf("queues not empty at idle: %d/%d", m.AdmitQueueSimulate, m.AdmitQueueCachedRead)
	}
}

// TestAdmissionDrainCompletesQueued: graceful shutdown with non-empty
// queues. Three admitted jobs serialize through one worker; closing the
// front end while two are still queued must complete all three — admitted
// requests run inside their handlers, so the HTTP drain IS the queue drain.
func TestAdmissionDrainCompletesQueued(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, AdmitSimulate: 8})

	const jobs = 3
	statuses := make([]int, jobs)
	var wg sync.WaitGroup
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, b := postJob(t, ts, namedMediumJob(fmt.Sprintf("drain-%d", i)))
			statuses[i] = resp.StatusCode
			if resp.StatusCode != http.StatusOK {
				t.Errorf("job %d: status %d: %.200s", i, resp.StatusCode, b)
			}
		}(i)
	}
	waitForDepth(t, s, jobs) // one running, the rest admitted and queued

	ts.Close() // blocks until every in-flight handler returns
	wg.Wait()

	for i, code := range statuses {
		if code != http.StatusOK {
			t.Errorf("job %d finished with %d after drain, want 200", i, code)
		}
	}
	m := s.Metrics()
	if m.Simulations != jobs {
		t.Errorf("simulations = %d, want %d (drain must finish queued work)", m.Simulations, jobs)
	}
	if m.ShedSimulate != 0 {
		t.Errorf("drain shed %d requests, want 0", m.ShedSimulate)
	}
	if m.AdmitQueueSimulate != 0 {
		t.Errorf("admitted depth %d after drain, want 0", m.AdmitQueueSimulate)
	}
}
