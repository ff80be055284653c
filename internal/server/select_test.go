package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
)

// The tiered-selection surface: the X-Voltron-Select header, the /metrics
// per-tier counters and the traced-auto recheck path.

// autoJob is tinyJob compiled under tiered selection.
func autoJob() string {
	return strings.Replace(tinyJob(), `"strategy": "llp", "cores": 2`,
		`"strategy": "hybrid", "cores": 2, "compiler": {"select": "auto"}`, 1)
}

func metricsOf(t *testing.T, url string) MetricsSnapshot {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m MetricsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestSelectHeaderAndCounters: a fresh compile reports how selection
// decided its artifact, and the per-tier counters advance with it.
func TestSelectHeaderAndCounters(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	before := metricsOf(t, ts.URL)

	// Default mode: measured selection, reported as such.
	resp, b := postJob(t, ts, strings.Replace(tinyJob(), `"strategy": "llp"`, `"strategy": "hybrid"`, 1))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, b)
	}
	if got := resp.Header.Get("X-Voltron-Select"); got != "measured" {
		t.Errorf("measured job X-Voltron-Select = %q, want %q", got, "measured")
	}

	// Auto mode: the classifier decides (possibly escalating), the counters
	// record each region's tier.
	resp, b = postJob(t, ts, autoJob())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, b)
	}
	if got := resp.Header.Get("X-Voltron-Select"); got != "static" && got != "escalated" {
		t.Errorf("auto job X-Voltron-Select = %q, want static or escalated", got)
	}
	after := metricsOf(t, ts.URL)
	decided := (after.SelectStatic - before.SelectStatic) + (after.SelectEscalated - before.SelectEscalated)
	if decided <= 0 {
		t.Errorf("select counters did not advance: static %d->%d escalated %d->%d",
			before.SelectStatic, after.SelectStatic, before.SelectEscalated, after.SelectEscalated)
	}

	// A repeat of the same job is a result-cache hit: it never reaches the
	// compile stage, so it reports no selection mode.
	resp, _ = postJob(t, ts, autoJob())
	if resp.Header.Get("X-Voltron-Cache") != "hit" {
		t.Fatalf("repeat was not a cache hit")
	}
	if got := resp.Header.Get("X-Voltron-Select"); got != "" {
		t.Errorf("cache hit carries X-Voltron-Select = %q, want absent", got)
	}
}

// TestTracedAutoJobRecheck drives the stall-report feedback trigger: a
// traced auto job runs the recheck after its run. The tiny
// program's picks are not contradicted, so nothing is re-selected — the
// point is that the trigger path completes and the counter stays exact.
func TestTracedAutoJobRecheck(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	traced := strings.Replace(autoJob(), `"compiler": {"select": "auto"}`,
		`"compiler": {"select": "auto"}, "trace": true`, 1)
	resp, b := postJob(t, ts, traced)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, b)
	}
	jr := decodeJob(t, b)
	if jr.TotalCycles == 0 {
		t.Error("traced auto job reported zero cycles")
	}
	m := metricsOf(t, ts.URL)
	if m.SelectReselected != 0 {
		t.Errorf("select_reselected_total = %d, want 0 (nothing contradicted)", m.SelectReselected)
	}
	// A repeat is a result-cache hit: the recheck does not run again.
	resp, _ = postJob(t, ts, traced)
	if resp.Header.Get("X-Voltron-Cache") != "hit" {
		t.Error("repeat of traced auto job missed the result cache")
	}
}

// TestBodiesIndependentOfArrivalOrder: a traced auto job whose stall
// report re-selects a region answers with the re-selected program's run,
// and the untraced twin that shares its compile answers with the compiled
// one, whichever of the two arrives first. Two fresh servers get the pair
// in opposite orders; each job's body must be byte-identical across them,
// and both servers must have re-selected. A third gets the pair and a
// traced baseline twin at once, so two rechecks read the shared artifact
// concurrently; its bodies must match too.
func TestBodiesIndependentOfArrivalOrder(t *testing.T) {
	const plain = `{"program": {"kind": "bench", "bench": "gsmdecode"}, "strategy": "ilp", "cores": 4, "compiler": {"select": "auto"}}`
	traced := strings.Replace(plain, `}}`, `}, "trace": true}`, 1)
	bodies := func(order ...string) (map[string][]byte, MetricsSnapshot) {
		_, ts := newTestServer(t, Config{})
		out := map[string][]byte{}
		for _, job := range order {
			resp, b := postJob(t, ts, job)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status = %d, body %s", resp.StatusCode, b)
			}
			out[job] = b
		}
		return out, metricsOf(t, ts.URL)
	}
	a, ma := bodies(plain, traced)
	b, mb := bodies(traced, plain)
	for _, job := range []string{plain, traced} {
		if !bytes.Equal(a[job], b[job]) {
			t.Errorf("%s\nplain first: %s\ntraced first: %s", job, a[job], b[job])
		}
	}
	if ma.SelectReselected == 0 || mb.SelectReselected == 0 {
		t.Errorf("select_reselected_total = %d (plain first), %d (traced first), want > 0 on both",
			ma.SelectReselected, mb.SelectReselected)
	}

	_, ts := newTestServer(t, Config{})
	jobs := []string{plain, traced, strings.Replace(traced, `"trace": true`, `"trace": true, "baseline": true`, 1)}
	c := make([][]byte, len(jobs))
	var wg sync.WaitGroup
	for i, job := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(job))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			if c[i], err = io.ReadAll(resp.Body); err != nil || resp.StatusCode != http.StatusOK {
				t.Errorf("concurrent job %d: status %d, %v, body %s", i, resp.StatusCode, err, c[i])
			}
		}()
	}
	wg.Wait()
	for i, job := range jobs[:2] {
		if !bytes.Equal(a[job], c[i]) {
			t.Errorf("%s\nsequential: %s\nconcurrent: %s", job, a[job], c[i])
		}
	}
}
