package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// serveAsync serves one POST /v1/jobs body on h under ctx and delivers
// the recorded response.
func serveAsync(h http.Handler, ctx context.Context, body string) <-chan *httptest.ResponseRecorder {
	done := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/jobs", strings.NewReader(body)).WithContext(ctx))
		done <- rec
	}()
	return done
}

// awaitResponse returns the response done delivers within d.
func awaitResponse(t *testing.T, what string, done <-chan *httptest.ResponseRecorder, d time.Duration) *httptest.ResponseRecorder {
	t.Helper()
	select {
	case rec := <-done:
		return rec
	case <-time.After(d):
		t.Fatalf("%s: no answer within %v", what, d)
		return nil
	}
}

// TestWaiterOutlivesClaimantCancel: of two identical jobs in flight, the
// second waits on the first's computation. Canceling the first client
// fails only the first request; the second, whose client is still there,
// computes the job itself and answers 200.
func TestWaiterOutlivesClaimantCancel(t *testing.T) {
	s := New(Config{Workers: 2})
	h := s.Handler()
	slow := `{"program": {"kind": "kernels", "name": "slow", "kernels": [
		{"kind": "ilp-loop", "name": "i", "n": 32768}
	]}, "strategy": "hybrid", "cores": 64}`
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	first := serveAsync(h, ctx, slow)
	deadline := time.Now().Add(10 * time.Second)
	for s.Metrics().InFlight != 1 {
		if time.Now().After(deadline) {
			t.Fatal("the first job never started")
		}
		time.Sleep(time.Millisecond)
	}
	second := serveAsync(h, context.Background(), slow)
	waitForWaiters(t, 1)
	cancel()
	rec := awaitResponse(t, "canceled job", first, 5*time.Second)
	var er ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || er.Code != "canceled" {
		t.Fatalf("canceled job answered %d %s, want code canceled", rec.Code, rec.Body.Bytes())
	}
	rec = awaitResponse(t, "live job", second, 60*time.Second)
	if rec.Code != http.StatusOK {
		t.Fatalf("live job: status %d, body %s", rec.Code, rec.Body.Bytes())
	}
	if got := rec.Header().Get("X-Voltron-Cache"); got != "miss" {
		t.Errorf("live job X-Voltron-Cache = %q, want miss (it computed the job)", got)
	}
	waitForIdle(t, s)
}

// TestProfileCancelAnswers504: profiling stops on the request's ctx. A
// source job whose loop runs 20M iterations spends seconds in the
// profiling interpreter; with a 200 ms RequestTimeout it answers 504 soon
// after the deadline and leaves no simulation in flight or counted.
func TestProfileCancelAnswers504(t *testing.T) {
	s := New(Config{Workers: 1, RequestTimeout: 200 * time.Millisecond})
	src := `param n = 20000000;\nvar s int = 0;\nfunc main() {\n\tfor i = 0; i < n; i = i + 1 {\n\t\ts = s + i * 3;\n\t}\n}\n`
	body := `{"program": {"kind": "source", "name": "loop", "source": "` + src + `"}, "strategy": "hybrid", "cores": 4}`
	start := time.Now()
	rec := awaitResponse(t, "long-profiling job", serveAsync(s.Handler(), context.Background(), body), time.Minute)
	if took := time.Since(start); took > 2*time.Second {
		t.Errorf("answered after %v, want soon after the 200ms deadline", took)
	}
	var er ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || rec.Code != http.StatusGatewayTimeout || er.Code != "timeout" {
		t.Fatalf("answered %d %s, want 504 timeout", rec.Code, rec.Body.Bytes())
	}
	if !strings.Contains(er.Error, "profiling") {
		t.Errorf("the deadline did not land in profiling: %s", er.Error)
	}
	if m := s.Metrics(); m.InFlight != 0 || m.QueueDepth != 0 {
		t.Errorf("in_flight %d, queue_depth %d after the answer; want 0", m.InFlight, m.QueueDepth)
	}
	// Resolution precedes the machine: a job that never simulated neither
	// counts a simulation nor builds a machine.
	if m := s.Metrics(); m.Simulations != 0 || m.MachinePoolNews != 0 {
		t.Errorf("simulations %d, machines built %d; want 0 and 0", m.Simulations, m.MachinePoolNews)
	}
}

// TestValidateRunsInWorkerSlot: /v1/validate profiles inside a worker slot
// under the RequestTimeout, like a job. Three validations of 20M-iteration
// loops on one worker all answer 504 soon after the 200 ms deadline, and
// the running gauge shows exactly one of them in the slot at a time.
func TestValidateRunsInWorkerSlot(t *testing.T) {
	s := New(Config{Workers: 1, RequestTimeout: 200 * time.Millisecond})
	h := s.Handler()
	const n = 3
	done := make(chan *httptest.ResponseRecorder, n)
	start := time.Now()
	for i := range n {
		src := fmt.Sprintf(`param n = %d;\nvar s int = 0;\nfunc main() {\n\tfor i = 0; i < n; i = i + 1 {\n\t\ts = s + i * 3;\n\t}\n}\n`, 20000000+i)
		body := `{"program": {"kind": "source", "name": "loop", "source": "` + src + `"}, "strategy": "hybrid", "cores": 4}`
		go func() {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/validate", strings.NewReader(body)))
			done <- rec
		}()
	}
	var peak int64
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	timeout := time.After(time.Minute)
	for answered := 0; answered < n; {
		select {
		case rec := <-done:
			answered++
			var er ErrorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || rec.Code != http.StatusGatewayTimeout || er.Code != "timeout" {
				t.Errorf("answered %d %s, want 504 timeout", rec.Code, rec.Body.Bytes())
			}
		case <-tick.C:
			peak = max(peak, s.Metrics().InFlight)
		case <-timeout:
			t.Fatalf("%d of %d validations unanswered after a minute", n-answered, n)
		}
	}
	if took := time.Since(start); took > time.Second {
		t.Errorf("answered after %v, want soon after the 200ms deadline", took)
	}
	if peak != 1 {
		t.Errorf("running peaked at %d with 1 worker, want 1", peak)
	}
	waitForIdle(t, s)
}
