package server

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// BenchmarkServeJob measures the per-job cost of the serving hot path:
// CacheEntries is 1 and two jobs alternate, so every request misses the
// result cache and simulates, while the compile-artifact cache and (in the
// pooled variant) the machine pool stay warm — exactly the steady state the
// two-level split optimizes. The fresh variant is the before-state: same
// requests with warm-machine reuse disabled.
func BenchmarkServeJob(b *testing.B) {
	jobs := [2]string{
		`{"program": {"kind": "kernels", "name": "benchA", "kernels": [
			{"kind": "doall-map", "name": "m", "n": 64, "work": 2},
			{"kind": "serial-chain", "name": "c", "n": 16}
		]}, "strategy": "llp", "cores": 2}`,
		`{"program": {"kind": "kernels", "name": "benchB", "kernels": [
			{"kind": "doall-map", "name": "m", "n": 96, "work": 2},
			{"kind": "serial-chain", "name": "c", "n": 24}
		]}, "strategy": "llp", "cores": 2}`,
	}
	run := func(b *testing.B, disablePool bool) {
		s := New(Config{Workers: 1, CacheEntries: 1, DisableMachinePool: disablePool})
		h := s.Handler()
		post := func(i int) {
			req := httptest.NewRequest("POST", "/v1/jobs", strings.NewReader(jobs[i&1]))
			w := httptest.NewRecorder()
			h.ServeHTTP(w, req)
			if w.Code != http.StatusOK {
				b.Fatalf("status %d: %s", w.Code, w.Body.String())
			}
		}
		post(0) // warm the compile cache and (when enabled) the pool
		post(1)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			post(i)
		}
	}
	b.Run("pooled", func(b *testing.B) { run(b, false) })
	b.Run("fresh", func(b *testing.B) { run(b, true) })
}
