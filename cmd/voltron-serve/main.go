// voltron-serve exposes the compile-and-simulate pipeline as an HTTP JSON
// service: jobs (benchmark or inline program × strategy × machine) run on
// a bounded worker pool with content-addressed caching, per-request
// timeouts, and graceful shutdown.
//
// Usage:
//
//	voltron-serve                          # listen on :8080
//	voltron-serve -addr :9000 -workers 8   # custom listen address / pool
//	voltron-serve -smoke -metricsout BENCH_serve.json
//	                                       # self-drive a request mix, write
//	                                       # the metrics snapshot, exit
//	voltron-serve -self a -peers a=http://h1:8080,b=http://h2:8080
//	                                       # one replica of a two-node fleet
//
// API (see server.Server.Handler):
//
//	GET  /healthz
//	GET  /metrics
//	GET  /v1/benchmarks
//	GET  /v1/strategies
//	POST /v1/jobs        {"program": {"kind": "bench", "bench": "gsmdecode"}, "strategy": "hybrid", "cores": 4, "baseline": true}
//	POST /v1/validate    (same body; parse, check and classify without simulating)
//	GET  /v1/traces/{key}
//	GET  /v1/figures/13
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"voltron/internal/server"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "voltron-serve:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("voltron-serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", ":8080", "listen address")
	workers := fs.Int("workers", 0, "concurrent simulations (0 = all host CPUs)")
	cacheN := fs.Int("cache", 256, "content-addressed cache entries (LRU bound)")
	timeout := fs.Duration("timeout", 2*time.Minute, "per-request timeout")
	smoke := fs.Bool("smoke", false, "self-drive a request mix against an in-process server, then exit")
	metricsOut := fs.String("metricsout", "", "with -smoke: write the final metrics snapshot to this JSON file")
	self := fs.String("self", "", "this replica's name in the -peers list (cluster mode)")
	peersArg := fs.String("peers", "", "fleet membership: name=url,... or @file with one name=url per line")
	peerTimeout := fs.Duration("peer-timeout", 10*time.Second, "cap on one peer forward (further capped below the request budget)")
	admitSimulate := fs.Int("admit-simulate", 0, "max concurrently admitted simulate-class requests (0 = 32x workers)")
	admitCached := fs.Int("admit-cached", 0, "max concurrently admitted cached-read requests (0 = 8x simulate bound)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var peers []server.Replica
	if *peersArg != "" {
		if *self == "" {
			return fmt.Errorf("-peers requires -self (which entry is this replica?)")
		}
		var err error
		if peers, err = server.ParsePeers(*peersArg); err != nil {
			return err
		}
	}
	srv := server.New(server.Config{
		Workers:         *workers,
		CacheEntries:    *cacheN,
		RequestTimeout:  *timeout,
		Self:            *self,
		Peers:           peers,
		PeerTimeout:     *peerTimeout,
		AdmitSimulate:   *admitSimulate,
		AdmitCachedRead: *admitCached,
	})
	if *smoke {
		return runSmoke(srv, *metricsOut, stdout)
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	fmt.Fprintf(stdout, "voltron-serve: listening on %s\n", ln.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	select {
	case err := <-errc:
		return err
	case s := <-sig:
		// Graceful shutdown: stop accepting, drain in-flight jobs (which
		// run synchronously inside handlers) up to the request timeout.
		fmt.Fprintf(stdout, "voltron-serve: %v, draining\n", s)
		ctx, cancel := context.WithTimeout(context.Background(), *timeout)
		defer cancel()
		return hs.Shutdown(ctx)
	}
}

// runSmoke drives a representative request mix through a real listener —
// repeated jobs for cache hits, concurrent identical jobs for singleflight,
// an inline program, a figure — and fails unless the mix hit both the
// result and the compile cache. It is an end-to-end exercise of the full
// serving path; -metricsout writes the final server.MetricsSnapshot, which
// CI uploads as BENCH_serve.json. Cost comparisons live in perfbench
// (pooled vs fresh machines as core.reset_* vs core.new_*, the frontend as
// lang.frontend_us).
func runSmoke(srv *server.Server, metricsOut string, stdout io.Writer) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	defer hs.Shutdown(context.Background())
	base := "http://" + ln.Addr().String()

	get := func(path string) error {
		resp, err := http.Get(base + path)
		if err != nil {
			return err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
		}
		return nil
	}
	post := func(body string) error {
		resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			return err
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("POST /v1/jobs %s: status %d: %s", body, resp.StatusCode, b)
		}
		return nil
	}

	if err := get("/healthz"); err != nil {
		return err
	}
	if err := get("/v1/benchmarks"); err != nil {
		return err
	}
	if err := get("/v1/strategies"); err != nil {
		return err
	}
	// Two rounds over a small bench × strategy grid: round one misses,
	// round two must hit the content cache.
	for round := 0; round < 2; round++ {
		for _, bench := range []string{"rawcaudio", "gsmdecode"} {
			for _, strat := range []string{"serial", "llp", "hybrid"} {
				body := fmt.Sprintf(`{"program": {"kind": "bench", "bench": %q}, "strategy": %q, "cores": 4, "baseline": true}`, bench, strat)
				if err := post(body); err != nil {
					return err
				}
			}
		}
	}
	// A machine-latency ablation of a round-one job: a distinct run key that
	// must reuse the already-compiled artifact (the compile cache's reason
	// to exist; the traced job below shares one the same way).
	if err := post(`{"program": {"kind": "bench", "bench": "gsmdecode"}, "strategy": "hybrid", "cores": 4, "machine": {"queue_base_lat": 4}}`); err != nil {
		return err
	}
	// Concurrent identical jobs: singleflight under real HTTP.
	inline := `{"program": {"kind": "kernels", "name": "smoke", "kernels": [
		{"kind": "pipeline", "name": "p", "table": 16384, "n": 16384, "work": 16},
		{"kind": "doall-map", "name": "m", "n": 4096, "work": 8}
	]}, "strategy": "llp", "cores": 4}`
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = post(inline)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	if err := get("/v1/figures/12"); err != nil {
		return err
	}
	// Source-form jobs: a user program POSTed as language text runs through
	// the same pipeline. Round two must hit the content cache; the validate
	// endpoint checks the same body without simulating.
	srcJob := `{"program": {"kind": "source", "name": "smokesrc", "source": ` + smokeSourceJSON + `}, "strategy": "hybrid", "cores": 4}`
	for round := 0; round < 2; round++ {
		if err := post(srcJob); err != nil {
			return err
		}
	}
	vresp, err := http.Post(base+"/v1/validate", "application/json", bytes.NewReader([]byte(srcJob)))
	if err != nil {
		return err
	}
	vb, _ := io.ReadAll(vresp.Body)
	vresp.Body.Close()
	if vresp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST /v1/validate: status %d: %s", vresp.StatusCode, vb)
	}
	// A traced job: the response must link a fetchable Chrome trace.
	tr, err := http.Post(base+"/v1/jobs", "application/json",
		bytes.NewReader([]byte(`{"program": {"kind": "bench", "bench": "rawcaudio"}, "strategy": "hybrid", "cores": 4, "trace": true}`)))
	if err != nil {
		return err
	}
	tb, _ := io.ReadAll(tr.Body)
	tr.Body.Close()
	if tr.StatusCode != http.StatusOK {
		return fmt.Errorf("traced job: status %d: %s", tr.StatusCode, tb)
	}
	var traced struct {
		TraceURL string `json:"trace_url"`
	}
	if err := json.Unmarshal(tb, &traced); err != nil {
		return err
	}
	if traced.TraceURL == "" {
		return fmt.Errorf("traced job response has no trace_url: %s", tb)
	}
	if err := get(traced.TraceURL); err != nil {
		return err
	}

	m := srv.Metrics()
	fmt.Fprintf(stdout, "smoke: %d jobs, %d simulations, cache %d hits / %d misses / %d deduped, compile cache %.0f%% hot, pool %d hits / %d news\n",
		m.Jobs, m.Simulations, m.CacheHits, m.CacheMisses, m.CacheDeduped,
		100*m.CompileCacheHitRatio, m.MachinePoolHits, m.MachinePoolNews)
	if m.CacheHits == 0 {
		return fmt.Errorf("smoke: repeated jobs produced no cache hits")
	}
	if m.CompileCacheHits == 0 {
		return fmt.Errorf("smoke: the request mix shared no compiled artifacts")
	}

	if metricsOut == "" {
		return nil
	}
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(metricsOut, append(b, '\n'), 0o644)
}

// smokeSource is the user program the smoke run POSTs as a source job: a
// DOALL map, a reduction, and a serial recurrence — enough shape diversity
// to exercise selection.
const smokeSource = `param n = 512;
array xs[n] int = {3, 1, 4, 1, 5, 9, 2, 6};
array ys[n] int;
var acc int = 0;
func main() {
	for i = 0; i < n; i = i + 1 {
		ys[i] = xs[i] * 3 + i;
	}
	for i = 0; i < n; i = i + 1 {
		acc = acc + ys[i];
	}
	for i = 1; i < n; i = i + 1 {
		ys[i] = ys[i-1] + ys[i];
	}
}
`

// smokeSourceJSON is smokeSource as a JSON string literal for request bodies.
var smokeSourceJSON = func() string {
	b, err := json.Marshal(smokeSource)
	if err != nil {
		panic(err)
	}
	return string(b)
}()
