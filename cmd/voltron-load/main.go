// voltron-load is an open-loop load generator for a voltron-serve fleet.
// It fires jobs at a configured arrival rate (exponential inter-arrivals,
// so bursts happen) drawn from a deterministic catalog with Zipf-distributed
// popularity — a few hot jobs, a long tail — across mixed strategies and a
// trace-enabled fraction, and reports client-observed latency percentiles,
// throughput, shed rate, and how much of the fleet's work was served by
// peers. Open-loop means arrivals do not wait for completions: when the
// fleet falls behind, latency and shed rate show it instead of the
// generator politely slowing down.
//
// Usage:
//
//	voltron-load -targets http://h1:8080,http://h2:8080 -rate 400 -requests 2000
//	voltron-load -spawn 3                  # boot an in-process 3-replica cluster
//	voltron-load -compare -out BENCH_load.json
//	                                       # 1-replica vs 3-replica runs, same trace
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"slices"
	"strings"
	"sync"
	"time"

	"voltron/internal/server"
	"voltron/internal/spec"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "voltron-load:", err)
		os.Exit(1)
	}
}

// options is the parsed flag set for one invocation.
type options struct {
	targets       string
	spawn         int
	compare       bool
	rate          float64
	requests      int
	catalog       int
	zipfS         float64
	seed          int64
	traceFrac     float64
	cores         int
	workers       int
	out           string
	minThroughput float64
	minPeerHit    float64
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("voltron-load", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.targets, "targets", "", "comma-separated replica base URLs (round-robin); empty = -spawn")
	fs.IntVar(&o.spawn, "spawn", 0, "boot an in-process cluster with this many replicas instead of -targets")
	fs.BoolVar(&o.compare, "compare", false, "run the same trace against 1 and 3 spawned replicas, write both reports")
	fs.Float64Var(&o.rate, "rate", 400, "target arrival rate, requests/second (open loop)")
	fs.IntVar(&o.requests, "requests", 800, "total requests to fire")
	fs.IntVar(&o.catalog, "catalog", 48, "distinct jobs in the catalog")
	fs.Float64Var(&o.zipfS, "zipf", 1.2, "Zipf exponent for job popularity (>1; higher = hotter head)")
	fs.Int64Var(&o.seed, "seed", 1, "RNG seed (arrivals, popularity, trace sampling)")
	fs.Float64Var(&o.traceFrac, "tracefrac", 0.05, "fraction of requests that ask for an execution trace")
	fs.IntVar(&o.cores, "cores", 2, "cores per simulated machine (every sixth catalog entry overrides with a 16/32/64-core machine)")
	fs.IntVar(&o.workers, "workers", 0, "with -spawn/-compare: worker pool per replica (0 = host CPUs)")
	fs.StringVar(&o.out, "out", "", "write the JSON report here (BENCH_load.json)")
	fs.Float64Var(&o.minThroughput, "minthroughput", 0, "fail below this completed-requests/second")
	fs.Float64Var(&o.minPeerHit, "minpeerhit", 0, "with >=2 replicas: fail below this peer-served fraction of OK responses")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if o.zipfS <= 1 {
		return fmt.Errorf("-zipf must be > 1 (rand.Zipf requirement), got %v", o.zipfS)
	}

	if o.compare {
		return runCompare(o, stdout)
	}
	targets, cleanup, err := resolveTargets(o, o.spawn)
	if err != nil {
		return err
	}
	defer cleanup()
	rep, err := drive(o, targets)
	if err != nil {
		return err
	}
	printReport(stdout, "load", rep)
	if err := checkFloors(o, targets, rep); err != nil {
		return err
	}
	if o.out != "" {
		return writeJSON(o.out, map[string]any{"runs": map[string]*report{"load": rep}})
	}
	return nil
}

// resolveTargets returns the URLs to drive: the -targets list, or an
// in-process cluster of n replicas (cleanup shuts it down).
func resolveTargets(o options, n int) ([]string, func(), error) {
	if o.targets != "" {
		var urls []string
		for _, u := range strings.Split(o.targets, ",") {
			if u = strings.TrimSuffix(strings.TrimSpace(u), "/"); u != "" {
				urls = append(urls, u)
			}
		}
		if len(urls) == 0 {
			return nil, nil, fmt.Errorf("-targets is empty after parsing")
		}
		return urls, func() {}, nil
	}
	if n <= 0 {
		return nil, nil, fmt.Errorf("need -targets, -spawn N, or -compare")
	}
	c := server.NewCluster(n, server.Config{Workers: o.workers})
	return c.URLs(), c.Close, nil
}

// catalogJob builds the i-th catalog entry: a deterministic inline program
// cycling through kernel shapes and strategies, so a catalog mixes serial,
// ILP, LLP and hybrid work. Every sixth entry is a many-core job (16, 32
// or 64 cores, one with a non-default mesh shape): wide machines carry
// distinct machine keys, so a mixed catalog churns the warm machine pool
// through shape changes under concurrent load instead of settling on one
// machine configuration. The request is normalized so its bytes (and
// content address) are identical across runs.
func catalogJob(i, cores int, traced bool) (*spec.JobRequest, error) {
	strategies := []string{"llp", "ilp", "serial", "hybrid"}
	req := &spec.JobRequest{
		Program: &spec.ProgramSpec{
			Kind: spec.KindKernels,
			Name: fmt.Sprintf("load%03d", i),
			Kernels: []spec.KernelSpec{
				{Kind: "doall-map", Name: "m", N: int64(64 + 32*(i%7)), Work: 2 + i%3},
				{Kind: "serial-chain", Name: "c", N: int64(16 + 8*(i%5))},
			},
		},
		Strategy: strategies[i%len(strategies)],
		Cores:    cores,
		Trace:    traced,
	}
	if i%6 == 5 {
		wide := []int{16, 32, 64}
		req.Cores = wide[(i/6)%len(wide)]
		if req.Cores == 64 {
			req.Machine.MeshCols = 16 // 16×4 mesh: a distinct pool shape at the same width
		}
	}
	if err := req.Normalize(func(string) bool { return false }); err != nil {
		return nil, err
	}
	return req, nil
}

// shot is one fired request's outcome.
type shot struct {
	status  int
	latency time.Duration
	cache   string // X-Voltron-Cache
	peer    bool   // served via a peer fill
	err     bool
}

// report is one run's client-side measurement, the BENCH_load.json shape.
type report struct {
	Targets       int     `json:"targets"`
	Requests      int     `json:"requests"`
	OK            int     `json:"ok"`
	Shed          int     `json:"shed"`
	Errors        int     `json:"errors"`
	DurationMS    float64 `json:"duration_ms"`
	ThroughputRPS float64 `json:"throughput_rps"` // completed OK per second
	P50MS         float64 `json:"p50_ms"`
	P99MS         float64 `json:"p99_ms"`
	ShedRate      float64 `json:"shed_rate"`
	CacheHitRate  float64 `json:"cache_hit_rate"` // of OK responses
	PeerServed    int     `json:"peer_served"`
	PeerHitRate   float64 `json:"peer_hit_rate"` // of OK responses
}

// drive fires o.requests jobs at the targets open-loop: a pacing loop
// sleeps exponential gaps and launches each request in its own goroutine
// the moment its arrival time comes due.
func drive(o options, targets []string) (*report, error) {
	// Pre-marshal the catalog once; the hot loop only picks and posts.
	bodies := make([][][]byte, 2) // [traced][catalog index]
	for _, traced := range []bool{false, true} {
		idx := 0
		if traced {
			idx = 1
		}
		bodies[idx] = make([][]byte, o.catalog)
		for i := 0; i < o.catalog; i++ {
			req, err := catalogJob(i, o.cores, traced)
			if err != nil {
				return nil, err
			}
			b, err := json.Marshal(req)
			if err != nil {
				return nil, err
			}
			bodies[idx][i] = b
		}
	}
	rng := rand.New(rand.NewSource(o.seed))
	zipf := rand.NewZipf(rng, o.zipfS, 1, uint64(o.catalog-1))
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 256}}

	shots := make([]shot, o.requests)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < o.requests; i++ {
		// Open loop: the next arrival is scheduled regardless of how many
		// requests are still in flight.
		time.Sleep(time.Duration(rng.ExpFloat64() / o.rate * float64(time.Second)))
		job := int(zipf.Uint64())
		traced := 0
		if rng.Float64() < o.traceFrac {
			traced = 1
		}
		url := targets[i%len(targets)]
		wg.Add(1)
		go func(i int, body []byte) {
			defer wg.Done()
			t0 := time.Now()
			resp, err := client.Post(url+"/v1/jobs", "application/json", bytes.NewReader(body))
			if err != nil {
				shots[i] = shot{err: true}
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			shots[i] = shot{
				status:  resp.StatusCode,
				latency: time.Since(t0),
				cache:   resp.Header.Get("X-Voltron-Cache"),
				peer:    resp.Header.Get("X-Voltron-Peer") != "",
			}
		}(i, bodies[traced][job])
	}
	wg.Wait()
	elapsed := time.Since(start)

	rep := &report{Targets: len(targets), Requests: o.requests, DurationMS: float64(elapsed.Milliseconds())}
	var okLat []time.Duration
	for _, s := range shots {
		switch {
		case s.err:
			rep.Errors++
		case s.status == http.StatusOK:
			rep.OK++
			okLat = append(okLat, s.latency)
			if s.cache == "hit" {
				rep.CacheHitRate++ // count; normalized below
			}
			if s.peer {
				rep.PeerServed++
			}
		case s.status == http.StatusTooManyRequests:
			rep.Shed++
		default:
			rep.Errors++
		}
	}
	if rep.OK > 0 {
		slices.Sort(okLat)
		rep.ThroughputRPS = float64(rep.OK) / elapsed.Seconds()
		rep.P50MS = float64(okLat[len(okLat)/2].Microseconds()) / 1e3
		rep.P99MS = float64(okLat[min(len(okLat)-1, len(okLat)*99/100)].Microseconds()) / 1e3
		rep.CacheHitRate /= float64(rep.OK)
		rep.PeerHitRate = float64(rep.PeerServed) / float64(rep.OK)
	}
	rep.ShedRate = float64(rep.Shed) / float64(rep.Requests)
	return rep, nil
}

// runCompare replays the identical trace (same seed, rate, catalog) against
// a 1-replica and a 3-replica in-process cluster and writes both reports —
// the scale-out acceptance measurement.
func runCompare(o options, stdout io.Writer) error {
	runs := map[string]*report{}
	for _, n := range []int{1, 3} {
		c := server.NewCluster(n, server.Config{Workers: o.workers})
		targets := c.URLs()
		rep, err := drive(o, targets)
		c.Close()
		if err != nil {
			return err
		}
		name := fmt.Sprintf("replicas_%d", n)
		printReport(stdout, name, rep)
		if n > 1 {
			if err := checkFloors(o, targets, rep); err != nil {
				return err
			}
		} else if o.minThroughput > 0 && rep.ThroughputRPS < o.minThroughput {
			return fmt.Errorf("replicas_1 throughput %.1f rps below floor %.1f", rep.ThroughputRPS, o.minThroughput)
		}
		runs[name] = rep
	}
	if o.out != "" {
		return writeJSON(o.out, map[string]any{"runs": runs})
	}
	return nil
}

// checkFloors enforces the CI floors against one run's report.
func checkFloors(o options, targets []string, rep *report) error {
	if o.minThroughput > 0 && rep.ThroughputRPS < o.minThroughput {
		return fmt.Errorf("throughput %.1f rps below floor %.1f", rep.ThroughputRPS, o.minThroughput)
	}
	if o.minPeerHit > 0 && len(targets) >= 2 && rep.PeerHitRate < o.minPeerHit {
		return fmt.Errorf("peer hit rate %.4f below floor %.4f", rep.PeerHitRate, o.minPeerHit)
	}
	return nil
}

func printReport(w io.Writer, name string, r *report) {
	fmt.Fprintf(w, "%s: %d targets, %d requests in %.0fms: %d ok (%.1f rps), %d shed (%.1f%%), %d errors; p50 %.2fms p99 %.2fms; cache hit %.1f%%, peer-served %d (%.1f%%)\n",
		name, r.Targets, r.Requests, r.DurationMS, r.OK, r.ThroughputRPS,
		r.Shed, 100*r.ShedRate, r.Errors, r.P50MS, r.P99MS,
		100*r.CacheHitRate, r.PeerServed, 100*r.PeerHitRate)
}

func writeJSON(path string, v any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
