package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"voltron/internal/compiler"
	"voltron/internal/core"
	"voltron/internal/exp"
	"voltron/internal/server"
	"voltron/internal/spec"
)

// service is one voltron server behind a loopback HTTP listener, with a
// keep-alive client of at most one connection per worker.
type service struct {
	srv    *server.Server
	hs     *http.Server
	url    string
	client *http.Client
	served chan error
}

// startService boots a server with one worker per CPU.
func startService() (*service, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	s := &service{
		srv:    server.New(server.Config{Workers: workers}),
		url:    "http://" + ln.Addr().String() + "/v1/jobs",
		served: make(chan error, 1),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: workers,
			MaxConnsPerHost:     workers,
			DisableCompression:  true,
		}},
	}
	s.hs = &http.Server{Handler: s.srv.Handler()}
	go func() { s.served <- s.hs.Serve(ln) }()
	return s, nil
}

// close stops the listener, waits for in-flight requests and for the serve
// goroutine to return, and drops the client's idle connections.
func (s *service) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.hs.Shutdown(ctx); err != nil {
		s.hs.Close()
	}
	<-s.served
	s.client.CloseIdleConnections()
}

// post sends one job body and returns the response body of a 200; any other
// status is an error carrying the server's message.
func (s *service) post(body []byte) ([]byte, error) {
	resp, err := s.client.Post(s.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(b))
	}
	return b, nil
}

// servedCycles extracts total_cycles from a job response body.
func servedCycles(body []byte) (int64, error) {
	var jr struct {
		TotalCycles int64 `json:"total_cycles"`
	}
	if err := json.Unmarshal(body, &jr); err != nil {
		return 0, fmt.Errorf("decoding response: %w", err)
	}
	return jr.TotalCycles, nil
}

// checkCycles compares a served result against the fresh-machine value.
func checkCycles(body []byte, want int64) error {
	got, err := servedCycles(body)
	if err != nil {
		return err
	}
	if got != want {
		return fmt.Errorf("total_cycles = %d, fresh machine says %d", got, want)
	}
	return nil
}

// oracle computes jobs' expected results the slow way, independent of the
// server's caches and machine pool: decode and normalize the body, build
// the program, compile it, and run it on a newly constructed machine.
// Compiled artifacts are shared between bodies with equal compile keys (a
// traced twin or machine variant of an earlier job), as the server shares
// them; every run still gets a fresh machine. Safe for concurrent use.
type oracle struct {
	suite *exp.Suite // benchmark programs and profiles

	mu        sync.Mutex
	artifacts map[string]*core.CompiledProgram
}

func newOracle() *oracle {
	s := exp.NewSuite()
	s.Workers = 1
	return &oracle{suite: s, artifacts: map[string]*core.CompiledProgram{}}
}

func (o *oracle) known(bench string) bool {
	_, err := o.suite.Program(bench)
	return err == nil
}

// cycles returns the job's total simulated cycles on a fresh machine.
func (o *oracle) cycles(body []byte) (int64, error) {
	req, _, err := spec.DecodeJob(bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	if err := req.Normalize(o.known); err != nil {
		return 0, err
	}
	ck := req.CompileKey()
	o.mu.Lock()
	cp := o.artifacts[ck]
	o.mu.Unlock()
	if cp == nil {
		if cp, err = o.compile(req); err != nil {
			return 0, err
		}
		o.mu.Lock()
		o.artifacts[ck] = cp
		o.mu.Unlock()
	}
	res, err := core.New(req.MachineConfig(nil)).Run(cp)
	if err != nil {
		return 0, err
	}
	return res.TotalCycles, nil
}

func (o *oracle) compile(req *spec.JobRequest) (*core.CompiledProgram, error) {
	opts := req.CompilerOpts()
	if req.Program.Kind == spec.KindBench {
		p, err := o.suite.Program(req.Program.Bench)
		if err != nil {
			return nil, err
		}
		if opts.Profile, err = o.suite.Profile(req.Program.Bench); err != nil {
			return nil, err
		}
		return compiler.Compile(p, opts)
	}
	p, err := req.Program.Build()
	if err != nil {
		return nil, err
	}
	return compiler.Compile(p, opts)
}

// parallel runs fn(i) for i in [0, n) on workers goroutines and returns
// the first error.
func parallel(n int, fn func(i int) error) error {
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		errs []error
		next = make(chan int)
	)
	for c := 0; c < workers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if err := fn(i); err != nil {
					mu.Lock()
					errs = append(errs, fmt.Errorf("item %d: %w", i, err))
					mu.Unlock()
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	return errors.Join(errs...)
}

// serverStats are the server's own cache, pool and batching ratios.
type serverStats struct {
	cacheHit, compileHit, poolHit, batched float64
}

func serverStatsOf(m server.MetricsSnapshot) *serverStats {
	return &serverStats{
		cacheHit:   ratio(m.CacheHits+m.CacheDeduped, m.CacheHits+m.CacheMisses+m.CacheDeduped),
		compileHit: m.CompileCacheHitRatio,
		poolHit:    ratio(m.MachinePoolHits, m.MachinePoolHits+m.MachinePoolNews),
		batched:    ratio(m.BatchedRuns, m.Simulations),
	}
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
