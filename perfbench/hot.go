package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"voltron/internal/spec"
)

// The serve-hot catalog: a fixed set of bench, kernels and source jobs
// covering 2, 4, 16 and 64 cores, every strategy and all three selection
// modes. Setup simulates each entry once, so every timed request is a
// result-cache hit and the measured path is decode, normalize (which re-runs
// the source frontend), key, admission and the cache.
func hotCatalog() ([]*spec.JobRequest, error) {
	bench := func(name, strategy, sel string, cores int) *spec.JobRequest {
		return &spec.JobRequest{
			Program:  &spec.ProgramSpec{Kind: spec.KindBench, Bench: name},
			Strategy: strategy, Cores: cores, Compiler: spec.CompilerOptions{Select: sel},
		}
	}
	kernels := func(k spec.KernelSpec, strategy, sel string, cores int) *spec.JobRequest {
		return &spec.JobRequest{
			Program:  &spec.ProgramSpec{Kind: spec.KindKernels, Name: "hot-" + k.Kind, Kernels: []spec.KernelSpec{k}},
			Strategy: strategy, Cores: cores, Compiler: spec.CompilerOptions{Select: sel},
		}
	}
	cat := []*spec.JobRequest{
		bench("rawcaudio", "hybrid", "measured", 4),
		bench("gsmdecode", "llp", "", 16),
		bench("g721decode", "ftlp", "", 2),
		bench("164.gzip", "hybrid", "auto", 2),
		bench("cjpeg", "ilp", "", 4),
		bench("052.alvinn", "hybrid", "static", 64),
		kernels(spec.KernelSpec{Kind: "doall-map", N: 300}, "llp", "", 16),
		kernels(spec.KernelSpec{Kind: "pipeline"}, "ftlp", "", 4),
		kernels(spec.KernelSpec{Kind: "strands"}, "hybrid", "measured", 2),
		kernels(spec.KernelSpec{Kind: "ilp-loop"}, "ilp", "", 4),
		kernels(spec.KernelSpec{Kind: "multichase", Steps: 100}, "hybrid", "auto", 16),
		kernels(spec.KernelSpec{Kind: "doall-reduce"}, "hybrid", "measured", 64),
	}
	srcs := []struct {
		file, strategy, sel string
		cores               int
		inputs              map[string]int64
		trace               bool
	}{
		{"branchy.vs", "hybrid", "measured", 4, map[string]int64{"n": 300}, false},
		{"chain.vs", "ilp", "", 2, map[string]int64{"n": 256}, false},
		{"dotprod.vs", "llp", "", 16, map[string]int64{"n": 512}, false},
		{"histogram.vs", "hybrid", "auto", 64, nil, false},
		{"mandel.vs", "hybrid", "measured", 4, nil, false},
		{"matmul.vs", "ilp", "", 4, nil, false},
		{"scan.vs", "ftlp", "", 2, nil, false},
		{"stencil.vs", "hybrid", "auto", 16, map[string]int64{"n": 777}, false},
		// A traced job: its hits return the stall report with the result.
		{"stencil.vs", "hybrid", "measured", 4, nil, true},
	}
	for _, s := range srcs {
		src, err := exampleSource(s.file)
		if err != nil {
			return nil, err
		}
		cat = append(cat, &spec.JobRequest{
			Program:  &spec.ProgramSpec{Kind: spec.KindSource, Name: "hot-" + s.file, Source: src, Inputs: s.inputs},
			Strategy: s.strategy, Cores: s.cores, Trace: s.trace, Compiler: spec.CompilerOptions{Select: s.sel},
		})
	}
	return cat, nil
}

// hotSourceFrac is the share of serve-hot requests for source programs.
// Source hits cost several times a bench or kernels hit (Normalize re-runs
// the frontend), so the latency distribution has two populations. At 0.3
// the fast population covers the bottom 70%: p50 sits well inside it and
// p90 and p99 well inside the slow one, so no reported percentile falls on
// the boundary between them.
const hotSourceFrac = 0.3

// hotSeqLen is the length of the generated request sequence; clients cycle
// through it.
const hotSeqLen = 1 << 16

// hotSequence draws the catalog index of every request from the seed.
func hotSequence(seed int64, cat []*spec.JobRequest) []int {
	var src, other []int
	for i, r := range cat {
		if r.Program.Kind == spec.KindSource {
			src = append(src, i)
		} else {
			other = append(other, i)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	seq := make([]int, hotSeqLen)
	for i := range seq {
		if rng.Float64() < hotSourceFrac {
			seq[i] = src[rng.Intn(len(src))]
		} else {
			seq[i] = other[rng.Intn(len(other))]
		}
	}
	return seq
}

// hotWorkload is serve-hot's generated input and expected output.
type hotWorkload struct {
	bodies [][]byte // request body per catalog entry
	want   []int64  // fresh-machine total cycles per catalog entry
	seq    []int
}

// newHotWorkload generates the requests; verified fills in the expected
// results.
func newHotWorkload(seed int64) (*hotWorkload, error) {
	cat, err := hotCatalog()
	if err != nil {
		return nil, err
	}
	w := &hotWorkload{seq: hotSequence(seed, cat), want: make([]int64, len(cat))}
	for _, r := range cat {
		b, err := json.Marshal(r)
		if err != nil {
			return nil, err
		}
		w.bodies = append(w.bodies, b)
	}
	return w, nil
}

// verified computes every catalog entry's result on a fresh machine.
func (w *hotWorkload) verified() (*hotWorkload, error) {
	orc := newOracle()
	if err := parallel(len(w.bodies), func(i int) (err error) {
		w.want[i], err = orc.cycles(w.bodies[i])
		return err
	}); err != nil {
		return nil, fmt.Errorf("fresh-machine results: %w", err)
	}
	return w, nil
}

// hotInstance is a booted, warmed-up server plus the bytes it served for
// each catalog entry during warm-up.
type hotInstance struct {
	svc    *service
	served [][]byte
}

// setup boots a server and simulates every catalog entry once through it,
// from the one client.
func (w *hotWorkload) setup() (*hotInstance, error) {
	svc, err := startService()
	if err != nil {
		return nil, err
	}
	in := &hotInstance{svc: svc, served: make([][]byte, len(w.bodies))}
	for i, b := range w.bodies {
		if in.served[i], err = svc.post(b); err != nil {
			svc.close()
			return nil, fmt.Errorf("warm-up of catalog entry %d: %w", i, err)
		}
	}
	return in, nil
}

// boot sets serve-hot up setupReps times and checks the last warm-up's
// bodies against the fresh-machine results: every timed hit must then
// return exactly those bytes.
func (w *hotWorkload) boot() (*hotInstance, []time.Duration, error) {
	in, times, err := repeatSetup(w.setup, func(in *hotInstance) { in.svc.close() })
	if err != nil {
		return nil, nil, err
	}
	for i, b := range in.served {
		if err := checkCycles(b, w.want[i]); err != nil {
			in.svc.close()
			return nil, nil, fmt.Errorf("catalog entry %d: %w", i, err)
		}
	}
	return in, times, nil
}

// op issues request i and checks it returned the verified bytes.
func (w *hotWorkload) op(in *hotInstance) opFunc {
	return func(_ int, i int64) (int64, error) {
		e := w.seq[i%hotSeqLen]
		b, err := in.svc.post(w.bodies[e])
		if err != nil {
			return 0, err
		}
		if !bytes.Equal(b, in.served[e]) {
			return 0, errors.New("hit body differs from the verified warm-up body")
		}
		return w.want[e], nil
	}
}

func (w *hotWorkload) simCycles() int64 {
	var sum int64
	for _, c := range w.want {
		sum += c
	}
	return sum
}

func hotE2E(o options, r *report) error {
	w, err := newHotWorkload(o.seed)
	if err == nil {
		w, err = w.verified()
	}
	if err != nil {
		return err
	}
	in, setup, err := w.boot()
	if err != nil {
		return err
	}
	defer in.svc.close()
	win := closedLoop(clients, o.seconds, 1, 0, w.op(in))
	m := in.svc.srv.Metrics()
	if m.CacheMisses != int64(len(w.bodies)) {
		r.count(0, 1)
		r.note("timed requests missed the result cache: %d misses for %d catalog entries", m.CacheMisses, len(w.bodies))
	}
	if err := e2eMetrics(r, win, setup, w.simCycles()); err != nil {
		return err
	}
	win = window{}
	r.set("live_heap_mb", float64(liveHeap())/1e6, "MB")
	return nil
}
