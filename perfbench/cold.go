package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"voltron/internal/spec"
)

// exampleDir holds the source-language example programs, read at run time
// from the checkout the benchmark runs in.
const exampleDir = "examples/lang"

func exampleSource(file string) (string, error) {
	b, err := os.ReadFile(filepath.Join(exampleDir, file))
	if err != nil {
		return "", fmt.Errorf("reading example program: %w", err)
	}
	return string(b), nil
}

// coldProgram is one program family of serve-cold: a source example with
// an "n" parameter, or one kernel generator, plus the base of the size the
// generator varies.
type coldProgram struct {
	name   string
	file   string // source example, or "" for a kernel
	kernel string
	base   int64
}

var coldPrograms = []coldProgram{
	{name: "branchy", file: "branchy.vs", base: 512},
	{name: "chain", file: "chain.vs", base: 512},
	{name: "dotprod", file: "dotprod.vs", base: 1024},
	{name: "histogram", file: "histogram.vs", base: 1024},
	{name: "scan", file: "scan.vs", base: 512},
	{name: "stencil", file: "stencil.vs", base: 1024},
	{name: "k-doall-map", kernel: "doall-map", base: 256},
	{name: "k-doall-mapf", kernel: "doall-mapf", base: 256},
	{name: "k-strands", kernel: "strands", base: 512},
	{name: "k-multichase", kernel: "multichase", base: 128},
	{name: "k-pipeline", kernel: "pipeline", base: 128},
	{name: "k-ilp-loop", kernel: "ilp-loop", base: 64},
	{name: "k-ilp-butterfly", kernel: "ilp-butterfly", base: 48},
	{name: "k-doall-reduce", kernel: "doall-reduce", base: 256},
	{name: "k-serial-chain", kernel: "serial-chain", base: 64},
	{name: "k-branchy", kernel: "branchy", base: 256},
}

// coldConfig is a strategy, selection mode and machine width.
type coldConfig struct {
	strategy, sel string
	cores         int
}

var coldConfigs = []coldConfig{
	{"ilp", "", 2}, {"ftlp", "", 4}, {"llp", "", 16}, {"hybrid", "measured", 64},
	{"hybrid", "auto", 2}, {"hybrid", "measured", 4}, {"hybrid", "auto", 16}, {"ftlp", "", 64},
	{"llp", "", 2}, {"ilp", "", 4}, {"hybrid", "measured", 16}, {"hybrid", "auto", 64},
}

// coldTemplate pairs a program family with a configuration.
type coldTemplate struct {
	prog int
	cfg  coldConfig
}

// coldTemplates gives every program family four configurations in a fixed
// rotation: 16 families make 64 templates, the compile cache's default
// capacity, so after a whole block the cache holds exactly that block's
// artifacts whatever their order. Coupled and selected compiles of the
// pointer-chasing kernels at 64 cores take 100-200 ms (ten times any other
// job), so those pairs take the configuration half a rotation further.
func coldTemplates() []coldTemplate {
	var out []coldTemplate
	for p, prog := range coldPrograms {
		for j := 0; j < 4; j++ {
			c := coldConfigs[(4*p+j)%len(coldConfigs)]
			if (prog.kernel == "multichase" || prog.kernel == "pipeline") && c.cores == 64 && c.strategy != "ftlp" && c.strategy != "llp" {
				c = coldConfigs[(4*p+j+len(coldConfigs)/2)%len(coldConfigs)]
			}
			out = append(out, coldTemplate{p, c})
		}
	}
	return out
}

// variantEvery is the share of run-only variants: every variantEvery-th
// template also sends a variant of its job — a traced twin, a
// machine-latency variant or a mesh-shape variant — right after the next
// fresh job. Variants share the earlier job's compile key, so they hit the
// compile cache and reuse pooled machines. Tying variants to templates
// rather than to positions keeps every block's mix of work the same.
const variantEvery = 4

// sizeSteps is how many sizes a template takes, each base/32 apart. The
// block number in the program name makes content unique; sizes only vary
// the work, by at most a tenth so a block's cost hardly depends on the seed.
const sizeSteps = 4

// coldWorkload generates serve-cold's requests: blocks of every template
// once, in a seed-shuffled order, with variants interleaved. Every block
// names its programs after the block number, so no two requests of a run
// share content; each block has the same mix of work, so throughput and
// latency do not depend on how many blocks a run reaches.
type coldWorkload struct {
	seed      int64
	templates []coldTemplate
	sources   map[string]string

	mu     sync.Mutex
	blocks map[int64][][]byte
}

func newColdWorkload(seed int64) (*coldWorkload, error) {
	w := &coldWorkload{seed: seed, templates: coldTemplates(), sources: map[string]string{}, blocks: map[int64][][]byte{}}
	for _, p := range coldPrograms {
		if p.file != "" {
			src, err := exampleSource(p.file)
			if err != nil {
				return nil, err
			}
			w.sources[p.file] = src
		}
	}
	return w, nil
}

// blockLen is the number of requests per block.
func (w *coldWorkload) blockLen() int64 {
	n := int64(len(w.templates))
	return n + n/variantEvery
}

// body returns the request body of op i (block -1 is the warm-up).
func (w *coldWorkload) body(i int64) []byte {
	b := i / w.blockLen()
	if i < 0 {
		b = -1
	}
	w.mu.Lock()
	blk, ok := w.blocks[b]
	if !ok {
		blk = w.genBlock(b)
		w.blocks[b] = blk
	}
	w.mu.Unlock()
	return blk[i-b*w.blockLen()]
}

// genBlock builds block b's request bodies from the seed and b alone.
func (w *coldWorkload) genBlock(b int64) [][]byte {
	rng := rand.New(rand.NewSource(w.seed*1_000_003 + b))
	order, size := rng.Perm(len(w.templates)), func() int64 { return rng.Int63n(sizeSteps) }
	if b < 0 {
		// The warm-up block takes the templates in order at their base size,
		// so set-up does the same work for every seed.
		for i := range order {
			order[i] = i
		}
		size = func() int64 { return 0 }
	}
	var reqs, pending []*spec.JobRequest
	for _, t := range order {
		step, k := size(), t/variantEvery
		hasVariant := t%variantEvery == variantEvery-1
		if hasVariant && twinned(w.templates[t].cfg.sel, k) {
			// A rendered trace's buffer grows in doublings, so one size step
			// can double what the trace cache holds: traced jobs keep their
			// base size.
			step = 0
		}
		req := w.job(w.templates[t], b, step)
		reqs = append(reqs, req)
		reqs, pending = append(reqs, pending...), nil
		if hasVariant {
			pending = append(pending, variant(req, k))
		}
	}
	reqs = append(reqs, pending...)
	out := make([][]byte, len(reqs))
	for i, r := range reqs {
		body, err := json.Marshal(r)
		if err != nil { // plain structs of strings and numbers always marshal
			panic(err)
		}
		out[i] = body
	}
	return out
}

// job instantiates a template for block b at the given size step.
func (w *coldWorkload) job(t coldTemplate, b, size int64) *spec.JobRequest {
	p := coldPrograms[t.prog]
	name := fmt.Sprintf("cold-%s-b%d", p.name, b)
	req := &spec.JobRequest{
		Strategy: t.cfg.strategy, Cores: t.cfg.cores,
		Compiler: spec.CompilerOptions{Select: t.cfg.sel},
	}
	n := p.base + p.base/32*size
	if p.file != "" {
		req.Program = &spec.ProgramSpec{Kind: spec.KindSource, Name: name, Source: w.sources[p.file],
			Inputs: map[string]int64{"n": n}}
		return req
	}
	k := spec.KernelSpec{Kind: p.kernel, Name: "k"}
	if p.kernel == "multichase" {
		k.Steps = n
	} else {
		k.N = n
	}
	req.Program = &spec.ProgramSpec{Kind: spec.KindKernels, Name: name, Kernels: []spec.KernelSpec{k}}
	return req
}

// variant derives the k-th run-only variant of an earlier job: a traced
// twin, a queue-latency variant or a mesh-shape variant. A traced job whose
// artifact was auto-selected may be re-selected from its stall report, so
// auto jobs get a machine variant instead of a twin. Mesh variants need at
// least four cores and a job without coupled regions: the compile key does
// not cover the mesh shape, and coupled code compiled for the default mesh
// fails on another one ("PUT off mesh edge").
func variant(base *spec.JobRequest, k int) *spec.JobRequest {
	v := *base
	switch {
	case twinned(base.Compiler.Select, k):
		v.Trace = true
	case k%4 == 2 && base.Cores >= 4 && (base.Strategy == "ftlp" || base.Strategy == "llp"):
		v.Machine.MeshCols = max(4, base.Cores/2)
	default:
		v.Machine.QueueBaseLat, v.Machine.QueueHopLat = 6, 2
	}
	return &v
}

// twinned reports whether the k-th variant of a job with the given
// selection mode is its traced twin: four per block, so the trace cache's
// default 32 entries hold exactly the last eight blocks' traces.
func twinned(sel string, k int) bool { return k%4 == 0 && sel != "auto" }

// coldRefBlocks is how many leading blocks sim_cycles covers.
const coldRefBlocks = 2

// coldServed records the total cycles the server returned per op.
type coldServed struct {
	mu     sync.Mutex
	cycles map[int64]int64
}

func coldE2E(o options, r *report) error {
	w, err := newColdWorkload(o.seed)
	if err != nil {
		return err
	}
	svc, setup, err := w.boot()
	if err != nil {
		return err
	}
	defer svc.close()
	served := &coldServed{cycles: map[int64]int64{}}
	// Whole blocks: every run ends with the same mix of work behind it, so
	// the caches hold the same kinds of entries whatever the seed.
	win := closedLoop(clients, o.seconds, w.blockLen(), 0, w.op(svc, served))
	simCycles, mismatches, verr := w.verify(served)
	r.count(0, mismatches)
	if verr != nil {
		r.res.Correct = false
		r.note("verification: %v", verr)
	}
	if err := e2eMetrics(r, win, setup, simCycles); err != nil {
		return err
	}
	// The live heap is the server's; drop what the benchmark kept per op.
	win, served, w.blocks = window{}, nil, nil
	r.set("live_heap_mb", float64(liveHeap())/1e6, "MB")
	return nil
}

// boot sets serve-cold up setupReps times: a server, then block -1 (whose
// content no timed request repeats) as warm-up from the one client, so the
// connection is open and every machine shape has a pooled machine.
func (w *coldWorkload) boot() (*service, []time.Duration, error) {
	return repeatSetup(func() (*service, error) {
		svc, err := startService()
		if err != nil {
			return nil, err
		}
		for i := -w.blockLen(); i < 0; i++ {
			if _, err := svc.post(w.body(i)); err != nil {
				svc.close()
				return nil, fmt.Errorf("warm-up request %d: %w", i, err)
			}
		}
		return svc, nil
	}, func(svc *service) { svc.close() })
}

func (w *coldWorkload) op(svc *service, served *coldServed) opFunc {
	return func(_ int, i int64) (int64, error) {
		b, err := svc.post(w.body(i))
		if err != nil {
			return 0, err
		}
		c, err := servedCycles(b)
		if err != nil {
			return 0, err
		}
		served.mu.Lock()
		served.cycles[i] = c
		served.mu.Unlock()
		return c, nil
	}
}

// verify recomputes every served op, and every op of the first
// coldRefBlocks blocks, on fresh machines. It returns the reference
// blocks' total cycles (sim_cycles), the number of served results that
// disagree, and the first disagreement or fresh-machine failure.
func (w *coldWorkload) verify(served *coldServed) (simCycles, mismatches int64, firstErr error) {
	ref := coldRefBlocks * w.blockLen()
	var idx []int64
	for i := int64(0); i < ref; i++ {
		idx = append(idx, i)
	}
	for i := range served.cycles {
		if i >= ref {
			idx = append(idx, i)
		}
	}
	want := make([]int64, len(idx))
	orc := newOracle()
	err := parallel(len(idx), func(k int) (err error) {
		want[k], err = orc.cycles(w.body(idx[k]))
		if err != nil {
			want[k] = -1
		}
		return err
	})
	for k, i := range idx {
		if i < ref {
			simCycles += want[k]
		}
		if got, ok := served.cycles[i]; ok && got != want[k] {
			mismatches++
			if firstErr == nil {
				firstErr = fmt.Errorf("op %d: served %d cycles, fresh machine %d", i, got, want[k])
			}
		}
	}
	if err != nil {
		firstErr = fmt.Errorf("fresh-machine results: %w", err)
	}
	return simCycles, mismatches, firstErr
}
