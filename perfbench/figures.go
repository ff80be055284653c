package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"sync"

	"voltron/internal/compiler"
	"voltron/internal/exp"
	"voltron/internal/workload"
)

// A figures op regenerates one benchmark's rows of every paper figure —
// Figs 3 and 10-14 plus the 1..64-core Scaling and ScalingStalls sweep — on
// a fresh exp.Suite with the default (measured) selection, or the Fig 7-9
// kernel speedups. One round of ops is the full figure set: every benchmark
// once and the kernels once. Whole-suite ops would take seconds each, too
// few per run for a median; per-benchmark ops regenerate the same tables
// row by row.

// digestFile records the SHA-256 of every figures op's table JSON.
const digestFile = "perfbench/figures.sha256"

//go:embed figures.sha256
var recordedDigests string

// kernelsOp names the Fig 7-9 op in the digest file.
const kernelsOp = "fig7-9"

// figureRuns are the (strategy, cores) simulations one benchmark's figures
// need: the serial baseline, each technique at 2 and 4 cores, and hybrid
// across the scaling sweep.
func figureRuns() []runConfig {
	runs := []runConfig{{compiler.Serial, 1}}
	for _, c := range []int{2, 4} {
		for _, s := range []compiler.Strategy{compiler.ForceILP, compiler.ForceFTLP, compiler.ForceLLP} {
			runs = append(runs, runConfig{s, c})
		}
	}
	for _, c := range exp.ScalingCores {
		runs = append(runs, runConfig{compiler.Hybrid, c})
	}
	return runs
}

type runConfig struct {
	strat compiler.Strategy
	cores int
}

// figuresOpNames lists the op types of one round in paper order.
func figuresOpNames() []string {
	return append(workload.Names(), kernelsOp)
}

// figuresOp regenerates one op's tables and returns their JSON and the
// total cycles of the simulations behind them.
func figuresOp(name string) ([]byte, int64, error) {
	if name == kernelsOp {
		res, err := exp.Fig7to9()
		if err != nil {
			return nil, 0, err
		}
		b, err := json.Marshal(res)
		if err != nil {
			return nil, 0, err
		}
		return b, 0, nil
	}
	s := exp.NewSuite()
	s.Benchmarks = []string{name}
	s.Workers = 1
	var buf bytes.Buffer
	for _, fig := range []func() (*exp.Table, error){
		s.Fig3, s.Fig10, s.Fig11, s.Fig12, s.Fig13, s.Fig14, s.Scaling, s.ScalingStalls,
	} {
		t, err := fig()
		if err != nil {
			return nil, 0, err
		}
		if err := t.WriteJSON(&buf); err != nil {
			return nil, 0, err
		}
	}
	var cycles int64
	for _, rc := range figureRuns() {
		res, err := s.Run(name, rc.strat, rc.cores) // cached by the figures above
		if err != nil {
			return nil, 0, err
		}
		cycles += res.TotalCycles
	}
	return buf.Bytes(), cycles, nil
}

func digestOf(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// parseDigests reads "<hex digest>  <op name>" lines.
func parseDigests(text string) (map[string]string, error) {
	out := map[string]string{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		d, name, ok := strings.Cut(line, "  ")
		if !ok {
			return nil, fmt.Errorf("%s: malformed line %q", digestFile, line)
		}
		out[name] = d
	}
	return out, sc.Err()
}

// writeDigests regenerates the digest file from the current program.
func writeDigests(path string) error {
	names := figuresOpNames()
	lines := make([]string, len(names))
	if err := parallel(len(names), func(i int) error {
		b, _, err := figuresOp(names[i])
		lines[i] = digestOf(b) + "  " + names[i]
		return err
	}); err != nil {
		return err
	}
	text := "# SHA-256 of each figures op's table JSON; regenerate with --record-digests.\n" +
		strings.Join(lines, "\n") + "\n"
	return os.WriteFile(path, []byte(text), 0o644)
}

// figuresRoundOps is how many ops one round has.
var figuresRoundOps = int64(len(figuresOpNames()))

// figuresMinRounds keeps p90 reportable: four rounds of 26 ops leave ten
// samples beyond it.
const figuresMinRounds = 4

// figuresWorkload is the figures op sequence: every round visits each op
// type once, in a seed-shuffled order.
type figuresWorkload struct {
	seed     int64
	names    []string
	want     map[string]string
	kernelCy int64

	mu     sync.Mutex
	first  map[string]string // digest of each op type's first run in this process
	cycles map[string]int64
}

func newFiguresWorkload(seed int64) (*figuresWorkload, error) {
	want, err := parseDigests(recordedDigests)
	if err != nil {
		return nil, err
	}
	return &figuresWorkload{seed: seed, names: figuresOpNames(), want: want,
		first: map[string]string{}, cycles: map[string]int64{}}, nil
}

// opName returns the op type of op i.
func (w *figuresWorkload) opName(i int64) string {
	round := i / figuresRoundOps
	perm := rand.New(rand.NewSource(w.seed*1_000_003 + round)).Perm(len(w.names))
	return w.names[perm[i%figuresRoundOps]]
}

// check verifies one op's tables: byte-identical to the first op of its
// type in this process and to the recorded digest.
func (w *figuresWorkload) check(name string, tables []byte, cycles int64) error {
	d := digestOf(tables)
	if want, ok := w.want[name]; !ok {
		return fmt.Errorf("%s: no recorded digest in %s", name, digestFile)
	} else if d != want {
		return fmt.Errorf("%s: tables digest %s, recorded %s", name, d, want)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if f, ok := w.first[name]; ok && f != d {
		return fmt.Errorf("%s: tables differ from the first run's", name)
	}
	if c, ok := w.cycles[name]; ok && c != cycles {
		return fmt.Errorf("%s: %d simulated cycles, first run had %d", name, cycles, c)
	}
	w.first[name], w.cycles[name] = d, cycles
	return nil
}

func (w *figuresWorkload) op(_ int, i int64) (int64, error) {
	name := w.opName(i)
	tables, cycles, err := figuresOp(name)
	if err != nil {
		return 0, err
	}
	if name == kernelsOp {
		cycles = w.kernelCy
	}
	return cycles, w.check(name, tables, cycles)
}

// simCycles is the total cycles of one round, once every op type ran.
func (w *figuresWorkload) simCycles() (int64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	var sum int64
	for _, n := range w.names {
		c, ok := w.cycles[n]
		if !ok {
			return 0, fmt.Errorf("op %s never ran", n)
		}
		sum += c
	}
	return sum, nil
}

// setup warms the process up the way the first ops would: the
// kernel op and the lightest benchmark's op, then measures the kernel
// cycles.
func (w *figuresWorkload) setup() (struct{}, error) {
	for _, n := range []string{kernelsOp, "rawcaudio"} {
		if _, _, err := figuresOp(n); err != nil {
			return struct{}{}, err
		}
	}
	var err error
	w.kernelCy, err = kernelCycles()
	return struct{}{}, err
}

func figuresE2E(o options, r *report) error {
	w, err := newFiguresWorkload(o.seed)
	if err != nil {
		return err
	}
	_, setup, err := repeatSetup(w.setup, func(struct{}) {})
	if err != nil {
		return err
	}
	win := closedLoop(clients, o.seconds, figuresRoundOps, figuresMinRounds*figuresRoundOps, w.op)
	simCycles, err := w.simCycles()
	if err != nil {
		return err
	}
	if err := e2eMetrics(r, win, setup, simCycles); err != nil {
		return err
	}
	win = window{}
	r.set("live_heap_mb", float64(liveHeap())/1e6, "MB")
	return nil
}
