// Command perfbench is voltron's benchmark. It drives three closed-loop
// workloads through the program's public surfaces in one process and checks
// every op's output:
//
//	serve-hot   result-cache hits over loopback HTTP (server.Handler)
//	serve-cold  new content on every request, so every request compiles and simulates
//	figures     a fresh exp.Suite per op regenerating one benchmark's figure rows
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs a
// shorter untraced window and then replays the workload's ops through each
// layer's public entry points under spans, printing per-layer self times.
// The last line of standard output is one JSON object; the lines before it
// are a human-readable report starting with "#". See README.md.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload serve-hot --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// clients is the closed-loop concurrency of every workload. One client
// leaves the second CPU of a two-CPU host to the runtime and the server's
// own goroutines; on a shared two-CPU host, figures throughput over five
// runs ranged over half its median with two clients and a fifth with one.
const clients = 1

// workers bounds the program's own parallelism (server.Config.Workers,
// exp.Suite.Workers) and the benchmark's untimed parallel work (fresh-
// machine checks): one per host CPU.
var workers = min(runtime.NumCPU(), runtime.GOMAXPROCS(0))

// metric is one named measurement of the final JSON line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects a run's metrics and the human-readable lines printed
// before the JSON result: sample counts, percentiles the result leaves out,
// and host facts.
type report struct {
	res   result
	notes []string
}

func newReport() *report {
	return &report{res: result{Correct: true, Metrics: map[string]metric{}}}
}

func (r *report) set(name string, v float64, unit string) {
	r.res.Metrics[name] = metric{Value: v, Unit: unit}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// count adds attempted and failed ops; any failure makes the run incorrect.
func (r *report) count(attempted, failed int64) {
	r.res.Attempted += attempted
	r.res.Failed += failed
	if failed > 0 {
		r.res.Correct = false
	}
}

// options are the parsed command-line flags.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
}

// workloads maps each workload name to its end-to-end and traced runs.
var workloads = map[string]struct {
	e2e    func(o options, r *report) error
	traced func(o options, r *report) error
}{
	"serve-hot":  {hotE2E, hotTraced},
	"serve-cold": {coldE2E, coldTraced},
	"figures":    {figuresE2E, figuresTraced},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var traceFlag int
	fs.StringVar(&o.workload, "workload", "", "serve-hot | serve-cold | figures")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed: the same seed generates the same requests")
	fs.Float64Var(&o.seconds, "seconds", 10, "measured window in seconds")
	fs.IntVar(&traceFlag, "trace", 0, "1 = traced layer replay (per-layer metrics), 0 = end-to-end metrics")
	recordDigests := fs.Bool("record-digests", false, "regenerate "+digestFile+" from the current program and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *recordDigests {
		if err := writeDigests(digestFile); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	w, ok := workloads[o.workload]
	if !ok || o.seconds <= 0 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintf(stderr, "perfbench: want --workload serve-hot|serve-cold|figures, --seconds > 0, --trace 0|1\n")
		return 2
	}
	o.trace = traceFlag == 1
	if err := checkCheckout(); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}

	r := newReport()
	fmt.Fprintf(stdout, "# host nproc=%d gomaxprocs=%d clients=%d workers=%d go=%s commit=%s workload=%s seed=%d seconds=%g trace=%d\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), clients, workers, runtime.Version(), commit(), o.workload, o.seed, o.seconds, traceFlag)
	measure := w.e2e
	if o.trace {
		measure = w.traced
	}
	if err := measure(o, r); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	for _, n := range r.notes {
		fmt.Fprintln(stdout, "# "+n)
	}
	names := make([]string, 0, len(r.res.Metrics))
	for n := range r.res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.res.Metrics[n]
		fmt.Fprintf(stdout, "# metric %s %g %s\n", n, m.Value, m.Unit)
	}
	b, err := json.Marshal(r.res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	return 0
}

// checkCheckout fails fast when the benchmark runs outside a repository
// checkout: the serve workloads read the example programs from it.
func checkCheckout() error {
	if _, err := os.Stat(exampleDir); err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	return nil
}

// commit is the VCS revision the binary was built from, when the build
// could stamp one.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" && len(s.Value) >= 12 {
				return s.Value[:12]
			}
		}
	}
	return "unknown"
}

// deadline returns the end of a window of the given length from now.
func deadline(seconds float64) time.Time {
	return time.Now().Add(time.Duration(seconds * float64(time.Second)))
}
