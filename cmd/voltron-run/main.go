// voltron-run compiles one benchmark or user source program and simulates
// it, printing the cycle breakdown and speedup over the single-core
// baseline.
//
// Usage:
//
//	voltron-run -bench gsmdecode -cores 4 -strategy hybrid
//	voltron-run -bench 179.art -cores 2 -strategy ftlp -v
//	voltron-run -bench rawcaudio -j 1        # sequential measured selection
//	voltron-run -bench cjpeg -trace out.json # Chrome trace (open in Perfetto)
//	voltron-run -bench cjpeg -stalls         # stall-attribution report
//	voltron-run -src prog.vs                 # user program (see examples/lang)
//	voltron-run -src prog.vs -inputs n=4096  # override declared params
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"

	"voltron/internal/core"
	"voltron/internal/exp"
	"voltron/internal/spec"
	"voltron/internal/stats"
	"voltron/internal/trace"
	"voltron/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "voltron-run:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("voltron-run", flag.ContinueOnError)
	fs.SetOutput(stderr)
	bench := fs.String("bench", "", "benchmark name (use -list)")
	srcPath := fs.String("src", "", "source program file (mutually exclusive with -bench)")
	inputs := fs.String("inputs", "", "param overrides for -src as k=v[,k=v...]")
	cores := spec.CoresFlag(fs)
	strategy := spec.StrategyFlag(fs)
	selectMode := spec.SelectFlag(fs)
	selectTh := spec.SelectThresholdFlag(fs)
	list := fs.Bool("list", false, "list benchmarks and exit")
	verbose := fs.Bool("v", false, "per-core stall breakdown")
	tracePath := fs.String("trace", "", "write a Chrome trace (Perfetto-loadable JSON) to this file")
	stalls := fs.Bool("stalls", false, "print the per-region stall-attribution report")
	workers := fs.Int("j", 0, "measured-selection workers (0 = all host CPUs, 1 = sequential)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *list {
		for _, n := range workload.Names() {
			fmt.Fprintln(stdout, n)
		}
		return nil
	}
	if *bench != "" && *srcPath != "" {
		return fmt.Errorf("-bench and -src are mutually exclusive")
	}
	// Normalize reads a zero or empty field as "use the default"; on the
	// command line those values are mistakes, as in voltron-compile.
	if err := spec.ValidateCores(*cores); err != nil {
		return err
	}
	if *strategy == "" || *selectMode == "" {
		return fmt.Errorf("-strategy and -select must not be empty")
	}
	// The flags describe one job exactly as a POST /v1/jobs body would, so
	// the CLI and the service validate and lower it the same way.
	req := &spec.JobRequest{
		Program:  &spec.ProgramSpec{Kind: spec.KindBench, Bench: *bench},
		Strategy: *strategy,
		Cores:    *cores,
		Compiler: spec.CompilerOptions{Select: *selectMode, SelectThreshold: *selectTh},
	}
	if *srcPath != "" {
		b, err := os.ReadFile(*srcPath)
		if err != nil {
			return err
		}
		ins, err := parseInputs(*inputs)
		if err != nil {
			return err
		}
		name := strings.TrimSuffix(filepath.Base(*srcPath), filepath.Ext(*srcPath))
		req.Program = &spec.ProgramSpec{Kind: spec.KindSource, Name: name, Source: string(b), Inputs: ins}
	} else if *bench == "" {
		req.Program.Bench = "gsmdecode"
	}
	if err := req.Normalize(func(b string) bool { return slices.Contains(workload.Names(), b) }); err != nil {
		return err
	}
	// Both runs take the service's job pipeline; -j cannot change a result.
	ctx := context.Background()
	p, pr, err := exp.NewSuite().Resolve(ctx, req.Program)
	if err != nil {
		return err
	}
	baseReq := *req
	baseReq.Strategy, baseReq.Cores = "serial", 1
	_, _, base, _, err := baseReq.Simulate(ctx, p, pr, nil, core.New(baseReq.MachineConfig(nil)), *workers)
	if err != nil {
		return err
	}
	var tr *trace.Tracer
	if *tracePath != "" || *stalls {
		tr = trace.New()
	}
	_, ran, res, tr, err := req.Simulate(ctx, p, pr, nil, core.New(req.MachineConfig(tr)), *workers)
	if err != nil {
		// An aborted run (deadlock, schedule violation) still dumps the
		// requested trace — that is when it is most needed.
		if tr != nil && *tracePath != "" {
			writeChrome(*tracePath, tr)
		}
		return err
	}
	fmt.Fprintf(stdout, "%s on %d cores (%s): %d cycles, speedup %.2fx over 1-core (%d cycles)\n",
		p.Name, req.Cores, req.CompilerOpts().Strategy, res.TotalCycles,
		float64(base.TotalCycles)/float64(res.TotalCycles), base.TotalCycles)
	fmt.Fprintf(stdout, "mode occupancy: %.0f%% coupled / %.0f%% decoupled; spawns=%d tm-conflicts=%d\n",
		100*res.ModeFraction(stats.ModeCoupled), 100*res.ModeFraction(stats.ModeDecoupled),
		res.Spawns, res.TMConflicts)
	if ssum := ran.Selection; ssum.Mode != "" && req.Compiler.Select != spec.DefaultSelect {
		fmt.Fprintf(stdout, "selection: %s (%d static, %d escalated, %d measured)\n",
			ssum.Mode, ssum.Static, ssum.Escalated, ssum.Measured)
	}
	if *verbose {
		for i := range res.Run.Cores {
			c := &res.Run.Cores[i]
			fmt.Fprintf(stdout, "  core %d:", i)
			for _, k := range stats.Kinds() {
				if c.Cycles[k] > 0 {
					fmt.Fprintf(stdout, " %s=%d", k, c.Cycles[k])
				}
			}
			fmt.Fprintln(stdout)
		}
		fmt.Fprintf(stdout, "  memory: L2 hits=%d misses=%d c2c=%d invalidations=%d writebacks=%d\n",
			res.MemStats.L2Hits, res.MemStats.L2Misses, res.MemStats.C2CTransfers,
			res.MemStats.Invalidations, res.MemStats.Writebacks)
	}
	if *stalls {
		if err := tr.Report().WriteText(stdout); err != nil {
			return err
		}
	}
	if *tracePath != "" {
		if err := writeChrome(*tracePath, tr); err != nil {
			return err
		}
	}
	return nil
}

// parseInputs parses the -inputs flag ("k=v,k=v") into param overrides.
func parseInputs(s string) (map[string]int64, error) {
	if s == "" {
		return nil, nil
	}
	out := map[string]int64{}
	for _, kv := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return nil, fmt.Errorf("bad -inputs entry %q (want k=v)", kv)
		}
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad -inputs value %q: %v", kv, err)
		}
		out[k] = n
	}
	return out, nil
}

// writeChrome renders the trace as Chrome trace-event JSON into a freshly
// created file.
func writeChrome(path string, tr *trace.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteChrome(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
