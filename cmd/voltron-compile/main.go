// voltron-compile compiles a benchmark (or built-in kernel) and dumps the
// per-core instruction streams for inspection.
//
// Usage:
//
//	voltron-compile -bench gsmdecode -cores 4 -strategy hybrid
//	voltron-compile -kernel gsm-ilp -cores 2 -strategy ilp
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"voltron/internal/compiler"
	"voltron/internal/exp"
	"voltron/internal/ir"
	"voltron/internal/spec"
	"voltron/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "voltron-compile:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("voltron-compile", flag.ContinueOnError)
	fs.SetOutput(stderr)
	bench := fs.String("bench", "", "benchmark name (see internal/workload)")
	kernel := fs.String("kernel", "", "built-in kernel: gsm-llp, gzip-strands, gsm-ilp")
	cores := spec.CoresFlag(fs)
	strategy := spec.StrategyFlag(fs)
	selectMode := spec.SelectFlag(fs)
	selectTh := spec.SelectThresholdFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *bench != "" && *kernel != "" {
		return fmt.Errorf("-bench and -kernel are mutually exclusive")
	}
	var p *ir.Program
	var err error
	switch {
	case *bench != "":
		p, err = workload.Build(*bench)
	case *kernel == "gsm-llp":
		p = exp.GsmLLPKernel(16)
	case *kernel == "gzip-strands":
		p = exp.GzipStrandKernel(1024)
	case *kernel == "gsm-ilp":
		p = exp.GsmILPKernel(64)
	default:
		err = fmt.Errorf("need -bench or -kernel")
	}
	if err != nil {
		return err
	}
	strat, ok := spec.StrategyFor(*strategy)
	if !ok {
		return fmt.Errorf("unknown strategy %q", *strategy)
	}
	sel, ok := spec.SelectionFor(*selectMode)
	if !ok {
		return fmt.Errorf("unknown selection mode %q", *selectMode)
	}
	if err := spec.ValidateCores(*cores); err != nil {
		return err
	}
	if err := spec.ValidateSelectThreshold(*selectTh); err != nil {
		return err
	}
	cp, err := compiler.Compile(p, compiler.Options{
		Cores: *cores, Strategy: strat, Selection: sel, SelectThreshold: *selectTh,
	})
	if err != nil {
		return err
	}
	for ri, r := range cp.Regions {
		fmt.Fprintf(stdout, "=== region %q mode=%v", r.Name, r.Mode)
		if ri < len(cp.Selection.Regions) {
			rs := cp.Selection.Regions[ri]
			fmt.Fprintf(stdout, " tier=%s choice=%q", rs.Tier, rs.Choice)
		}
		fmt.Fprintf(stdout, " ===\n")
		for c := 0; c < cp.Cores; c++ {
			fmt.Fprintf(stdout, "--- core %d (%d insts) ---\n", c, len(r.Code[c]))
			rev := map[int][]int64{}
			for lbl, idx := range r.Labels[c] {
				rev[idx] = append(rev[idx], lbl)
			}
			// Deterministic dump: co-located labels print in ascending order.
			for _, lbls := range rev {
				sort.Slice(lbls, func(i, j int) bool { return lbls[i] < lbls[j] })
			}
			for i, in := range r.Code[c] {
				for _, lbl := range rev[i] {
					fmt.Fprintf(stdout, "B%d:\n", lbl)
				}
				fmt.Fprintf(stdout, "  %4d  %v\n", i, in)
			}
		}
		if len(r.Fallback) > 0 {
			fmt.Fprintf(stdout, "--- fallback (%d insts) ---\n", len(r.Fallback))
		}
	}
	return nil
}
