// voltron-bench regenerates the paper's evaluation figures on the
// simulated Voltron machine.
//
// Usage:
//
//	voltron-bench                 # all figures
//	voltron-bench -fig 13         # one figure (3, 10, 11, 12, 13, 14)
//	voltron-bench -fig 7          # the Figure 7-9 kernel speedups
//	voltron-bench -bench cjpeg    # restrict to one benchmark
//	voltron-bench -smoke          # fast subset (two benchmarks, three figures)
//	voltron-bench -j 1            # force sequential evaluation
//	voltron-bench -select auto    # tiered strategy selection for every compile
//	voltron-bench -agreement      # classifier-vs-measured selection agreement
//	voltron-bench -cpuprofile cpu.pprof      # profile the run (go tool pprof)
//	voltron-bench -memprofile mem.pprof      # heap profile at exit
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"

	"voltron/internal/exp"
	"voltron/internal/spec"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "voltron-bench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("voltron-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fig := fs.Int("fig", 0, "figure to regenerate (0 = all)")
	bench := fs.String("bench", "", "restrict to one benchmark")
	smoke := fs.Bool("smoke", false, "fast subset: gsmdecode+rawcaudio, figures 3/12/13")
	scaling := fs.Bool("scaling", false, "run the many-core scaling extension (speedup + stall attribution at 1..64 cores) instead of the paper figures")
	jsonOut := fs.Bool("json", false, "emit JSON instead of text tables")
	workers := fs.Int("j", 0, "evaluation workers (0 = all host CPUs, 1 = sequential)")
	selectMode := spec.SelectFlag(fs)
	selectTh := spec.SelectThresholdFlag(fs)
	agreement := fs.Bool("agreement", false, "evaluate classifier-vs-measured selection agreement and exit")
	agreeRand := fs.Int("agreerand", 8, "random programs added to the agreement evaluation")
	agreeMin := fs.Float64("agreemin", 0, "fail unless auto agreement reaches this fraction with zero never-hurts violations (0 = report only)")
	agreeOut := fs.String("agreeout", "", "write the agreement report JSON to this file")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile to this file at exit")
	if err := fs.Parse(args); err != nil {
		return err
	}

	// Batch tool, short-lived, compile-heavy: trade peak heap for fewer GC
	// cycles (as gofmt does). GOGC in the environment still takes priority.
	if os.Getenv("GOGC") == "" {
		debug.SetGCPercent(400)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(stderr, "voltron-bench:", err)
				return
			}
			defer f.Close()
			runtime.GC() // flush accumulated garbage so the profile shows live heap
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(stderr, "voltron-bench:", err)
			}
		}()
	}

	sel, ok := spec.SelectionFor(*selectMode)
	if !ok {
		return fmt.Errorf("unknown selection mode %q", *selectMode)
	}
	if err := spec.ValidateSelectThreshold(*selectTh); err != nil {
		return err
	}
	s := exp.NewSuite()
	if *bench != "" {
		s.Benchmarks = []string{*bench}
	}
	if *smoke {
		s.Benchmarks = []string{"gsmdecode", "rawcaudio"}
	}
	if *workers > 0 {
		s.Workers = *workers
	}
	s.Select = sel
	s.SelectThreshold = *selectTh
	if *agreement {
		rep, err := s.SelectionAgreement(*agreeRand)
		if err != nil {
			return err
		}
		if *jsonOut {
			if err := rep.WriteJSON(stdout); err != nil {
				return err
			}
		} else {
			rep.Print(stdout)
		}
		if err := writeAgreement(*agreeOut, rep); err != nil {
			return err
		}
		return checkAgreement(rep, *agreeMin)
	}
	if *scaling {
		speedup, err := s.Scaling()
		if err != nil {
			return err
		}
		stalls, err := s.ScalingStalls()
		if err != nil {
			return err
		}
		if *jsonOut {
			// One combined document, so the CI artifact is a single
			// machine-readable figure.
			return writeScalingJSON(stdout, speedup, stalls)
		}
		speedup.Print(stdout)
		fmt.Fprintln(stdout)
		stalls.Print(stdout)
		return nil
	}
	figs := []int{3, 7, 10, 11, 12, 13, 14}
	if *smoke {
		figs = []int{3, 12, 13}
	}
	if *fig != 0 {
		figs = []int{*fig}
	}
	for _, f := range figs {
		if f >= 7 && f <= 9 {
			res, err := exp.Fig7to9()
			if err != nil {
				return err
			}
			fmt.Fprintln(stdout, "Figures 7-9: kernel speedups on 2 cores (paper vs measured)")
			for _, r := range res {
				fmt.Fprintf(stdout, "  %-22s paper %.2fx   measured %.2fx\n", r.Name, r.PaperSpeedup, r.Measured2Core)
			}
			fmt.Fprintln(stdout)
			continue
		}
		t, err := s.Figure(f)
		if err != nil {
			return err
		}
		if *jsonOut {
			if err := t.WriteJSON(stdout); err != nil {
				return err
			}
		} else {
			t.Print(stdout)
		}
		fmt.Fprintln(stdout)
	}
	return nil
}

// writeScalingJSON emits the scalability figure as one JSON document:
// the hybrid speedup sweep and the stall attribution side by side.
func writeScalingJSON(w io.Writer, speedup, stalls *exp.Table) error {
	var sp, st bytes.Buffer
	if err := speedup.WriteJSON(&sp); err != nil {
		return err
	}
	if err := stalls.WriteJSON(&st); err != nil {
		return err
	}
	out := struct {
		Speedup json.RawMessage `json:"speedup"`
		Stalls  json.RawMessage `json:"stalls"`
	}{Speedup: sp.Bytes(), Stalls: st.Bytes()}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// writeAgreement records the agreement report (the CI artifact).
func writeAgreement(path string, rep *exp.AgreementReport) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return rep.WriteJSON(f)
}

// checkAgreement enforces the -agreemin gate: a minimum auto-agreement
// fraction and the never-hurts invariant. min = 0 reports without failing.
func checkAgreement(rep *exp.AgreementReport, min float64) error {
	if min <= 0 {
		return nil
	}
	if rep.Hurts > 0 {
		return fmt.Errorf("never-hurts violated: %d region(s) slower than serial", rep.Hurts)
	}
	if rep.AutoAgreement < min {
		return fmt.Errorf("auto agreement %.1f%% below floor %.1f%%", 100*rep.AutoAgreement, 100*min)
	}
	return nil
}
