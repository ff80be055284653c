package exp

import (
	"fmt"

	"voltron/internal/compiler"
	"voltron/internal/stats"
)

// Every figure harness fans out over the benchmarks (Suite.tableRows): rows
// are computed Suite.Workers at a time and assembled in the paper's order.
// The per-run singleflight cache means several harnesses can run
// concurrently over one Suite without duplicating a single simulation, and
// the tables are identical to sequential generation.

// Fig3 reproduces Figure 3: the fraction of dynamic execution best
// accelerated by each parallelism class on a 4-core system. Following the
// paper's methodology, each benchmark is compiled to exploit each form of
// parallelism by itself; region by region the technique with the best
// region time wins, and the region's share of serial execution is
// attributed to it.
func (s *Suite) Fig3() (*Table, error) {
	t := &Table{
		Title:   "Figure 3: breakdown of exploitable parallelism, 4-core system (fractions)",
		Columns: []string{"ILP", "fine-grain TLP", "LLP", "single core"},
	}
	return s.tableRows(t, func(b string) ([]float64, error) {
		base, err := s.Run(b, compiler.Serial, 1)
		if err != nil {
			return nil, err
		}
		type cand struct {
			idx int
			res []int64
		}
		var cands []cand
		for i, strat := range []compiler.Strategy{compiler.ForceILP, compiler.ForceFTLP, compiler.ForceLLP} {
			r, err := s.Run(b, strat, 4)
			if err != nil {
				return nil, err
			}
			cands = append(cands, cand{i, r.RegionCycles})
		}
		var total float64
		frac := make([]float64, 4)
		for reg, serialCycles := range base.RegionCycles {
			w := float64(serialCycles)
			total += w
			best, bestCycles := 3, serialCycles // index 3 = single core
			for _, c := range cands {
				if reg < len(c.res) && c.res[reg] < bestCycles {
					best, bestCycles = c.idx, c.res[reg]
				}
			}
			frac[best] += w
		}
		for i := range frac {
			frac[i] /= total
		}
		return frac, nil
	})
}

// figSpeedups builds a per-technique speedup table (Figures 10 and 11).
func (s *Suite) figSpeedups(cores int, title string) (*Table, error) {
	t := &Table{
		Title:   title,
		Columns: []string{"ILP", "fine-grain TLP", "LLP"},
	}
	strategies := []compiler.Strategy{compiler.ForceILP, compiler.ForceFTLP, compiler.ForceLLP}
	return s.tableRows(t, func(b string) ([]float64, error) {
		var vals []float64
		for _, strat := range strategies {
			sp, err := s.Speedup(b, strat, cores)
			if err != nil {
				return nil, err
			}
			vals = append(vals, sp)
		}
		return vals, nil
	})
}

// Fig10 reproduces Figure 10: per-technique speedups on 2 cores.
func (s *Suite) Fig10() (*Table, error) {
	return s.figSpeedups(2, "Figure 10: speedup on 2-core Voltron exploiting ILP, fine-grain TLP and LLP separately")
}

// Fig11 reproduces Figure 11: per-technique speedups on 4 cores.
func (s *Suite) Fig11() (*Table, error) {
	return s.figSpeedups(4, "Figure 11: speedup on 4-core Voltron exploiting ILP, fine-grain TLP and LLP separately")
}

// Fig12 reproduces Figure 12: stall-cycle breakdown on a 4-core system,
// coupled (ILP) vs decoupled (fine-grain TLP), normalized to serial
// execution time. Columns are interleaved: first the coupled bar's
// components, then the decoupled bar's.
func (s *Suite) Fig12() (*Table, error) {
	t := &Table{
		Title: "Figure 12: stall breakdown on 4 cores (fractions of serial time; c=coupled ILP bar, d=decoupled fine-grain TLP bar)",
		Columns: []string{
			"c I-stalls", "c D-stalls", "c lockstep",
			"d I-stalls", "d D-stalls", "d recv", "d pred recv", "d sync",
		},
	}
	return s.tableRows(t, func(b string) ([]float64, error) {
		base, err := s.Run(b, compiler.Serial, 1)
		if err != nil {
			return nil, err
		}
		ref := base.TotalCycles
		cp, err := s.Run(b, compiler.ForceILP, 4)
		if err != nil {
			return nil, err
		}
		dc, err := s.Run(b, compiler.ForceFTLP, 4)
		if err != nil {
			return nil, err
		}
		return []float64{
			cp.AvgStallFraction(stats.IStall, ref),
			cp.AvgStallFraction(stats.DStall, ref),
			cp.AvgStallFraction(stats.Lockstep, ref),
			dc.AvgStallFraction(stats.IStall, ref),
			dc.AvgStallFraction(stats.DStall, ref),
			dc.AvgStallFraction(stats.RecvData, ref) + dc.AvgStallFraction(stats.SendStall, ref),
			dc.AvgStallFraction(stats.RecvPred, ref),
			dc.AvgStallFraction(stats.SyncCallRet, ref),
		}, nil
	})
}

// Fig13 reproduces Figure 13: hybrid-parallelism speedups on 2 and 4 cores.
func (s *Suite) Fig13() (*Table, error) {
	t := &Table{
		Title:   "Figure 13: speedup on 2-core and 4-core Voltron exploiting hybrid parallelism",
		Columns: []string{"2 core", "4 core"},
	}
	return s.tableRows(t, func(b string) ([]float64, error) {
		s2, err := s.Speedup(b, compiler.Hybrid, 2)
		if err != nil {
			return nil, err
		}
		s4, err := s.Speedup(b, compiler.Hybrid, 4)
		if err != nil {
			return nil, err
		}
		return []float64{s2, s4}, nil
	})
}

// Fig14 reproduces Figure 14: fraction of hybrid execution time spent in
// each mode on 4 cores.
func (s *Suite) Fig14() (*Table, error) {
	t := &Table{
		Title:   "Figure 14: breakdown of time spent in each execution mode (hybrid, 4 cores)",
		Columns: []string{"coupled", "decoupled"},
	}
	return s.tableRows(t, func(b string) ([]float64, error) {
		r, err := s.Run(b, compiler.Hybrid, 4)
		if err != nil {
			return nil, err
		}
		return []float64{
			r.ModeFraction(stats.ModeCoupled),
			r.ModeFraction(stats.ModeDecoupled),
		}, nil
	})
}

// Harness returns the harness that regenerates figure n, or an error when
// the suite has none; only calling the harness simulates.
func (s *Suite) Harness(n int) (func() (*Table, error), error) {
	switch n {
	case 3:
		return s.Fig3, nil
	case 10:
		return s.Fig10, nil
	case 11:
		return s.Fig11, nil
	case 12:
		return s.Fig12, nil
	case 13:
		return s.Fig13, nil
	case 14:
		return s.Fig14, nil
	}
	return nil, fmt.Errorf("no harness for figure %d (7-9 are kernel examples: see Fig7to9)", n)
}
