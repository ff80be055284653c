package exp

import (
	"fmt"

	"voltron/internal/compiler"
	"voltron/internal/stats"
)

// ScalingCores is the many-core sweep the scalability figure covers. The
// paper evaluates 2 and 4 cores; everything beyond is the extension enabled
// by the activity-indexed event scheduler (simulation cost tracks activity,
// not machine width, so 64-core sweeps are routine). Coupled groups stay
// limited to 4 cores (paper §3.2: "coupling more than 4 cores is rare"), so
// the wide configurations draw on decoupled fine-grain TLP and chunked
// DOALL loops only — the selection machinery handles the restriction by
// construction (the coupled candidate is simply unavailable).
var ScalingCores = []int{1, 2, 4, 8, 16, 32, 64}

// Scaling measures hybrid speedup over the serial baseline across the
// many-core sweep: one column per core count, one row per benchmark.
func (s *Suite) Scaling() (*Table, error) {
	t := &Table{
		Title:   "Extension: hybrid speedup scaling (coupled groups capped at 4 cores)",
		Columns: coreColumns(),
	}
	return s.tableRows(t, func(b string) ([]float64, error) {
		var vals []float64
		for _, n := range ScalingCores {
			sp, err := s.Speedup(b, compiler.Hybrid, n)
			if err != nil {
				return nil, err
			}
			vals = append(vals, sp)
		}
		return vals, nil
	})
}

// scalingKinds is the stall-attribution split of the scalability figure:
// the paper's Figure 12 categories that matter as machines widen. Idle and
// lock-step cycles fold into the sync column implicitly (wide machines run
// decoupled, where waiting cores charge call/return sync).
var scalingKinds = []stats.Kind{
	stats.Busy, stats.IStall, stats.DStall,
	stats.RecvData, stats.RecvPred, stats.SendStall,
	stats.SyncCallRet, stats.TMRollback,
}

// ScalingStalls attributes where the cycles go as the machine widens: one
// row per core count, one column per stall category, each value the
// average-across-benchmarks fraction of total core-cycles (every row sums
// to ~1 with the categories not listed contributing the remainder). Wider
// machines shift time from busy toward sync/receive stalls — the figure
// shows which communication cost caps the speedup curve.
func (s *Suite) ScalingStalls() (*Table, error) {
	t := &Table{
		Title:   "Extension: cycle attribution vs core count (hybrid, fraction of core-cycles)",
		Columns: make([]string, len(scalingKinds)),
	}
	for i, k := range scalingKinds {
		t.Columns[i] = k.String()
	}
	for _, n := range ScalingCores {
		row := Row{Name: fmt.Sprintf("%d core", n), Values: make([]float64, len(scalingKinds))}
		// Average each benchmark's per-kind share of its own accounted
		// cycles, so long benchmarks do not dominate short ones.
		var ok int
		for _, b := range s.Benchmarks {
			res, err := s.Run(b, compiler.Hybrid, n)
			if err != nil {
				return nil, err
			}
			var total int64
			for i := range res.Cores {
				total += res.Cores[i].Total()
			}
			if total == 0 {
				continue
			}
			ok++
			for i, k := range scalingKinds {
				row.Values[i] += float64(res.Stall(k)) / float64(total)
			}
		}
		if ok > 0 {
			for i := range row.Values {
				row.Values[i] /= float64(ok)
			}
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// coreColumns renders the sweep as table column headers.
func coreColumns() []string {
	cols := make([]string, len(ScalingCores))
	for i, n := range ScalingCores {
		cols[i] = fmt.Sprintf("%d core", n)
	}
	return cols
}
