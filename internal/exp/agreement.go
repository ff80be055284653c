package exp

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"voltron/internal/compiler"
	"voltron/internal/core"
	"voltron/internal/ir"
	"voltron/internal/par"
	"voltron/internal/prof"
	"voltron/internal/workload"
)

// Selection-agreement evaluation for the tiered strategy selector: how
// often the static classifier's pick matches measured selection's ground
// truth, how often auto mode (classifier + escalation) lands on it, and
// whether auto mode ever installs a lowering that is slower than serial
// (the paper's "never hurts" invariant).

// AgreementRow compares one region's classifier verdict against measured
// ground truth.
type AgreementRow struct {
	Bench  string `json:"bench"`
	Region int    `json:"region"`
	Name   string `json:"name"`
	// Tier and Confidence are the classifier's verdict (Tier as recorded by
	// auto mode, so escalated regions show "hard").
	Tier       string  `json:"tier"`
	Confidence float64 `json:"confidence"`
	// Static is the classifier's unthresholded pick, Auto what auto mode
	// installed (equal to Static unless the region escalated), Measured the
	// ground truth from full measured selection.
	Static   string `json:"static_choice"`
	Auto     string `json:"auto_choice"`
	Measured string `json:"measured_choice"`
	// StaticAgree: classifier pick == ground truth. AutoAgree: installed
	// pick == ground truth. Escalated: auto sent the region to measurement.
	StaticAgree bool `json:"static_agree"`
	AutoAgree   bool `json:"auto_agree"`
	Escalated   bool `json:"escalated,omitempty"`
	// Hurt: auto deviated from measured ground truth AND the installed
	// parallel lowering ran slower than the serial lowering of the same
	// region — a never-hurts violation introduced by static selection.
	// (Where auto agrees with measured, its output IS the baseline
	// system's, whose never-hurts property measured selection enforces;
	// statistical DOALL is taken outright by both modes per the paper.)
	Hurt bool `json:"hurt,omitempty"`
}

// AgreementReport aggregates the per-region comparison.
type AgreementReport struct {
	// Cores and Threshold record the evaluated configuration (threshold -1 =
	// gate disabled; 0 never appears, the compiler default is resolved).
	Cores     int     `json:"cores"`
	Threshold float64 `json:"threshold"`
	// Regions counts every compared region; Ranked those the classifier had
	// to rank (not small / not DOALL-by-construction).
	Regions int `json:"regions"`
	Ranked  int `json:"ranked"`
	// StaticAgreement is the fraction of regions where the raw classifier
	// pick matches measured ground truth; AutoAgreement the fraction where
	// auto mode's installed pick does (its escalated regions re-measure).
	StaticAgreement float64 `json:"static_agreement"`
	AutoAgreement   float64 `json:"auto_agreement"`
	Escalated       int     `json:"escalated"`
	// Hurts counts never-hurts violations in auto mode's output. The
	// invariant demands zero.
	Hurts int            `json:"hurts"`
	Rows  []AgreementRow `json:"rows"`
}

// agreementCores is the machine width the agreement evaluation compiles
// for — the paper's 4-core configuration, where all three techniques
// compete.
const agreementCores = 4

// SelectionAgreement evaluates the classifier against measured ground truth
// across the suite's benchmarks plus nrand workload.Random programs (seeds
// 1..nrand, reproducible by construction). Each program is compiled three
// ways — measured, unthresholded static classification, and auto with the
// suite's SelectThreshold — and auto's output is additionally simulated
// against the all-serial lowering to verify never-hurts.
func (s *Suite) SelectionAgreement(nrand int) (*AgreementReport, error) {
	type job struct {
		name  string
		build func() (*ir.Program, *prof.Profile, error)
	}
	var jobs []job
	for _, b := range s.sortedBenchmarks() {
		jobs = append(jobs, job{b, func() (*ir.Program, *prof.Profile, error) {
			return s.Resolve(context.Background(), benchSpec(b))
		}})
	}
	for seed := 1; seed <= nrand; seed++ {
		jobs = append(jobs, job{fmt.Sprintf("random%d", seed), func() (*ir.Program, *prof.Profile, error) {
			p, err := workload.Random(int64(seed), 3)
			if err != nil {
				return nil, nil, err
			}
			pr, err := compiler.Profile(context.Background(), p)
			return p, pr, err
		}})
	}
	rep := &AgreementReport{Cores: agreementCores, Threshold: s.SelectThreshold}
	rowsPer := make([][]AgreementRow, len(jobs))
	err := par.Each(len(jobs), s.workers(), func(i int) (err error) {
		rowsPer[i], err = s.agreeProgram(jobs[i].name, jobs[i].build)
		return err
	})
	if err != nil {
		return nil, err
	}
	staticAgree, autoAgree := 0, 0
	for _, rows := range rowsPer {
		for _, r := range rows {
			rep.Regions++
			if r.Tier != compiler.TierSmall.String() && r.Tier != compiler.TierDOALL.String() {
				rep.Ranked++
			}
			if r.StaticAgree {
				staticAgree++
			}
			if r.AutoAgree {
				autoAgree++
			}
			if r.Escalated {
				rep.Escalated++
			}
			if r.Hurt {
				rep.Hurts++
			}
			rep.Rows = append(rep.Rows, r)
		}
	}
	if rep.Regions > 0 {
		rep.StaticAgreement = float64(staticAgree) / float64(rep.Regions)
		rep.AutoAgreement = float64(autoAgree) / float64(rep.Regions)
	}
	return rep, nil
}

// agreeProgram compares the three selection modes on one program.
func (s *Suite) agreeProgram(name string, build func() (*ir.Program, *prof.Profile, error)) ([]AgreementRow, error) {
	p, pr, err := build()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	opts := compiler.Options{
		Cores: agreementCores, Strategy: compiler.Hybrid, Profile: pr, Workers: s.workers(),
	}
	mcp, err := compiler.Compile(p, opts)
	if err != nil {
		return nil, fmt.Errorf("%s: measured: %w", name, err)
	}
	sopts := opts
	sopts.SelectThreshold = compiler.NoThreshold
	cls, err := compiler.ClassifyProgram(p, sopts)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	aopts := opts
	aopts.Selection = compiler.SelectAuto
	aopts.SelectThreshold = s.SelectThreshold
	acp, ares, err := compiler.CompileRun(context.Background(), p, aopts, core.New(core.DefaultConfig(agreementCores)))
	if err != nil {
		return nil, fmt.Errorf("%s: auto: %w", name, err)
	}
	serialOpts := opts
	serialOpts.Strategy = compiler.Serial
	_, sres, err := compiler.CompileRun(context.Background(), p, serialOpts, core.New(core.DefaultConfig(agreementCores)))
	if err != nil {
		return nil, fmt.Errorf("%s: serial: %w", name, err)
	}
	rows := make([]AgreementRow, len(p.Regions))
	for i := range p.Regions {
		asel := acp.Selection.Regions[i]
		row := AgreementRow{
			Bench: name, Region: i, Name: p.Regions[i].Name,
			Tier: asel.Tier, Confidence: asel.Confidence,
			Static:   cls[i].Choice.String(),
			Auto:     asel.Choice,
			Measured: mcp.Selection.Regions[i].Choice,
		}
		row.StaticAgree = row.Static == row.Measured
		row.AutoAgree = row.Auto == row.Measured
		row.Escalated = asel.Tier == compiler.TierHard.String()
		if !row.AutoAgree && row.Auto != compiler.ChoseSingle.String() &&
			ares.RegionCycles[i] > sres.RegionCycles[i] {
			row.Hurt = true
		}
		rows[i] = row
	}
	return rows, nil
}

// Print renders the report: aggregates first, then only the interesting
// rows (disagreements, escalations, never-hurts violations).
func (r *AgreementReport) Print(w io.Writer) {
	fmt.Fprintf(w, "selection agreement on %d cores (threshold %v): %d regions, %d ranked\n",
		r.Cores, r.Threshold, r.Regions, r.Ranked)
	fmt.Fprintf(w, "  static  (classifier only)      %.1f%%\n", 100*r.StaticAgreement)
	fmt.Fprintf(w, "  auto    (with escalation)      %.1f%%   escalated %d, hurts %d\n",
		100*r.AutoAgreement, r.Escalated, r.Hurts)
	fmt.Fprintln(w, strings.Repeat("-", 72))
	for _, row := range r.Rows {
		if row.AutoAgree && !row.Escalated && !row.Hurt {
			continue
		}
		status := "ESCALATED"
		if !row.AutoAgree {
			status = "DISAGREE"
		}
		if row.Hurt {
			status = "HURT"
		}
		fmt.Fprintf(w, "  %-9s %-14s r%d conf=%.3f static=%q auto=%q measured=%q\n",
			status, row.Bench, row.Region, row.Confidence, row.Static, row.Auto, row.Measured)
	}
}

// WriteJSON renders the full report (the CI artifact).
func (r *AgreementReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
