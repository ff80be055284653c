package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"voltron/internal/exp"
	"voltron/internal/server"
	"voltron/internal/spec"
)

// TestOnePipelineAgrees runs each job through every entry point — voltron-run,
// POST /v1/jobs and, for benchmarks, exp.Suite.Run — and requires the same
// total and per-region cycles from all of them. voltron-run reports region
// cycles in its -stalls table, so both voltron-run and the service trace
// every job. Tracing changes no cycle count except through the auto-mode
// stall-report recheck, and every entry point applies that recheck the same
// way. The suite runs untraced, and every job it runs uses measured selection.
func TestOnePipelineAgrees(t *testing.T) {
	srcPath := filepath.Join("..", "..", "examples", "lang", "stencil.vs")
	src, err := os.ReadFile(srcPath)
	if err != nil {
		t.Fatal(err)
	}
	s := server.New(server.Config{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	suite := exp.NewSuite()
	suite.Workers = 1
	cases := []struct {
		bench, srcPath string
		strategy, sel  string
		cores          int
		suite          bool
		wantTotal      int64 // 0: not pinned
	}{
		{bench: "gsmdecode", strategy: "hybrid", sel: "measured", cores: 4, suite: true},
		{bench: "rawcaudio", strategy: "llp", sel: "measured", cores: 2, suite: true},
		{srcPath: srcPath, strategy: "hybrid", sel: "measured", cores: 4},
		// A traced auto job rechecks its static picks against its own stall
		// report and answers with the re-selected program's run.
		{bench: "gsmdecode", strategy: "ilp", sel: "auto", cores: 4, wantTotal: 26209},
	}
	for _, c := range cases {
		prog := c.bench
		if prog == "" {
			prog = filepath.Base(c.srcPath)
		}
		t.Run(prog+"/"+c.strategy+"/"+c.sel+"/"+strconv.Itoa(c.cores), func(t *testing.T) {
			args := []string{"-strategy", c.strategy, "-select", c.sel, "-cores", strconv.Itoa(c.cores), "-stalls", "-j", "1"}
			req := spec.JobRequest{Strategy: c.strategy, Cores: c.cores, Trace: true, Compiler: spec.CompilerOptions{Select: c.sel}}
			if c.bench != "" {
				args = append(args, "-bench", c.bench)
				req.Program = &spec.ProgramSpec{Kind: spec.KindBench, Bench: c.bench}
			} else {
				args = append(args, "-src", c.srcPath)
				req.Program = &spec.ProgramSpec{Kind: spec.KindSource, Name: "stencil", Source: string(src)}
			}
			var stdout, stderr bytes.Buffer
			if err := run(args, &stdout, &stderr); err != nil {
				t.Fatalf("voltron-run %v: %v", args, err)
			}
			cliTotal, cliRegions := parseRunOutput(t, stdout.String())

			body, err := json.Marshal(req)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			b, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("POST /v1/jobs: status %d: %s", resp.StatusCode, b)
			}
			var job server.JobResponse
			if err := json.Unmarshal(b, &job); err != nil {
				t.Fatal(err)
			}
			if cliTotal != job.TotalCycles || !slices.Equal(cliRegions, job.RegionCycles) {
				t.Errorf("voltron-run: %d cycles, regions %v; /v1/jobs: %d cycles, regions %v",
					cliTotal, cliRegions, job.TotalCycles, job.RegionCycles)
			}
			if c.wantTotal != 0 && job.TotalCycles != c.wantTotal {
				t.Errorf("/v1/jobs: %d cycles, want %d", job.TotalCycles, c.wantTotal)
			}
			if c.suite {
				strat, _ := spec.StrategyFor(c.strategy)
				res, err := suite.Run(c.bench, strat, c.cores)
				if err != nil {
					t.Fatal(err)
				}
				if res.TotalCycles != job.TotalCycles || !slices.Equal(res.RegionCycles, job.RegionCycles) {
					t.Errorf("exp.Suite.Run: %d cycles, regions %v; /v1/jobs: %d cycles, regions %v",
						res.TotalCycles, res.RegionCycles, job.TotalCycles, job.RegionCycles)
				}
			}
		})
	}
}

var totalRE = regexp.MustCompile(`\): (\d+) cycles, speedup`)

// parseRunOutput reads voltron-run's total cycles from its summary line and
// the region cycles from the region rows of its -stalls table.
func parseRunOutput(t *testing.T, out string) (total int64, regions []int64) {
	t.Helper()
	m := totalRE.FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("no summary line in:\n%s", out)
	}
	total, _ = strconv.ParseInt(m[1], 10, 64)
	sc := bufio.NewScanner(strings.NewReader(out))
	for sc.Scan() && !strings.HasPrefix(sc.Text(), "stall attribution") {
	}
	sc.Scan() // the column header
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if strings.HasPrefix(sc.Text(), " ") || len(f) < 3 {
			continue // a per-core row
		}
		if f[0] == "TOTAL" {
			return total, regions
		}
		n, err := strconv.ParseInt(f[2], 10, 64)
		if err != nil {
			t.Fatalf("region row %q: %v", sc.Text(), err)
		}
		regions = append(regions, n)
	}
	t.Fatalf("no stall table in:\n%s", out)
	return 0, nil
}
