package main

import (
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"strings"
	"testing"
	"time"
)

// The benchmark reads the example programs and BENCHMARK.json relative to
// the repository root, as it does when run.sh starts it.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

// contract is the metric list BENCHMARK.json declares.
type contract struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readContract(t *testing.T) contract {
	t.Helper()
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(b, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestSameSeedSameRequests(t *testing.T) {
	hot := func(seed int64) []byte {
		w, err := newHotWorkload(seed)
		if err != nil {
			t.Fatal(err)
		}
		var all []byte
		for _, e := range w.seq[:500] {
			all = append(all, w.bodies[e]...)
		}
		return all
	}
	cold := func(seed int64) []byte {
		w, err := newColdWorkload(seed)
		if err != nil {
			t.Fatal(err)
		}
		var all []byte
		for i := -w.blockLen(); i < 3*w.blockLen(); i++ {
			all = append(all, w.body(i)...)
		}
		return all
	}
	figs := func(seed int64) []string {
		w, err := newFiguresWorkload(seed)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for i := int64(0); i < 2*figuresRoundOps; i++ {
			names = append(names, w.opName(i))
		}
		return names
	}
	if !bytes.Equal(hot(7), hot(7)) {
		t.Error("serve-hot: same seed, different requests")
	}
	if !bytes.Equal(cold(7), cold(7)) {
		t.Error("serve-cold: same seed, different requests")
	}
	if bytes.Equal(cold(7), cold(8)) {
		t.Error("serve-cold: different seeds, same requests")
	}
	if !slices.Equal(figs(7), figs(7)) {
		t.Error("figures: same seed, different op order")
	}
}

// Every serve-cold request of a run has content no other request has.
func TestColdRequestsAreDistinct(t *testing.T) {
	w, err := newColdWorkload(3)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]int64{}
	for i := -w.blockLen(); i < 4*w.blockLen(); i++ {
		b := string(w.body(i))
		if j, ok := seen[b]; ok {
			t.Fatalf("requests %d and %d are identical", j, i)
		}
		seen[b] = i
	}
}

// Each figures round runs every op type exactly once.
func TestFiguresRoundsCoverEveryOp(t *testing.T) {
	w, err := newFiguresWorkload(5)
	if err != nil {
		t.Fatal(err)
	}
	for round := int64(0); round < 3; round++ {
		var names []string
		for i := int64(0); i < figuresRoundOps; i++ {
			names = append(names, w.opName(round*figuresRoundOps+i))
		}
		slices.Sort(names)
		want := slices.Clone(figuresOpNames())
		slices.Sort(want)
		if !slices.Equal(names, want) {
			t.Fatalf("round %d runs %v", round, names)
		}
	}
}

func TestPercentileIsExact(t *testing.T) {
	var s []time.Duration
	for i := 1; i <= 200; i++ {
		s = append(s, time.Duration(i))
	}
	for _, c := range []struct {
		p          float64
		v          time.Duration
		wantBeyond int
	}{{0.5, 100, 100}, {0.9, 180, 20}, {0.99, 198, 2}, {1, 200, 0}} {
		v, beyond := percentile(s, c.p)
		if v != c.v || beyond != c.wantBeyond {
			t.Errorf("p%v = %v with %d beyond, want %v with %d", c.p, v, beyond, c.v, c.wantBeyond)
		}
	}
}

// runBench runs the benchmark in-process and decodes its result line.
func runBench(t *testing.T, args ...string) result {
	t.Helper()
	var out, errb bytes.Buffer
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("%v: exit %d: %s", args, code, errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%v: correct=%v attempted=%d failed=%d\n%s", args, res.Correct, res.Attempted, res.Failed, out.String())
	}
	return res
}

// A short run of every workload emits exactly the metrics BENCHMARK.json
// names, each with its unit: the end-to-end set untraced, the per-layer set
// traced. End-to-end values are never zero.
func TestShortRunsEmitEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	c := readContract(t)
	for _, w := range c.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			res := runBench(t, "--workload", w.Name, "--seed", "2", "--seconds", "1", "--trace", "0")
			if len(res.Metrics) != len(c.EndToEnd) {
				t.Errorf("%d end-to-end metrics, want %d", len(res.Metrics), len(c.EndToEnd))
			}
			for _, m := range c.EndToEnd {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit || got.Value == 0 {
					t.Errorf("%s = %+v, want a nonzero value in %s", m.Name, got, m.Unit)
				}
			}
			res = runBench(t, "--workload", w.Name, "--seed", "2", "--seconds", "1", "--trace", "1")
			if len(res.Metrics) != len(c.PerLayer) {
				t.Errorf("%d per-layer metrics, want %d", len(res.Metrics), len(c.PerLayer))
			}
			for _, m := range c.PerLayer {
				if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("%s = %+v, want unit %s", m.Name, got, m.Unit)
				}
			}
		})
	}
}

// Replayed spans nest under their op, and children never take longer than
// their parent.
func TestReplaySpansNest(t *testing.T) {
	w, err := newColdWorkload(1)
	if err != nil {
		t.Fatal(err)
	}
	pl := newPipeline()
	for k := 0; k < 6; k++ {
		pl.tr.op = k
		if err := pl.tr.span("op", func() error {
			req, _, err := pl.front(w.body(int64(k)))
			if err != nil {
				return err
			}
			_, err = pl.back(req)
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	pl.tr.op = 6
	if err := pl.tr.span("op", func() error { _, err := pl.figuresOp(kernelsOp); return err }); err != nil {
		t.Fatal(err)
	}
	if err := pl.tr.checkNesting(); err != nil {
		t.Fatal(err)
	}
	var ops, nested int
	for _, s := range pl.tr.spans {
		if s.parent < 0 {
			ops++
			if s.name != "op" {
				t.Errorf("root span %q, want op", s.name)
			}
		} else {
			nested++
		}
	}
	if ops != 7 || nested == 0 {
		t.Errorf("%d op spans with %d nested spans", ops, nested)
	}
	for name, perOp := range pl.tr.selfTimes() {
		for op, d := range perOp {
			if d < 0 {
				t.Errorf("%s in op %d: negative self time %v", name, op, d)
			}
		}
	}

	bad := &tracer{spans: []span{
		{name: "op", op: 0, parent: -1, start: 0, end: 10},
		{name: "a", op: 0, parent: 0, start: 0, end: 6},
		{name: "b", op: 0, parent: 0, start: 4, end: 10},
	}}
	if bad.checkNesting() == nil {
		t.Error("overlapping children that outlast their parent passed the check")
	}
	stray := &tracer{spans: []span{
		{name: "op", op: 0, parent: -1, start: 0, end: 10},
		{name: "a", op: 1, parent: 0, start: 2, end: 3},
	}}
	if stray.checkNesting() == nil {
		t.Error("a child of another op passed the check")
	}
}

// The recorded digests cover every figures op.
func TestDigestsCoverEveryOp(t *testing.T) {
	d, err := parseDigests(recordedDigests)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range figuresOpNames() {
		if len(d[n]) != 64 {
			t.Errorf("%s: digest %q", n, d[n])
		}
	}
}
