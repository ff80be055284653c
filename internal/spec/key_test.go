package spec

import (
	"errors"
	"fmt"
	"testing"
)

// bench is the bench-kind program union member for name.
func bench(name string) *ProgramSpec { return &ProgramSpec{Kind: KindBench, Bench: name} }

// normalized builds a normalized job request for key tests.
func normalized(t *testing.T, r *JobRequest) *JobRequest {
	t.Helper()
	if err := r.Normalize(func(string) bool { return true }); err != nil {
		t.Fatal(err)
	}
	return r
}

// TestCompileKeySplit pins the two-level content address: every strategy ×
// cores × trace combination keys distinctly at the run level, while the
// compile key collapses exactly the combinations that share a compiled
// artifact (same strategy and cores, any trace flag).
func TestCompileKeySplit(t *testing.T) {
	type variant struct {
		strategy string
		cores    int
		trace    bool
	}
	var variants []variant
	for _, si := range Strategies() {
		for _, cores := range []int{1, 2, 4} {
			for _, tr := range []bool{false, true} {
				variants = append(variants, variant{si.Name, cores, tr})
			}
		}
	}
	runKeys := map[string]variant{}
	compileKeys := map[string]string{} // compile key -> strategy/cores it stands for
	for _, v := range variants {
		r := normalized(t, &JobRequest{Program: bench("x"), Strategy: v.strategy, Cores: v.cores, Trace: v.trace})
		rk, ck := r.Key(), r.CompileKey()
		if prev, dup := runKeys[rk]; dup {
			t.Errorf("run key collision: %+v and %+v", prev, v)
		}
		runKeys[rk] = v
		ident := fmt.Sprintf("%s/%d", v.strategy, v.cores)
		if prev, ok := compileKeys[ck]; ok {
			if prev != ident {
				t.Errorf("compile key collision: %s and %s share a key", prev, ident)
			}
		} else {
			compileKeys[ck] = ident
		}
	}
	// 5 strategies × 3 core counts compile distinctly; the trace axis folds.
	if want := len(Strategies()) * 3; len(compileKeys) != want {
		t.Errorf("got %d compile keys, want %d (one per strategy × cores)", len(compileKeys), want)
	}
	if want := len(variants); len(runKeys) != want {
		t.Errorf("got %d run keys, want %d (all variants distinct)", len(runKeys), want)
	}
}

// TestCompileKeyIgnoresRunOnlyFields: machine latencies, baseline and trace
// cannot change compiler output, so they must not fragment the artifact
// cache; compiler gates must.
func TestCompileKeyIgnoresRunOnlyFields(t *testing.T) {
	base := normalized(t, &JobRequest{Program: bench("x")})
	sameArtifact := []*JobRequest{
		{Program: bench("x"), Trace: true},
		{Program: bench("x"), Baseline: true},
		{Program: bench("x"), Machine: MachineOptions{RegionSyncLat: 9, QueueBaseLat: 7, QueueCap: -1}},
	}
	for _, r := range sameArtifact {
		r = normalized(t, r)
		if r.Key() == base.Key() {
			t.Errorf("run keys must differ: %+v", r)
		}
		if r.CompileKey() != base.CompileKey() {
			t.Errorf("compile key fragments on a run-only field: %+v", r)
		}
	}
	// The mesh-shape knob changes the machine, not the compiled artifact
	// (the compiler estimates latencies against the default mesh). A 4-core
	// strip only admits decoupled strategies, so this pair uses llp.
	llp := normalized(t, &JobRequest{Program: bench("x"), Strategy: "llp"})
	strip := normalized(t, &JobRequest{Program: bench("x"), Strategy: "llp", Machine: MachineOptions{MeshCols: 4}})
	if strip.Key() == llp.Key() || strip.CompileKey() != llp.CompileKey() {
		t.Errorf("mesh_cols must change the run key but not the compile key")
	}
	differentArtifact := []*JobRequest{
		{Program: bench("y")},
		{Program: bench("x"), Strategy: "llp"},
		{Program: bench("x"), Cores: 2},
		{Program: bench("x"), Compiler: CompilerOptions{DSWPThreshold: 0.5}},
		{Program: bench("x"), Compiler: CompilerOptions{Select: "static"}},
	}
	for _, r := range differentArtifact {
		r = normalized(t, r)
		if r.CompileKey() == base.CompileKey() {
			t.Errorf("compile key misses a compile-relevant field: %+v", r)
		}
	}
}

// TestProgramUnionKeyAlgebra pins which spellings of the program union are
// deliberately the SAME job (one cache entry, byte-identical responses) and
// which are deliberately DISTINCT.
func TestProgramUnionKeyAlgebra(t *testing.T) {
	const src = "param n = 8;\nvar acc int = 0;\narray out[n] int;\nfunc main() {\n\tfor i = 0; i < n; i = i + 1 {\n\t\tout[i] = i * 3;\n\t\tacc = acc + i;\n\t}\n}\n"
	equal := [][2]*JobRequest{
		{ // defaulted kernel names == spelled-out kernel names
			{Program: &ProgramSpec{Kind: KindKernels, Kernels: []KernelSpec{{Kind: "doall-map", N: 64}}}},
			{Program: &ProgramSpec{Kind: KindKernels, Name: "inline", Kernels: []KernelSpec{{Kind: "doall-map", Name: "k0", N: 64}}}},
		},
		{ // an input spelled at its declared default == the input omitted
			{Program: &ProgramSpec{Kind: KindSource, Source: src, Inputs: map[string]int64{"n": 8}}},
			{Program: &ProgramSpec{Kind: KindSource, Source: src}},
		},
	}
	for i, pair := range equal {
		a, b := normalized(t, pair[0]), normalized(t, pair[1])
		if a.Key() != b.Key() {
			t.Errorf("equal[%d]: run keys differ", i)
		}
		if a.CompileKey() != b.CompileKey() {
			t.Errorf("equal[%d]: compile keys differ", i)
		}
	}
	distinct := []*JobRequest{
		{Program: bench("x")},
		{Program: bench("y")},
		{Program: &ProgramSpec{Kind: KindKernels, Kernels: []KernelSpec{{Kind: "doall-map", N: 64}}}},
		// Program kinds never collide even when their names would.
		{Program: &ProgramSpec{Kind: KindSource, Name: "x", Source: src}},
		// Source text is part of the identity...
		{Program: &ProgramSpec{Kind: KindSource, Source: src + "// v2\n"}},
		// ...and so is a non-default input.
		{Program: &ProgramSpec{Kind: KindSource, Source: src, Inputs: map[string]int64{"n": 16}}},
	}
	seen := map[string]int{}
	for i, r := range distinct {
		k := normalized(t, r).Key()
		if prev, dup := seen[k]; dup {
			t.Errorf("distinct[%d] and distinct[%d] share a run key", prev, i)
		}
		seen[k] = i
	}
}

// TestRingKeyDerivation: the cluster shard key is the bare digest of the
// run content address — stable, prefix-free, and shared between a job and
// its trace blob (both are addressed by the job key), so a fleet places
// them on the same owner.
func TestRingKeyDerivation(t *testing.T) {
	r := normalized(t, &JobRequest{Program: bench("x")})
	rk := r.RingKey()
	if rk != RingKeyOf(r.Key()) {
		t.Errorf("RingKey() = %q, RingKeyOf(Key()) = %q; want equal", rk, RingKeyOf(r.Key()))
	}
	if len(rk) != 64 {
		t.Errorf("ring key %q is not a bare sha256 hex digest (len %d, want 64)", rk, len(rk))
	}
	if "sha256:"+rk != r.Key() {
		t.Errorf("ring key does not derive from the run key: %q vs %q", rk, r.Key())
	}
	if rk != r.RingKey() {
		t.Error("ring key is not deterministic across calls")
	}
	// Distinct jobs shard independently: the traced twin is a different run
	// key, hence (in general) a different ring position.
	traced := normalized(t, &JobRequest{Program: bench("x"), Trace: true})
	if traced.RingKey() == rk {
		t.Error("traced twin shares the untraced job's ring key")
	}
}

// TestMachineKeyGroupsPools: the machine-pool key folds everything but the
// machine shape and latency overrides, so warm machines are shared across
// programs and strategies but never across machine configurations.
func TestMachineKeyGroupsPools(t *testing.T) {
	base := normalized(t, &JobRequest{Program: bench("x")})
	samePool := []*JobRequest{
		{Program: bench("y")},
		{Program: bench("x"), Strategy: "ilp"},
		{Program: bench("x"), Trace: true},
		{Program: bench("x"), Compiler: CompilerOptions{Select: "static"}},
	}
	for _, r := range samePool {
		if normalized(t, r).MachineKey() != base.MachineKey() {
			t.Errorf("machine key fragments on a non-machine field: %+v", r)
		}
	}
	differentPool := []*JobRequest{
		{Program: bench("x"), Cores: 2},
		{Program: bench("x"), Machine: MachineOptions{RegionSyncLat: 9}},
		{Program: bench("x"), Machine: MachineOptions{ModeSwitchLat: 5}},
		{Program: bench("x"), Machine: MachineOptions{QueueBaseLat: 7}},
		{Program: bench("x"), Machine: MachineOptions{QueueHopLat: 3}},
		{Program: bench("x"), Machine: MachineOptions{QueueCap: -1}},
		{Program: bench("x"), Strategy: "llp", Machine: MachineOptions{MeshCols: 4}},
	}
	seen := map[string]bool{base.MachineKey(): true}
	for _, r := range differentPool {
		k := normalized(t, r).MachineKey()
		if seen[k] {
			t.Errorf("machine key collision: %+v", r)
		}
		seen[k] = true
	}
}

// TestNegativeSpellingsShareKeys: every negative threshold gate disables
// it and every negative queue_cap means unbounded, so each such spelling
// is the same job as -1 under all three keys; a negative latency has no
// meaning and is rejected.
func TestNegativeSpellingsShareKeys(t *testing.T) {
	same := [][2]*JobRequest{
		{{Program: bench("x"), Compiler: CompilerOptions{DSWPThreshold: -3}},
			{Program: bench("x"), Compiler: CompilerOptions{DSWPThreshold: -1}}},
		{{Program: bench("x"), Compiler: CompilerOptions{DOALLTripThreshold: -0.5}},
			{Program: bench("x"), Compiler: CompilerOptions{DOALLTripThreshold: -1}}},
		{{Program: bench("x"), Machine: MachineOptions{QueueCap: -7}},
			{Program: bench("x"), Machine: MachineOptions{QueueCap: -1}}},
	}
	for i, pair := range same {
		a, b := normalized(t, pair[0]), normalized(t, pair[1])
		if a.Key() != b.Key() || a.CompileKey() != b.CompileKey() || a.MachineKey() != b.MachineKey() {
			t.Errorf("same[%d]: compiler %+v / machine %+v keys apart from -1", i, pair[0].Compiler, pair[0].Machine)
		}
	}
	for _, m := range []MachineOptions{{RegionSyncLat: -1}, {ModeSwitchLat: -2}, {QueueBaseLat: -1}, {QueueHopLat: -4}} {
		err := (&JobRequest{Program: bench("x"), Machine: m}).Normalize(func(string) bool { return true })
		var se *Error
		if !errors.As(err, &se) || se.Code != ErrBadSpec {
			t.Errorf("%+v: got %v, want a %s error", m, err, ErrBadSpec)
		}
	}
}
