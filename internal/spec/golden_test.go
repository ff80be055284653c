package spec

import "testing"

// TestCanonicalKeyGolden pins the content addresses of fixed v2 requests as
// literals: one per program kind, plus one that sets every option block.
// Result caches, compile caches, machine pools and cluster placement all
// key on these strings, so any change to the canonical form — a renamed or
// reordered field, a new default, a dropped omitempty — shows up here
// before it silently splits a cache or a fleet.
func TestCanonicalKeyGolden(t *testing.T) {
	for _, tc := range []struct {
		name                  string
		req                   *JobRequest
		key, compile, machine string
	}{
		{
			name:    "bench",
			req:     &JobRequest{Program: &ProgramSpec{Kind: KindBench, Bench: "rawcaudio"}, Strategy: "llp", Cores: 2},
			key:     "sha256:3b55523dfef217acefb5cb81b5852f93cbda6ad74f60ff5ef6751345d8c2eb20",
			compile: "sha256:535890f9e3defac58c314d8858f4595a432ffd9633f42a0e99ba3bed2640fbf8",
			machine: "cores=2 rs=0 ms=0 qb=0 qh=0 qc=0 mesh=0",
		},
		{
			name: "kernels",
			req: &JobRequest{Program: &ProgramSpec{Kind: KindKernels, Name: "p", Kernels: []KernelSpec{
				{Kind: "doall-map", Name: "m", N: 64, Work: 2},
				{Kind: "serial-chain", N: 16},
			}}},
			key:     "sha256:4edcbe91185642edd6b36b4eb01e55550dee8002b0ec1391eb6a8dbaef1ea4d3",
			compile: "sha256:69ae5b6a4b12d2ce36d2c43d0932918ddeb3d3cd854c953b0bdb05bd81ead0ec",
			machine: "cores=4 rs=0 ms=0 qb=0 qh=0 qc=0 mesh=0",
		},
		{
			name:    "source",
			req:     &JobRequest{Program: &ProgramSpec{Kind: KindSource, Name: "user", Source: fuzzSource, Inputs: map[string]int64{"n": 32}}, Strategy: "hybrid", Cores: 16},
			key:     "sha256:b4c3de5fd7a62188bcb4c820adc1074055c49a53010eea84df3a50aaeba024a9",
			compile: "sha256:cb38c1deca77b5e7a0796c2a6c6c68593c31238b026d4912219905c371aa19c5",
			machine: "cores=16 rs=0 ms=0 qb=0 qh=0 qc=0 mesh=0",
		},
		{
			name: "every option block",
			req: &JobRequest{
				Program:  &ProgramSpec{Kind: KindBench, Bench: "cjpeg"},
				Strategy: "ftlp",
				Cores:    8,
				Baseline: true,
				Trace:    true,
				Compiler: CompilerOptions{
					DSWPThreshold:      0.5,
					DOALLTripThreshold: -1,
					MissStallThreshold: 0.25,
					DisableEBUGWeights: true,
					ForcePredSend:      true,
					Select:             "auto",
					SelectThreshold:    0.75,
				},
				Machine: MachineOptions{
					RegionSyncLat: 9,
					ModeSwitchLat: 5,
					QueueBaseLat:  7,
					QueueHopLat:   3,
					QueueCap:      -1,
					MeshCols:      4,
				},
			},
			key:     "sha256:4c65479ce28c9fe8bd1bfd331b50416f8df431b2f8fb2a2ec144fcbfc57228a2",
			compile: "sha256:c1523d25fc04129de4e7c574a7d82293d30487fa95d0386c4251e538da65a7ef",
			machine: "cores=8 rs=9 ms=5 qb=7 qh=3 qc=-1 mesh=4",
		},
	} {
		r := normalized(t, tc.req)
		if got := r.Key(); got != tc.key {
			t.Errorf("%s: Key() = %q, want %q", tc.name, got, tc.key)
		}
		if got := r.CompileKey(); got != tc.compile {
			t.Errorf("%s: CompileKey() = %q, want %q", tc.name, got, tc.compile)
		}
		if got := r.MachineKey(); got != tc.machine {
			t.Errorf("%s: MachineKey() = %q, want %q", tc.name, got, tc.machine)
		}
	}
}
