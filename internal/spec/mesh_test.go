package spec

import (
	"errors"
	"testing"

	"voltron/internal/compiler"
	"voltron/internal/core"
	"voltron/internal/prof"
	"voltron/internal/workload"
)

// TestCoupledMeshSweep pins which machine shapes coupled code runs on. The
// compiler lays coupled code out for the default mesh, which at 4 cores is
// 2×2; mesh_cols = 4 makes it a 1×4 strip, where direct-mode transfers
// would leave the mesh. Normalize must reject exactly that shape for the
// coupled strategies, and every other (bench × ilp|hybrid × cores 4..16 ×
// mesh_cols 4..cores) shape must run. Each benchmark is compiled once per
// strategy and width, since the compile key does not cover the mesh.
func TestCoupledMeshSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles every benchmark at 13 widths")
	}
	for _, name := range workload.Names() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			sweepMeshes(t, name)
		})
	}
	// Decoupled and serial code does not depend on the mesh layout, so the
	// strip stays open to them.
	for _, strategy := range []string{"serial", "ftlp", "llp"} {
		req := &JobRequest{Program: bench("gsmdecode"), Strategy: strategy, Machine: MachineOptions{MeshCols: 4}}
		if err := req.Normalize(func(string) bool { return true }); err != nil {
			t.Errorf("%s on a 1x4 strip rejected: %v", strategy, err)
		}
	}
}

// sweepMeshes runs one benchmark's share of TestCoupledMeshSweep.
func sweepMeshes(t *testing.T, name string) {
	p, err := workload.Build(name)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := prof.Collect(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, strategy := range []string{"ilp", "hybrid"} {
		for cores := 4; cores <= 16; cores++ {
			var cp *core.CompiledProgram
			for cols := 4; cols <= cores; cols++ {
				req := &JobRequest{Program: bench(name), Strategy: strategy, Cores: cores,
					Compiler: CompilerOptions{Select: "static"},
					Machine:  MachineOptions{MeshCols: cols}}
				err := req.Normalize(func(string) bool { return true })
				if cores == 4 && cols == 4 {
					var se *Error
					if !errors.As(err, &se) || se.Code != ErrBadSpec {
						t.Errorf("%s %s on a 1x4 strip: got %v, want a %s error", name, strategy, err, ErrBadSpec)
					}
					continue
				}
				if err != nil {
					t.Fatalf("%s %s cores=%d mesh_cols=%d: %v", name, strategy, cores, cols, err)
				}
				if cp == nil {
					opts := req.CompilerOpts()
					opts.Profile = pr
					if cp, err = compiler.Compile(p, opts); err != nil {
						t.Fatalf("%s %s cores=%d: %v", name, strategy, cores, err)
					}
				}
				if _, err := core.New(req.MachineConfig(nil)).Run(cp); err != nil {
					t.Errorf("%s %s cores=%d mesh_cols=%d: %v", name, strategy, cores, cols, err)
				}
			}
		}
	}
}
