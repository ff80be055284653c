// Package spec defines the shared job specification of the API surface:
// what a compile-and-simulate job is (program × strategy × machine), how it
// normalizes to a canonical form, and how that form content-addresses
// results. The HTTP service decodes request bodies into it and the CLIs
// build their flag sets from the same defaults, so "strategy", "cores" and
// friends mean exactly the same thing on every surface.
//
// The v2 surface describes every program through one tagged union,
// {"program": {"kind": "bench"|"kernels"|"source", ...}}; it is the only
// accepted job shape.
package spec

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"strings"

	"voltron/internal/compiler"
	"voltron/internal/core"
	"voltron/internal/ir"
	"voltron/internal/lang"
	"voltron/internal/prof"
	"voltron/internal/trace"
	"voltron/internal/workload"
)

// SchemaVersion is the version stamped into job responses. It increments
// only on breaking changes to the request or response shape; additive
// fields do not bump it. Version 2 introduced the tagged program union and
// typed error bodies.
const SchemaVersion = 2

// Stable error codes of the typed error model. Every non-2xx body carries
// exactly one; clients branch on the code, never on the message text.
const (
	// ErrBadRequest: the body is not valid JSON for the request shape
	// (syntax error, unknown field, wrong type).
	ErrBadRequest = "bad_request"
	// ErrBadSpec: well-formed JSON whose field values are invalid or
	// inconsistent (out-of-range cores, conflicting program forms, bad
	// kernel parameters).
	ErrBadSpec = "bad_spec"
	// ErrUnknownBench: the named benchmark does not exist.
	ErrUnknownBench = "unknown_bench"
	// ErrUnknownStrategy: the strategy or selection-mode name is not one
	// of the documented set.
	ErrUnknownStrategy = "unknown_strategy"
	// ErrBadSource: a source program failed to parse, type-check or
	// lower; the error body carries the structured diagnostics.
	ErrBadSource = "bad_source"
	// ErrQueueFull: the admission layer shed the request (429 bodies).
	ErrQueueFull = "queue_full"
	// ErrTimeout: the job exceeded the server's request budget.
	ErrTimeout = "timeout"
	// ErrCanceled: the client went away before the job finished.
	ErrCanceled = "canceled"
	// ErrNotFound: the addressed resource (trace, figure) is not here.
	ErrNotFound = "not_found"
	// ErrInternal: the job failed for a reason that is not the client's.
	ErrInternal = "internal"
)

// Error is the typed failure of request validation: a stable code, a
// human-readable message, and — for source programs — the frontend's
// structured diagnostics. It is the error model of every API surface;
// the HTTP layer renders it directly into error bodies.
type Error struct {
	Code        string            `json:"code"`
	Message     string            `json:"error"`
	Diagnostics []lang.Diagnostic `json:"diagnostics,omitempty"`
}

func (e *Error) Error() string { return e.Message }

// errf builds a typed error with a formatted message.
func errf(code, format string, args ...any) *Error {
	return &Error{Code: code, Message: fmt.Sprintf(format, args...)}
}

// Shared defaults across the CLIs and the service.
const (
	DefaultStrategy = "hybrid"
	DefaultCores    = 4
	// DefaultSelect is the default strategy-selection mode: full measured
	// selection (paper §4.2), the most faithful and the most expensive.
	DefaultSelect = "measured"
	// MaxCores bounds the machine width of one job. 64 cores is an 8×8
	// near-square mesh; the activity-indexed event scheduler keeps wide
	// mostly-idle machines cheap, so many-core jobs are first-class.
	MaxCores = 64
)

// JobRequest describes one compile-and-simulate job: a program (the tagged
// union), a parallelization strategy, a machine, and optional
// compiler/machine overrides. The zero value of every optional field means
// "the paper's default".
type JobRequest struct {
	// Program is what to compile and simulate: a benchmark reference, an
	// inline kernel composition, or a source-language program.
	Program *ProgramSpec `json:"program,omitempty"`
	// Strategy is serial|ilp|ftlp|llp|hybrid. Defaults to hybrid.
	Strategy string `json:"strategy,omitempty"`
	// Cores is the machine width. Defaults to 4.
	Cores int `json:"cores,omitempty"`
	// Baseline additionally simulates the serial single-core baseline and
	// reports the speedup over it.
	Baseline bool `json:"baseline,omitempty"`
	// Trace collects the structured timeline of the run; the response then
	// carries a trace URL and the stall-attribution report. Traced and
	// untraced runs of the same job are distinct cache entries (the flag is
	// part of the content address).
	Trace    bool            `json:"trace,omitempty"`
	Compiler CompilerOptions `json:"compiler,omitempty"`
	Machine  MachineOptions  `json:"machine,omitempty"`
}

// CompilerOptions exposes the compiler's threshold gates and ablation
// switches. Zero thresholds mean the paper defaults; negative disables the
// gate (compiler.NoThreshold).
type CompilerOptions struct {
	DSWPThreshold      float64 `json:"dswp_threshold,omitempty"`
	DOALLTripThreshold float64 `json:"doall_trip_threshold,omitempty"`
	DisableEBUGWeights bool    `json:"disable_ebug_weights,omitempty"`
	ForcePredSend      bool    `json:"force_pred_send,omitempty"`
	// Select is the strategy-selection mode: measured|static|auto.
	// Defaults to measured.
	Select string `json:"select,omitempty"`
	// SelectThreshold is auto mode's classifier-confidence floor in [0, 1].
	// 0 means the compiler default; negative trusts every static pick.
	SelectThreshold float64 `json:"select_threshold,omitempty"`
}

// MachineOptions overrides core.DefaultConfig. Zero means the default; a
// negative latency is rejected.
type MachineOptions struct {
	RegionSyncLat int64 `json:"region_sync_lat,omitempty"`
	ModeSwitchLat int64 `json:"mode_switch_lat,omitempty"`
	QueueBaseLat  int64 `json:"queue_base_lat,omitempty"`
	QueueHopLat   int64 `json:"queue_hop_lat,omitempty"`
	// QueueCap sizes the per-(sender,receiver) CAM receive queue; a full
	// pair back-pressures its sender. Negative means unbounded.
	QueueCap int `json:"queue_cap,omitempty"`
	// MeshCols fixes the mesh column count (the mesh-shape ablation knob,
	// e.g. comparing the near-square default against a 4-column strip).
	// 0 means the near-square default; otherwise it must be in [4, cores]
	// (narrower meshes would break coupled row-group adjacency). At 4 cores
	// that leaves a 1×4 strip, which ilp and hybrid jobs cannot use: their
	// coupled code is laid out for the default 2×2 mesh.
	MeshCols int `json:"mesh_cols,omitempty"`
}

// Program kinds of the tagged union.
const (
	// KindBench references a built-in benchmark by name.
	KindBench = "bench"
	// KindKernels composes the workload package's kernel generators.
	KindKernels = "kernels"
	// KindSource is a program in the source language (see internal/lang),
	// compiled by the frontend before strategy selection.
	KindSource = "source"
)

// ProgramSpec is the tagged program union: exactly the fields of one kind
// may be set, and the kind is required.
type ProgramSpec struct {
	// Kind discriminates the union: bench|kernels|source.
	Kind string `json:"kind,omitempty"`
	// Bench names a built-in benchmark (kind "bench"; see GET
	// /v1/benchmarks).
	Bench string `json:"bench,omitempty"`
	// Name names a kernels or source program (regions and arrays are
	// prefixed with it). Defaults to "inline".
	Name string `json:"name,omitempty"`
	// Kernels composes kernel generators (kind "kernels").
	Kernels []KernelSpec `json:"kernels,omitempty"`
	// Source is the program text (kind "source").
	Source string `json:"source,omitempty"`
	// Inputs override source-program parameter defaults by name.
	// Normalize prunes entries equal to the declared default, so spelled
	// and omitted defaults content-address identically.
	Inputs map[string]int64 `json:"inputs,omitempty"`

	// checked is the frontend's output for a source program, kept by
	// Normalize so Build lowers it instead of parsing and checking again.
	// Unexported, so it is never serialized and never part of a key.
	checked *lang.Program
}

// KernelSpec is one region-generating kernel invocation. Unused parameters
// for a kind must be zero; zero used parameters take that kind's default.
type KernelSpec struct {
	// Kind is one of doall-map, doall-mapf, doall-reduce, strands,
	// multichase, pipeline, ilp-loop, ilp-butterfly, serial-chain, branchy.
	Kind string `json:"kind"`
	// Name prefixes the kernel's regions and arrays.
	Name    string `json:"name"`
	N       int64  `json:"n,omitempty"`       // element / trip count
	Work    int    `json:"work,omitempty"`    // per-element work factor
	Chains  int    `json:"chains,omitempty"`  // multichase / ilp-loop chains
	Depth   int    `json:"depth,omitempty"`   // ilp-loop chain depth
	Table   int64  `json:"table,omitempty"`   // pointer-table words
	Steps   int64  `json:"steps,omitempty"`   // multichase steps
	Lanes   int    `json:"lanes,omitempty"`   // ilp-butterfly lanes
	Levels  int    `json:"levels,omitempty"`  // ilp-butterfly levels
	Diverge int64  `json:"diverge,omitempty"` // strands divergence point
}

// Job size bounds: the service simulates whatever it is asked to, so inline
// specs are capped to keep a single job's cost within the request timeout.
const (
	maxKernels   = 8
	maxElems     = 1 << 16
	maxWorkParam = 64
)

// kernelKinds maps a spec kind to its defaults-filling normalizer and its
// generator. Normalization happens before hashing so that spelled-out
// defaults and omitted defaults are the same cache entry.
var kernelKinds = map[string]struct {
	norm func(*KernelSpec)
	gen  func(*ir.Program, KernelSpec)
}{
	"doall-map": {
		func(k *KernelSpec) { defInt64(&k.N, 256); defInt(&k.Work, 4) },
		func(p *ir.Program, k KernelSpec) { workload.DoallMap(p, k.Name, k.N, k.Work) },
	},
	"doall-mapf": {
		func(k *KernelSpec) { defInt64(&k.N, 256); defInt(&k.Work, 4) },
		func(p *ir.Program, k KernelSpec) { workload.DoallMapF(p, k.Name, k.N, k.Work) },
	},
	"doall-reduce": {
		func(k *KernelSpec) { defInt64(&k.N, 256) },
		func(p *ir.Program, k KernelSpec) { workload.DoallReduce(p, k.Name, k.N) },
	},
	"strands": {
		func(k *KernelSpec) { defInt64(&k.N, 512); defInt64(&k.Diverge, 400) },
		func(p *ir.Program, k KernelSpec) { workload.Strands(p, k.Name, k.N, k.Diverge) },
	},
	"multichase": {
		func(k *KernelSpec) { defInt(&k.Chains, 3); defInt64(&k.Table, 1024); defInt64(&k.Steps, 128) },
		func(p *ir.Program, k KernelSpec) { workload.MultiChase(p, k.Name, k.Chains, k.Table, k.Steps) },
	},
	"pipeline": {
		func(k *KernelSpec) { defInt64(&k.Table, 1024); defInt64(&k.N, 128); defInt(&k.Work, 4) },
		func(p *ir.Program, k KernelSpec) { workload.Pipeline(p, k.Name, k.Table, k.N, k.Work) },
	},
	"ilp-loop": {
		func(k *KernelSpec) { defInt64(&k.N, 64); defInt(&k.Chains, 4); defInt(&k.Depth, 4) },
		func(p *ir.Program, k KernelSpec) { workload.IlpLoop(p, k.Name, k.N, k.Chains, k.Depth) },
	},
	"ilp-butterfly": {
		func(k *KernelSpec) { defInt64(&k.N, 48); defInt(&k.Lanes, 8); defInt(&k.Levels, 4) },
		func(p *ir.Program, k KernelSpec) { workload.IlpButterfly(p, k.Name, k.N, k.Lanes, k.Levels) },
	},
	"serial-chain": {
		func(k *KernelSpec) { defInt64(&k.N, 64) },
		func(p *ir.Program, k KernelSpec) { workload.SerialChain(p, k.Name, k.N) },
	},
	"branchy": {
		func(k *KernelSpec) { defInt64(&k.N, 256) },
		func(p *ir.Program, k KernelSpec) { workload.Branchy(p, k.Name, k.N) },
	},
}

func defInt64(v *int64, def int64) {
	if *v == 0 {
		*v = def
	}
}

func defInt(v *int, def int) {
	if *v == 0 {
		*v = def
	}
}

// Normalize validates the request and fills every defaultable field in
// place, so that two requests meaning the same job marshal to the same
// canonical bytes. known reports whether a benchmark name exists. Errors
// are *Error with a stable code.
func (r *JobRequest) Normalize(known func(bench string) bool) error {
	if r.Program == nil {
		return errf(ErrBadSpec, "a program is required")
	}
	if err := r.Program.normalize(known); err != nil {
		return err
	}
	if r.Strategy == "" {
		r.Strategy = DefaultStrategy
	}
	if _, ok := StrategyFor(r.Strategy); !ok {
		return errf(ErrUnknownStrategy, "unknown strategy %q (want %s)", r.Strategy, strategyNames())
	}
	if r.Cores == 0 {
		r.Cores = DefaultCores
	}
	if r.Cores < 1 || r.Cores > MaxCores {
		return errf(ErrBadSpec, "cores = %d out of range [1, %d]", r.Cores, MaxCores)
	}
	if mc := r.Machine.MeshCols; mc != 0 && (mc < 4 || mc > r.Cores) {
		return errf(ErrBadSpec, "mesh_cols = %d out of range (0 for the near-square default, or [4, cores])", mc)
	}
	if r.Cores == 4 && r.Machine.MeshCols == 4 && (r.Strategy == "ilp" || r.Strategy == "hybrid") {
		// On the strip, coupled code's direct-mode transfers would leave the
		// mesh ("xnet: PUT off mesh edge").
		return errf(ErrBadSpec, "mesh_cols = 4 at 4 cores (a 1x4 strip) cannot run coupled %s code, which is laid out for the 2x2 mesh", r.Strategy)
	}
	if r.Compiler.Select == "" {
		r.Compiler.Select = DefaultSelect
	}
	if _, ok := SelectionFor(r.Compiler.Select); !ok {
		return errf(ErrUnknownStrategy, "unknown selection mode %q (want %s)", r.Compiler.Select, selectNames())
	}
	if err := ValidateSelectThreshold(r.Compiler.SelectThreshold); err != nil {
		return errf(ErrBadSpec, "%v", err)
	}
	// Any negative gate means "no gate" and any negative queue_cap
	// "unbounded": each gets one canonical spelling, so they share a key.
	for _, v := range []*float64{&r.Compiler.SelectThreshold, &r.Compiler.DSWPThreshold, &r.Compiler.DOALLTripThreshold} {
		if *v < 0 {
			*v = -1
		}
	}
	if r.Machine.QueueCap < 0 {
		r.Machine.QueueCap = -1
	}
	if m := r.Machine; min(m.RegionSyncLat, m.ModeSwitchLat, m.QueueBaseLat, m.QueueHopLat) < 0 {
		return errf(ErrBadSpec, "negative machine latency (0 means the default): region_sync_lat %d, mode_switch_lat %d, queue_base_lat %d, queue_hop_lat %d",
			m.RegionSyncLat, m.ModeSwitchLat, m.QueueBaseLat, m.QueueHopLat)
	}
	return nil
}

// normalize canonicalizes one program union member and validates it as far
// as the frontend can without simulating (source programs parse, type-check
// and constant-fold here).
func (p *ProgramSpec) normalize(known func(bench string) bool) error {
	if p.Kind == "" {
		return errf(ErrBadSpec, `program.kind is required (one of "bench", "kernels", "source")`)
	}
	if len(p.Name) > 64 {
		return errf(ErrBadSpec, "program name must be at most 64 characters")
	}
	switch p.Kind {
	case KindBench:
		if p.Bench == "" {
			return errf(ErrBadSpec, `a "bench" program needs the benchmark name in "bench"`)
		}
		if p.Name != "" || len(p.Kernels) > 0 || p.Source != "" || len(p.Inputs) > 0 {
			return errf(ErrBadSpec, `a "bench" program carries only the benchmark name`)
		}
		if !known(p.Bench) {
			return errf(ErrUnknownBench, "unknown benchmark %q", p.Bench)
		}
		return nil
	case KindKernels:
		if p.Bench != "" || p.Source != "" || len(p.Inputs) > 0 {
			return errf(ErrBadSpec, `a "kernels" program carries only name and kernels`)
		}
		return p.normalizeKernels()
	case KindSource:
		if p.Bench != "" || len(p.Kernels) > 0 {
			return errf(ErrBadSpec, `a "source" program carries only name, source and inputs`)
		}
		if p.Name == "" {
			p.Name = "inline"
		}
		return p.normalizeSource()
	}
	return errf(ErrBadSpec, `unknown program kind %q (want "bench", "kernels" or "source")`, p.Kind)
}

func (p *ProgramSpec) normalizeKernels() error {
	if p.Name == "" {
		p.Name = "inline"
	}
	if len(p.Kernels) == 0 || len(p.Kernels) > maxKernels {
		return errf(ErrBadSpec, "program must have 1..%d kernels", maxKernels)
	}
	names := map[string]bool{}
	for i := range p.Kernels {
		k := &p.Kernels[i]
		kind, ok := kernelKinds[k.Kind]
		if !ok {
			return errf(ErrBadSpec, "kernel %d: unknown kind %q", i, k.Kind)
		}
		if k.Name == "" {
			k.Name = fmt.Sprintf("k%d", i)
		}
		if len(k.Name) > 64 {
			return errf(ErrBadSpec, "kernel %d: name must be at most 64 characters", i)
		}
		if names[k.Name] {
			return errf(ErrBadSpec, "kernel %d: duplicate name %q", i, k.Name)
		}
		names[k.Name] = true
		kind.norm(k)
		for _, v := range []int64{k.N, k.Table, k.Steps, k.Diverge} {
			if v < 0 || v > maxElems {
				return errf(ErrBadSpec, "kernel %q: size parameter %d out of range [0, %d]", k.Name, v, maxElems)
			}
		}
		for _, v := range []int{k.Work, k.Chains, k.Depth, k.Lanes, k.Levels} {
			if v < 0 || v > maxWorkParam {
				return errf(ErrBadSpec, "kernel %q: work parameter %d out of range [0, %d]", k.Name, v, maxWorkParam)
			}
		}
	}
	return nil
}

// normalizeSource runs the language frontend (parse, type-check, bounds)
// over the program text, turning its diagnostics into the typed error, and
// prunes inputs that restate a parameter's declared default so spelled and
// omitted defaults share one canonical form (and one cache entry).
func (p *ProgramSpec) normalizeSource() error {
	lp, err := lang.Frontend(p.Source, p.Inputs)
	if err != nil {
		return sourceError(err)
	}
	p.checked = lp
	defaults := lp.Defaults()
	for name, v := range p.Inputs {
		if def, ok := defaults[name]; ok && def == v {
			delete(p.Inputs, name)
		}
	}
	if len(p.Inputs) == 0 {
		p.Inputs = nil
	}
	return nil
}

// sourceError turns a frontend failure into the typed bad_source error,
// carrying the structured diagnostics when the frontend produced them.
func sourceError(err error) *Error {
	if le, ok := err.(*lang.Error); ok {
		return &Error{Code: ErrBadSource, Message: le.Error(), Diagnostics: le.Diags}
	}
	return errf(ErrBadSource, "%v", err)
}

// Build materializes a normalized program spec as an IR program: a bench
// builds its benchmark, a kernels spec composes its generators, and a
// source program lowers the program Normalize already checked, so the
// frontend runs once per job; Build fails on a source spec that was never
// normalized. Lowering only reads the checked program, so copies of one
// request may Build concurrently.
func (p *ProgramSpec) Build() (*ir.Program, error) {
	switch p.Kind {
	case KindBench:
		return workload.Build(p.Bench)
	case KindSource:
		if p.checked == nil {
			return nil, errors.New("spec: Build needs a normalized source program")
		}
		prog, err := p.checked.Lower(p.Name)
		if err != nil {
			return nil, sourceError(err)
		}
		return prog, nil
	case KindKernels:
		prog := ir.NewProgram(p.Name)
		for _, k := range p.Kernels {
			kernelKinds[k.Kind].gen(prog, k)
		}
		if err := prog.Verify(); err != nil {
			return nil, fmt.Errorf("program %q: %w", p.Name, err)
		}
		return prog, nil
	}
	return nil, fmt.Errorf("unknown program kind %q", p.Kind)
}

// Key derives the normalized program's content address, shared by every job
// on the program whatever its strategy, machine or flags.
func (p *ProgramSpec) Key() string { return contentKey(p) }

// Key derives the job's content address: the SHA-256 of its canonical JSON
// encoding (normalized spec, so every defaultable field is explicit).
// Fields that cannot change the result (worker counts, timeouts) are not
// part of the request and so never fragment the cache.
func (r *JobRequest) Key() string { return contentKey(r) }

// contentKey is the SHA-256 content address of v's canonical JSON encoding.
func contentKey(v any) string {
	b, err := json.Marshal(v)
	if err != nil { // canonical structs always marshal
		panic(fmt.Sprintf("canonical marshal: %v", err))
	}
	sum := sha256.Sum256(b)
	return "sha256:" + hex.EncodeToString(sum[:])
}

// RingKeyOf derives the cluster shard key from a content address
// ("sha256:<hex>"): the bare digest. A multi-replica fleet places content on
// its consistent-hash ring by this key. The job result and its trace blob
// share one address (the trace is served under the job's key), so both land
// on the same owner — a replica that forwarded a job forwards the follow-up
// trace lookup to the same peer.
func RingKeyOf(contentKey string) string {
	return strings.TrimPrefix(contentKey, "sha256:")
}

// RingKey is the shard key a multi-replica fleet uses to place this
// (normalized) job on its consistent-hash ring: RingKeyOf of the run
// content address.
func (r *JobRequest) RingKey() string { return RingKeyOf(r.Key()) }

// compileIdentity is the slice of a job that determines the compiled
// artifact: what to compile (the normalized program union), how (strategy
// and compiler gates) and for how many cores. Machine latencies, the trace
// flag and the baseline flag cannot change compiler output, so they are
// deliberately absent — jobs differing only in those share one artifact.
type compileIdentity struct {
	Program  *ProgramSpec    `json:"program,omitempty"`
	Strategy string          `json:"strategy"`
	Cores    int             `json:"cores"`
	Compiler CompilerOptions `json:"compiler"`
}

// CompileKey derives the compile-stage content address of a normalized
// request: the SHA-256 of the compile-relevant fields only. Requests with
// equal CompileKey — trace variants, machine-latency ablations, a job and
// the same program's baseline run at serial/1 — compile to the same
// artifact, so a server can cache and share one *core.CompiledProgram
// across them. Key remains the full per-run address (it additionally hashes
// trace, baseline and machine options).
func (r *JobRequest) CompileKey() string {
	return contentKey(compileIdentity{
		Program:  r.Program,
		Strategy: r.Strategy,
		Cores:    r.Cores,
		Compiler: r.Compiler,
	})
}

// MachineKey identifies the machine configuration a normalized request runs
// on — the pooling key for warm-machine reuse. Jobs with equal MachineKey
// run on interchangeable machines (one pooled core.Machine serves them all
// after a Reset); program, strategy, trace and baseline are not part of it
// because they select what runs, not the machine it runs on.
func (r *JobRequest) MachineKey() string {
	return fmt.Sprintf("cores=%d rs=%d ms=%d qb=%d qh=%d qc=%d mesh=%d",
		r.Cores, r.Machine.RegionSyncLat, r.Machine.ModeSwitchLat,
		r.Machine.QueueBaseLat, r.Machine.QueueHopLat, r.Machine.QueueCap,
		r.Machine.MeshCols)
}

// CompilerOpts lowers the request to compiler.Options (Workers is the
// caller's choice, not the request's: it cannot affect results).
func (r *JobRequest) CompilerOpts() compiler.Options {
	s, _ := StrategyFor(r.Strategy)
	sel, _ := SelectionFor(r.Compiler.Select) // "" maps to measured
	return compiler.Options{
		Cores:              r.Cores,
		Strategy:           s,
		DSWPThreshold:      r.Compiler.DSWPThreshold,
		DOALLTripThreshold: r.Compiler.DOALLTripThreshold,
		DisableEBUGWeights: r.Compiler.DisableEBUGWeights,
		ForcePredSend:      r.Compiler.ForcePredSend,
		Selection:          sel,
		SelectThreshold:    r.Compiler.SelectThreshold,
		Workers:            1,
	}
}

// MachineConfig lowers the request to a core.Config. The tracer, when
// non-nil, is attached to the machine.
func (r *JobRequest) MachineConfig(tr *trace.Tracer) core.Config {
	cfg := core.DefaultConfig(r.Cores)
	if r.Machine.RegionSyncLat > 0 {
		cfg.RegionSyncLat = r.Machine.RegionSyncLat
	}
	if r.Machine.ModeSwitchLat > 0 {
		cfg.ModeSwitchLat = r.Machine.ModeSwitchLat
	}
	cfg.QueueBaseLat = r.Machine.QueueBaseLat
	cfg.QueueHopLat = r.Machine.QueueHopLat
	cfg.QueueCap = r.Machine.QueueCap
	cfg.MeshCols = r.Machine.MeshCols
	cfg.Tracer = tr
	return cfg
}

// Simulate is the job pipeline of every entry point: the service, voltron-run
// and the experiment suite. p and pr are the resolved program and its
// profile (exp.Suite.Resolve); m is configured by MachineConfig, and its
// tracer, if any, traces the run. workers bounds measured selection's eval
// machines and cannot change a result. With cp nil the request compiles
// fused with its run (compiler.CompileRun), otherwise cp runs. A traced
// auto run then rechecks its static picks against its stall report
// (compiler.Recheck, on m); a corrected program reruns on m under a fresh
// tracer. It returns the compiled artifact (also when a later stage
// failed), the program that ran, the run and the tracer holding it.
func (r *JobRequest) Simulate(ctx context.Context, p *ir.Program, pr *prof.Profile, cp *core.CompiledProgram, m *core.Machine,
	workers int) (compiled, ran *core.CompiledProgram, res *core.RunResult, tr *trace.Tracer, err error) {
	cfg := m.Config()
	tr = cfg.Tracer // the run drops it from m
	opts := r.CompilerOpts()
	opts.Profile, opts.Workers = pr, workers
	if cp == nil {
		cp, res, err = compiler.CompileRun(ctx, p, opts, m)
	} else {
		res, err = m.RunContext(ctx, cp)
	}
	if err != nil || tr == nil || r.Compiler.Select != "auto" || cp.Selection.Static == 0 {
		return cp, cp, res, tr, err
	}
	// Attaching the rerun's tracer first makes the recheck hand m back
	// ready to trace the corrected program, without resuming a final run.
	rerun := trace.New()
	cfg.Tracer = rerun
	m.Reset(cfg)
	ran, reselected, err := compiler.Recheck(ctx, p, cp, tr.Report(), opts, m)
	if err == nil && len(reselected) > 0 {
		res, err = m.RunContext(ctx, ran)
		return cp, ran, res, rerun, err
	}
	cfg.Tracer = nil
	m.Reset(cfg) // no rerun: m drops the unused tracer, as a run does
	if err != nil {
		return cp, nil, nil, nil, fmt.Errorf("selection recheck: %w", err)
	}
	return cp, cp, res, tr, nil
}

// DecodeJob decodes one JSON job request. Unknown fields are rejected —
// including the retired pre-v2 spellings "bench", "benchmark", "mode" and
// "compiler.static_selection" — and so is anything but whitespace after the
// job object. The middle result is always nil; it remains only so existing
// callers keep compiling.
func DecodeJob(r io.Reader) (*JobRequest, []string, error) {
	var req JobRequest
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return nil, nil, err
	}
	if _, err := dec.Token(); err != io.EOF {
		var syn *json.SyntaxError
		if err != nil && !errors.As(err, &syn) {
			return nil, nil, err // the reader failed, not the body
		}
		return nil, nil, errf(ErrBadRequest, "unexpected data after the job object")
	}
	return &req, nil, nil
}

// StrategyInfo describes one parallelization strategy of the API surface.
type StrategyInfo struct {
	// Code is the stable machine-readable identifier clients key on; it
	// doubles as the wire value for the job request's "strategy" field.
	Code        string `json:"code"`
	Name        string `json:"name"`
	Description string `json:"description"`
	// Mode is the execution mode the strategy's regions run in: coupled,
	// decoupled, or mixed (per-region selection).
	Mode string `json:"mode"`
}

// strategyTable orders the strategies as documented (serial first, hybrid
// last); lookups go through the derived map.
var strategyTable = []struct {
	info StrategyInfo
	s    compiler.Strategy
}{
	{StrategyInfo{"serial", "serial", "single-core serial schedule (the speedup baseline)", "coupled"}, compiler.Serial},
	{StrategyInfo{"ilp", "ilp", "force coupled ILP: VLIW-style scheduling across cores in lock-step", "coupled"}, compiler.ForceILP},
	{StrategyInfo{"ftlp", "ftlp", "force fine-grain TLP: DSWP pipelines over the decoupled queues", "decoupled"}, compiler.ForceFTLP},
	{StrategyInfo{"llp", "llp", "force loop-level parallelism: DOALL chunks under transactional memory", "decoupled"}, compiler.ForceLLP},
	{StrategyInfo{"hybrid", "hybrid", "per-region measured selection among the above (the paper's result)", "mixed"}, compiler.Hybrid},
}

// Strategies lists the strategies in documentation order.
func Strategies() []StrategyInfo {
	out := make([]StrategyInfo, len(strategyTable))
	for i, e := range strategyTable {
		out[i] = e.info
	}
	return out
}

// StrategyFor resolves a strategy name.
func StrategyFor(name string) (compiler.Strategy, bool) {
	for _, e := range strategyTable {
		if e.info.Name == name {
			return e.s, true
		}
	}
	return 0, false
}

// StrategyName is StrategyFor's inverse: the wire name of s.
func StrategyName(s compiler.Strategy) string {
	for _, e := range strategyTable {
		if e.s == s {
			return e.info.Name
		}
	}
	return s.String()
}

// strategyNames renders the strategy set for usage and error text.
func strategyNames() string {
	names := make([]string, len(strategyTable))
	for i, e := range strategyTable {
		names[i] = e.info.Name
	}
	return strings.Join(names, "|")
}

// selectTable orders the selection modes as documented.
var selectTable = []struct {
	name string
	m    compiler.SelectionMode
}{
	{"measured", compiler.SelectMeasured},
	{"static", compiler.SelectStatic},
	{"auto", compiler.SelectAuto},
}

// SelectionFor resolves a selection-mode name.
func SelectionFor(name string) (compiler.SelectionMode, bool) {
	for _, e := range selectTable {
		if e.name == name {
			return e.m, true
		}
	}
	return 0, false
}

// selectNames renders the selection-mode set for usage and error text.
func selectNames() string {
	names := make([]string, len(selectTable))
	for i, e := range selectTable {
		names[i] = e.name
	}
	return strings.Join(names, "|")
}

// StrategyFlag binds the shared -strategy flag.
func StrategyFlag(fs *flag.FlagSet) *string {
	return fs.String("strategy", DefaultStrategy, strategyNames())
}

// CoresFlag binds the shared -cores flag.
func CoresFlag(fs *flag.FlagSet) *int {
	return fs.Int("cores", DefaultCores,
		fmt.Sprintf("number of cores (1..%d; wide machines use a near-square mesh)", MaxCores))
}

// ValidateCores range-checks a -cores flag value against the same bound
// Normalize enforces for HTTP jobs.
func ValidateCores(n int) error {
	if n < 1 || n > MaxCores {
		return fmt.Errorf("-cores = %d out of range [1, %d]", n, MaxCores)
	}
	return nil
}

// ValidateSelectThreshold range-checks an auto-mode confidence floor:
// confidence is in [0, 1], and a negative floor disables the gate.
// Normalize and every -select-threshold flag share it.
func ValidateSelectThreshold(th float64) error {
	if !(th <= 1) {
		return fmt.Errorf("select_threshold = %v out of range (confidence is in [0, 1]; negative disables the gate)", th)
	}
	return nil
}

// SelectFlag binds the shared -select flag (strategy-selection mode).
func SelectFlag(fs *flag.FlagSet) *string {
	return fs.String("select", DefaultSelect, "strategy selection mode: "+selectNames())
}

// SelectThresholdFlag binds the shared -select-threshold flag.
func SelectThresholdFlag(fs *flag.FlagSet) *float64 {
	return fs.Float64("select-threshold", 0,
		"auto-mode confidence floor in [0, 1] (0 = compiler default, negative = trust every static pick)")
}
