// Package server implements voltron-serve: an HTTP JSON API in front of
// the compile-and-simulate pipeline. Jobs (benchmark or inline program ×
// strategy × machine) run on a bounded worker pool; results are
// content-addressed — the cache key is the SHA-256 of the canonicalized
// request — so repeated and concurrent identical requests collapse onto
// one simulation (singleflight) and an LRU-bounded cache. Requests carry
// per-request timeouts whose cancellation is threaded into the simulator's
// event loop (core.Machine.RunContext).
package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"voltron/internal/compiler"
	"voltron/internal/core"
	"voltron/internal/exp"
	"voltron/internal/lang"
	"voltron/internal/lru"
	"voltron/internal/spec"
	"voltron/internal/stats"
	"voltron/internal/trace"
	"voltron/internal/workload"
)

// Config parameterizes a Server.
type Config struct {
	// Workers bounds concurrently running simulations: a job or a figure
	// holds one slot for all of its simulation. Defaults to
	// runtime.GOMAXPROCS(0). Requests beyond the bound queue (their wait
	// shows up as the queue_depth metric).
	Workers int
	// CacheEntries bounds the completed-result LRU, and the request memo
	// in front of it (body digest → content key). Defaults to 256.
	CacheEntries int
	// RequestTimeout bounds one job (queue wait + compile + simulate).
	// Defaults to 2 minutes.
	RequestTimeout time.Duration
	// Self names this replica on the cluster's consistent-hash ring. Empty
	// with no Peers means single-replica operation.
	Self string
	// Peers lists the fleet membership (it may include this replica's own
	// entry, which is skipped). Every replica must be configured with the
	// same list: ring agreement is what lets any replica compute a key's
	// owner locally.
	Peers []Replica
	// PeerTimeout caps one peer forward. The realized forward timeout is
	// additionally capped at half the inbound request's remaining budget,
	// so a dead owner always leaves time for the local-simulation fallback.
	// Defaults to 10 seconds.
	PeerTimeout time.Duration
	// AdmitSimulate bounds concurrently admitted simulate-class requests
	// (jobs with no completed local cache entry). Requests beyond the bound
	// are shed with a typed 429 and Retry-After. Defaults to 32× Workers.
	AdmitSimulate int
	// AdmitCachedRead bounds concurrently admitted cached-read requests.
	// Defaults to 8× AdmitSimulate.
	AdmitCachedRead int
}

// The bounds of the server's two artifact stores: compiled programs cached
// by spec.CompileKey (shared across trace variants, machine ablations and
// baseline runs of one program), and rendered Chrome traces, which dwarf
// job responses and so get a smaller bound.
const (
	artifactEntries = 64
	traceEntries    = 32
)

// Server serves compile-and-simulate jobs. Create with New, expose with
// Handler, stop by shutting down the enclosing http.Server (jobs run
// synchronously inside handlers, so draining handlers drains jobs).
type Server struct {
	cfg   Config
	suite *exp.Suite
	// cache holds rendered response bodies by content key, artifacts
	// compiled programs by spec.CompileKey, and traces rendered Chrome
	// traces by job key.
	cache     *lru.Cache[string, []byte]
	artifacts *lru.Cache[string, *core.CompiledProgram]
	traces    *lru.Cache[string, []byte]
	pool      *machinePool
	// memo maps the SHA-256 of a /v1/jobs body to its normalized content
	// key, so a result-cache hit skips decode and normalize (handleJob).
	memo *lru.Cache[[sha256.Size]byte, memoEntry]
	// runSem holds one slot per running simulation (Config.Workers).
	runSem chan struct{}
	start  time.Time
	// Cluster state: the consistent-hash ring over the fleet (nil when
	// single-replica), the peer base URLs by replica name, and the shared
	// client for peer forwards.
	ring     *ring
	peerURL  map[string]string
	peerHTTP *http.Client
	// adm is the admission layer: per-class bounds in front of the worker
	// slots.
	adm *admission

	jobs stats.Counter
	// Lookups by lru.Status: of the result cache, per job, and of the
	// compile-artifact cache, per local computation.
	results  [lru.Statuses]stats.Counter
	compiles [lru.Statuses]stats.Counter
	// Tiered strategy selection: regions decided statically by the
	// classifier, regions escalated to measured selection, and regions
	// re-selected by the stall-report agreement check (Recheck).
	selectStatic    stats.Counter
	selectEscalated stats.Counter
	selectRechecks  stats.Counter
	// Peer-to-peer cache fill: forwards attempted, bodies actually served
	// by a peer, and local-simulation fallbacks after a peer failure.
	peerForwards  stats.Counter
	peerFills     stats.Counter
	peerFallbacks stats.Counter
	errorsN       stats.Counter
	canceled      stats.Counter
	// Worker slots: runs waiting for a slot and runs executing (gauges),
	// simulations completed, and those a compile claimant took from
	// measured selection's end state.
	queued    stats.Counter
	running   stats.Counter
	runs      stats.Counter
	fusedRuns stats.Counter
	latency   map[string]*stats.Histogram
}

// New creates a Server.
func New(cfg Config) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.CacheEntries <= 0 {
		cfg.CacheEntries = 256
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 2 * time.Minute
	}
	if cfg.PeerTimeout <= 0 {
		cfg.PeerTimeout = 10 * time.Second
	}
	if cfg.AdmitSimulate <= 0 {
		cfg.AdmitSimulate = 32 * cfg.Workers
	}
	if cfg.AdmitCachedRead <= 0 {
		cfg.AdmitCachedRead = 8 * cfg.AdmitSimulate
	}
	if len(cfg.Peers) > 0 && cfg.Self == "" {
		cfg.Self = "self"
	}
	suite := exp.NewSuite()
	suite.Workers = 1 // a figure runs in one worker slot, like a job
	s := &Server{
		cfg:       cfg,
		suite:     suite,
		cache:     lru.New[string, []byte](cfg.CacheEntries),
		artifacts: lru.New[string, *core.CompiledProgram](artifactEntries),
		traces:    lru.New[string, []byte](traceEntries),
		memo:      lru.New[[sha256.Size]byte, memoEntry](cfg.CacheEntries),
		pool:      newMachinePool(cfg.Workers),
		runSem:    make(chan struct{}, cfg.Workers),
		start:     time.Now(),
		latency:   map[string]*stats.Histogram{},
	}
	s.adm = newAdmission(cfg.AdmitSimulate, cfg.AdmitCachedRead)
	if len(cfg.Peers) > 0 {
		s.ring = newRing(ringVnodes)
		s.ring.add(cfg.Self)
		s.peerURL = map[string]string{}
		for _, p := range cfg.Peers {
			if p.Name == "" || p.Name == cfg.Self {
				continue
			}
			s.ring.add(p.Name)
			if p.URL != "" {
				s.peerURL[p.Name] = strings.TrimSuffix(p.URL, "/")
			}
		}
		s.peerHTTP = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 64}}
	}
	for _, si := range spec.Strategies() {
		s.latency[si.Name] = &stats.Histogram{}
	}
	return s
}

// Handler returns the server's HTTP API:
//
//	GET  /healthz          — liveness
//	GET  /metrics          — service counters and latency histograms (JSON)
//	GET  /v1/benchmarks    — built-in benchmark names
//	GET  /v1/strategies    — parallelization strategies with metadata
//	POST /v1/jobs          — run one compile-and-simulate job
//	POST /v1/validate      — check and classify a job without running it
//	GET  /v1/traces/{key}  — Chrome trace JSON of a traced job
//	GET  /v1/figures/{n}   — regenerate one paper figure (3, 10-14)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /v1/benchmarks", s.handleBenchmarks)
	mux.HandleFunc("GET /v1/strategies", s.handleStrategies)
	mux.HandleFunc("POST /v1/jobs", s.handleJob)
	mux.HandleFunc("POST /v1/validate", s.handleValidate)
	mux.HandleFunc("GET /v1/traces/{key}", s.handleTrace)
	mux.HandleFunc("GET /v1/figures/{n}", s.handleFigure)
	return mux
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleBenchmarks(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string]any{"benchmarks": workload.Names()})
}

func (s *Server) handleStrategies(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string]any{"strategies": spec.Strategies()})
}

// putTrace stores an exactly sized copy of a rendered trace: the store
// keeps up to traceEntries blobs of hundreds of KB live, so the spare
// capacity a render or a body read leaves behind is not kept with them.
func (s *Server) putTrace(key string, b []byte) {
	blob := make([]byte, len(b))
	copy(blob, b)
	s.traces.Put(key, blob)
}

// handleTrace serves the Chrome trace JSON of a previously traced job.
// Traces live in a bounded LRU sharded like job results: a local miss on a
// non-owner replica forwards to the key's ring owner (which rendered and
// stored the blob when it ran the traced job) and fills the local store, so
// a trace is fetchable from any replica of the fleet. A trace evicted
// everywhere returns 404 with a hint to re-run the job.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	b, ok := s.traces.Completed(key)
	if !ok {
		if owner := s.ownerOf(key); owner != "" && r.Header.Get(forwardHeader) == "" {
			s.peerForwards.Inc()
			if pb, _, err := s.forward(r.Context(), owner, "/v1/traces/"+key, nil); err == nil {
				s.peerFills.Inc()
				s.putTrace(key, pb)
				w.Header().Set("Content-Type", "application/json")
				w.Header().Set("X-Voltron-Peer", owner)
				w.WriteHeader(http.StatusOK)
				w.Write(pb)
				return
			}
		}
		s.writeError(w, http.StatusNotFound, fmt.Errorf("no trace for %q (evicted or never produced; re-POST the job with \"trace\": true)", key))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(b)
}

// MetricsSnapshot is the /metrics response.
type MetricsSnapshot struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	Workers       int     `json:"workers"`
	Jobs          int64   `json:"jobs"`
	Simulations   int64   `json:"simulations"`
	CacheHits     int64   `json:"cache_hits"`
	CacheMisses   int64   `json:"cache_misses"`
	CacheDeduped  int64   `json:"cache_deduped"`
	CacheEntries  int     `json:"cache_entries"`
	// Compile-artifact cache effectiveness: how often the compile stage was
	// satisfied without compiling. The hit ratio counts hits and dedups over
	// all compile-stage lookups (0 when none happened yet).
	CompileCacheHits     int64   `json:"compile_cache_hits"`
	CompileCacheMisses   int64   `json:"compile_cache_misses"`
	CompileCacheDeduped  int64   `json:"compile_cache_deduped"`
	CompileCacheEntries  int     `json:"compile_cache_entries"`
	CompileCacheHitRatio float64 `json:"compile_cache_hit_ratio"`
	// Machine-pool effectiveness: a hit reused (and reset) a warm machine,
	// a "new" built one from scratch. BatchedRuns is always 0; it stays on
	// the wire for existing clients.
	MachinePoolHits   int64 `json:"machine_pool_hits"`
	MachinePoolResets int64 `json:"machine_pool_resets"`
	MachinePoolNews   int64 `json:"machine_pool_news"`
	MachinePoolIdle   int   `json:"machine_pool_idle"`
	BatchedRuns       int64 `json:"batched_runs"`
	// FusedRuns counts simulations a compile claimant served from measured
	// selection's end state instead of running the selected program again;
	// each is also one of Simulations.
	FusedRuns int64 `json:"fused_runs_total"`
	// Tiered strategy selection over all compiles this process ran: regions
	// the classifier decided without simulation, regions it escalated to
	// measured selection, and regions re-selected because a traced run's
	// stall profile contradicted the static pick.
	SelectStatic     int64 `json:"select_static_total"`
	SelectEscalated  int64 `json:"select_escalated_total"`
	SelectReselected int64 `json:"select_reselected_total"`
	// Cluster: this replica's ring identity and the peer-to-peer cache-fill
	// traffic. Forwards count attempts (jobs and traces), fills count bodies
	// actually served by a peer, fallbacks count local simulations run
	// because the owning peer failed or timed out.
	Replica       string `json:"replica,omitempty"`
	Peers         int    `json:"peers,omitempty"`
	PeerForwards  int64  `json:"peer_forwards_total"`
	PeerFills     int64  `json:"peer_fills_total"`
	PeerFallbacks int64  `json:"peer_fallbacks_total"`
	// Admission control: per-class admitted depth (a gauge: requests between
	// admit and response), the class bound, and the total shed with 429.
	AdmitQueueSimulate   int64                              `json:"admit_queue_simulate"`
	AdmitQueueCachedRead int64                              `json:"admit_queue_cached_read"`
	AdmitLimitSimulate   int                                `json:"admit_limit_simulate"`
	AdmitLimitCachedRead int                                `json:"admit_limit_cached_read"`
	ShedSimulate         int64                              `json:"shed_simulate_total"`
	ShedCachedRead       int64                              `json:"shed_cached_read_total"`
	Errors               int64                              `json:"errors"`
	Canceled             int64                              `json:"canceled"`
	QueueDepth           int64                              `json:"queue_depth"`
	InFlight             int64                              `json:"in_flight"`
	Latency              map[string]stats.HistogramSnapshot `json:"latency_by_strategy"`
	// Panics counts result or compile computations that panicked; each
	// failed its request (and any identical waiters) with code "internal".
	Panics int64 `json:"panics_total"`
}

// Metrics returns a point-in-time snapshot of the service counters.
func (s *Server) Metrics() MetricsSnapshot {
	m := MetricsSnapshot{
		UptimeSeconds:        time.Since(s.start).Seconds(),
		Workers:              s.cfg.Workers,
		Jobs:                 s.jobs.Value(),
		Simulations:          s.runs.Value(),
		CacheHits:            s.results[lru.Hit].Value(),
		CacheMisses:          s.results[lru.Miss].Value(),
		CacheDeduped:         s.results[lru.Deduped].Value(),
		CacheEntries:         s.cache.Len(),
		CompileCacheHits:     s.compiles[lru.Hit].Value(),
		CompileCacheMisses:   s.compiles[lru.Miss].Value(),
		CompileCacheDeduped:  s.compiles[lru.Deduped].Value(),
		CompileCacheEntries:  s.artifacts.Len(),
		MachinePoolHits:      s.pool.hits.Value(),
		MachinePoolResets:    s.pool.resets.Value(),
		MachinePoolNews:      s.pool.news.Value(),
		MachinePoolIdle:      s.pool.size(),
		FusedRuns:            s.fusedRuns.Value(),
		SelectStatic:         s.selectStatic.Value(),
		SelectEscalated:      s.selectEscalated.Value(),
		SelectReselected:     s.selectRechecks.Value(),
		Replica:              s.cfg.Self,
		Peers:                len(s.peerURL),
		PeerForwards:         s.peerForwards.Value(),
		PeerFills:            s.peerFills.Value(),
		PeerFallbacks:        s.peerFallbacks.Value(),
		AdmitQueueSimulate:   int64(s.adm.depthOf(admSimulate)),
		AdmitQueueCachedRead: int64(s.adm.depthOf(admCachedRead)),
		AdmitLimitSimulate:   s.cfg.AdmitSimulate,
		AdmitLimitCachedRead: s.cfg.AdmitCachedRead,
		ShedSimulate:         s.adm.shed[admSimulate].Value(),
		ShedCachedRead:       s.adm.shed[admCachedRead].Value(),
		Errors:               s.errorsN.Value(),
		Panics:               s.cache.Panics() + s.artifacts.Panics(),
		Canceled:             s.canceled.Value(),
		QueueDepth:           s.queued.Value(),
		InFlight:             s.running.Value(),
		Latency:              map[string]stats.HistogramSnapshot{},
	}
	if total := m.CompileCacheHits + m.CompileCacheMisses + m.CompileCacheDeduped; total > 0 {
		m.CompileCacheHitRatio = float64(m.CompileCacheHits+m.CompileCacheDeduped) / float64(total)
	}
	for name, h := range s.latency {
		m.Latency[name] = h.Snapshot()
	}
	return m
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, s.Metrics())
}

// JobResponse is the /v1/jobs response body. It is rendered once per cache
// key, so identical requests receive byte-identical bodies.
type JobResponse struct {
	// SchemaVersion identifies the response shape (spec.SchemaVersion).
	SchemaVersion int              `json:"schema_version"`
	Key           string           `json:"key"`
	Bench         string           `json:"bench,omitempty"`
	Program       string           `json:"program,omitempty"`
	Strategy      string           `json:"strategy"`
	Cores         int              `json:"cores"`
	TotalCycles   int64            `json:"total_cycles"`
	RegionCycles  []int64          `json:"region_cycles"`
	ModeCoupled   float64          `json:"mode_coupled"`
	ModeDecoupl   float64          `json:"mode_decoupled"`
	Spawns        int64            `json:"spawns"`
	TMConflicts   int64            `json:"tm_conflicts"`
	Stalls        map[string]int64 `json:"stalls"`
	Mem           MemStats         `json:"mem"`
	// BaselineCycles and Speedup are present when the request asked for a
	// baseline comparison.
	BaselineCycles int64   `json:"baseline_cycles,omitempty"`
	Speedup        float64 `json:"speedup,omitempty"`
	// TraceURL and StallReport are present when the request asked for a
	// trace: the URL serves the run's Chrome trace JSON (Perfetto-loadable),
	// the report is the stall-attribution breakdown of the same run.
	TraceURL    string        `json:"trace_url,omitempty"`
	StallReport *trace.Report `json:"stall_report,omitempty"`
}

// MemStats is the memory-system slice of the response.
type MemStats struct {
	L2Hits        int64 `json:"l2_hits"`
	L2Misses      int64 `json:"l2_misses"`
	C2CTransfers  int64 `json:"c2c_transfers"`
	Invalidations int64 `json:"invalidations"`
	Writebacks    int64 `json:"writebacks"`
}

// maxBodyBytes bounds a job request body: far above the largest valid job
// (source programs are capped at 64 KiB by the frontend), small enough that
// a runaway client cannot make the decoder buffer without limit.
const maxBodyBytes = 1 << 20

// readBody reads the request body once, bounded by maxBodyBytes. An
// oversized body gets the typed 413 and any other read failure a 400; on
// failure the response is written and ok is false.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) (body []byte, ok bool) {
	var buf bytes.Buffer
	if n := r.ContentLength; n > 0 && n <= maxBodyBytes {
		buf.Grow(int(n) + bytes.MinRead) // one allocation; ReadFrom wants MinRead spare
	}
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxBodyBytes)); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			s.writeError(w, http.StatusRequestEntityTooLarge, &spec.Error{Code: spec.ErrBadRequest,
				Message: fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit)})
		} else {
			s.writeError(w, http.StatusBadRequest, fmt.Errorf("reading request: %w", err))
		}
		return nil, false
	}
	return buf.Bytes(), true
}

// decodeRequest is the front half shared by POST /v1/jobs and
// /v1/validate: it decodes and normalizes the body. On failure it writes
// the typed error response and returns nil.
func (s *Server) decodeRequest(w http.ResponseWriter, body []byte) *spec.JobRequest {
	req, _, err := spec.DecodeJob(bytes.NewReader(body))
	if err != nil {
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return nil
	}
	if err := req.Normalize(func(b string) bool { return slices.Contains(workload.Names(), b) }); err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return nil
	}
	return req
}

// memoEntry is what the request memo keeps per body digest: the normalized
// job's content key and its strategy (the latency histogram's label).
// Never the *JobRequest: a source request would pin its checked AST for as
// long as the entry lives.
type memoEntry struct {
	key, strategy string
}

// handleJob runs one job. A result-cache hit costs a SHA-256 of the body
// and two lookups: the memo maps the digest of bytes seen before to their
// content key, and a completed result for that key is served without
// decoding, normalizing (for source programs, running the frontend) or
// hashing the canonical form. Decode and normalize are a pure function of
// the bytes and the fixed benchmark set, so the memo never names a key the
// decode would not. Unknown bytes, or a key whose result was evicted or is
// still in flight, are decoded and normalized, which records the memo entry
// (errors are never memoized), and the result is looked up the same way.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	body, ok := s.readBody(w, r)
	if !ok {
		return
	}
	digest := sha256.Sum256(body)
	var req *spec.JobRequest // decoded only when the memo cannot answer
	m, cached := s.memo.Completed(digest)
	var hit []byte
	if cached {
		hit, cached = s.cache.Completed(m.key)
	}
	if !cached {
		if req = s.decodeRequest(w, body); req == nil {
			return
		}
		m = memoEntry{key: req.Key(), strategy: req.Strategy}
		s.memo.Put(digest, m)
		hit, cached = s.cache.Completed(m.key)
	}
	s.jobs.Inc()
	// Admission: classify by expected cost — a completed local cache entry
	// makes this a cached read (microseconds), anything else may compile and
	// simulate — and shed with a typed 429 when the class is at its bound.
	class := admSimulate
	if cached {
		class = admCachedRead
	}
	release, depth, ok := s.adm.admit(class)
	if !ok {
		s.writeShed(w, class, depth)
		return
	}
	defer release()
	startedAt := time.Now()
	out := jobOutcome{body: hit, status: lru.Hit}
	var err error
	if !cached {
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		out, err = s.jobBody(ctx, req, m.key, r.Header.Get(forwardHeader) != "")
		cancel()
	}
	s.results[out.status].Inc()
	if err != nil {
		s.writeFailure(w, err)
		return
	}
	s.latency[m.strategy].Observe(time.Since(startedAt))
	w.Header().Set("Content-Type", "application/json")
	cacheHdr := out.status.String()
	if out.peer != "" {
		// The body was filled from the owning replica: report the owner's
		// cache status — the fleet-level answer, "hit" when any replica had
		// already simulated this job — and name the peer that served it.
		if out.peerCache != "" {
			cacheHdr = out.peerCache
		}
		w.Header().Set("X-Voltron-Peer", out.peer)
	}
	w.Header().Set("X-Voltron-Cache", cacheHdr)
	if out.compiled {
		// Only a request that actually reached the compile stage (a result
		// cache miss computed locally) reports how that stage was satisfied;
		// a result hit, dedup or peer fill never consulted the artifact cache.
		w.Header().Set("X-Voltron-Compile-Cache", out.compile.String())
		if out.selMode != "" {
			// How per-region strategy selection decided this job's artifact:
			// "measured", "static" (every region decided by the classifier) or
			// "escalated" (classifier plus measured fallback for low-confidence
			// or stall-contradicted regions). Absent for compiles that run no
			// selection (serial, single-core).
			w.Header().Set("X-Voltron-Select", out.selMode)
		}
	}
	w.WriteHeader(http.StatusOK)
	w.Write(out.body)
}

// ValidateRegion is one region's entry in the validate response: the
// static classifier's verdict for the region under the requested strategy
// and core count.
type ValidateRegion struct {
	Name string `json:"name"`
	// Tier is the classifier's verdict: small, doall, easy or hard.
	Tier string `json:"tier"`
	// Choice is the strategy the classifier would install for the region:
	// "single core", "ILP", "fine-grain TLP" or "LLP".
	Choice string `json:"choice"`
	// Confidence is the relative margin of the winning estimate over the
	// runner-up, in [0, 1].
	Confidence float64 `json:"confidence"`
}

// ValidateResponse is the POST /v1/validate body: the program parsed,
// type-checked, lowered and classified — nothing simulated.
type ValidateResponse struct {
	SchemaVersion int              `json:"schema_version"`
	Program       string           `json:"program"`
	Kind          string           `json:"kind"`
	Strategy      string           `json:"strategy"`
	Cores         int              `json:"cores"`
	Regions       []ValidateRegion `json:"regions"`
}

// handleValidate checks a job without running it: the request decodes and
// normalizes exactly like POST /v1/jobs (source programs parse and
// type-check here, returning the frontend's positioned diagnostics on
// failure), the program is lowered to IR, and the static classifier
// reports the per-region plan the compiler would install. Nothing is
// simulated; the resolved program enters the program tier jobs share.
// Resolution and classification run in a worker slot under the
// RequestTimeout; a deadline answers 504 and a canceled client 499.
func (s *Server) handleValidate(w http.ResponseWriter, r *http.Request) {
	body, ok := s.readBody(w, r)
	if !ok {
		return
	}
	req := s.decodeRequest(w, body)
	if req == nil {
		return
	}
	// Resolving profiles the program, which runs as long as its loops do:
	// it takes a worker slot and obeys the RequestTimeout like a job.
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	resp := ValidateResponse{
		SchemaVersion: spec.SchemaVersion,
		Kind:          req.Program.Kind,
		Strategy:      req.Strategy,
		Cores:         req.Cores,
	}
	err := s.slot(ctx, func() error {
		p, pr, err := s.suite.Resolve(ctx, req.Program)
		if err != nil {
			return err
		}
		opts := req.CompilerOpts()
		opts.Profile = pr
		cls, err := compiler.ClassifyProgram(p, opts)
		if err != nil {
			return err
		}
		resp.Program = p.Name
		for i, c := range cls {
			resp.Regions = append(resp.Regions, ValidateRegion{
				Name:       p.Regions[i].Name,
				Tier:       c.Tier.String(),
				Choice:     c.Choice.String(),
				Confidence: c.Confidence,
			})
		}
		return nil
	})
	if err != nil {
		var se *spec.Error
		if errors.As(err, &se) {
			s.writeError(w, http.StatusBadRequest, err) // a program the frontend rejects
		} else {
			s.writeFailure(w, err)
		}
		return
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// writeShed answers a request the admission layer rejected: 429, a
// Retry-After header, and the same estimate in a typed body.
func (s *Server) writeShed(w http.ResponseWriter, class admClass, depth int) {
	secs := s.retryAfterSeconds(class, depth)
	limit := s.cfg.AdmitSimulate
	if class == admCachedRead {
		limit = s.cfg.AdmitCachedRead
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	s.writeJSON(w, http.StatusTooManyRequests, ShedResponse{
		SchemaVersion:     spec.SchemaVersion,
		Code:              spec.ErrQueueFull,
		Error:             fmt.Sprintf("%s queue full (%d admitted, limit %d); retry in %ds", class, depth, limit, secs),
		Class:             class.String(),
		QueueDepth:        depth,
		QueueLimit:        limit,
		RetryAfterSeconds: secs,
	})
}

// retryAfterSeconds estimates when a shed client should retry: the time for
// the admitted simulate queue to drain through the worker pool at the
// observed mean job latency (100ms before any observation exists), clamped
// to [1, 30] seconds. Cached reads drain in microseconds, so their estimate
// is the floor.
func (s *Server) retryAfterSeconds(class admClass, depth int) int {
	if class == admCachedRead {
		return 1
	}
	var sumUS float64
	var n int64
	for _, h := range s.latency {
		snap := h.Snapshot()
		sumUS += snap.MeanUS * float64(snap.Count)
		n += snap.Count
	}
	meanUS := 100_000.0
	if n > 0 {
		meanUS = sumUS / float64(n)
	}
	secs := int(math.Ceil(float64(depth) * meanUS / float64(s.cfg.Workers) / 1e6))
	return min(max(secs, 1), 30)
}

// jobOutcome describes how one job body was produced.
type jobOutcome struct {
	body     []byte
	status   lru.Status // how the local result cache was satisfied
	compile  lru.Status // how the compile stage was satisfied (when compiled)
	compiled bool       // this request ran the compile stage locally
	selMode  string     // how strategy selection decided the artifact
	// peer names the owning replica whose response filled the local cache
	// ("" when the body was computed or already cached locally); peerCache
	// is that owner's X-Voltron-Cache status.
	peer      string
	peerCache string
}

// jobBody resolves one normalized job to its rendered response body via the
// content-addressed cache. On a local miss for a key owned by another
// replica, the singleflight computation forwards to the owner — the peer's
// bytes are stored locally verbatim (peer cache fill), so every replica
// serves byte-identical bodies — and falls back to simulating locally when
// the owner is unreachable, sheds, or runs out of the forward budget.
// forwarded suppresses re-forwarding: requests that arrived from a peer and
// nested jobs (a baseline comparison inside a running job) always compute
// locally, which both prevents forwarding loops and keeps one job's latency
// bounded by a single forward hop.
func (s *Server) jobBody(ctx context.Context, req *spec.JobRequest, key string, forwarded bool) (jobOutcome, error) {
	var out jobOutcome
	body, status, err := s.cache.Get(ctx, key, func() ([]byte, error) {
		if owner := s.ownerOf(key); owner != "" && !forwarded {
			s.peerForwards.Inc()
			if b, pcache, ferr := s.forward(ctx, owner, "/v1/jobs", req); ferr == nil {
				out.peer, out.peerCache = owner, pcache
				s.peerFills.Inc()
				return b, nil
			} else if ctx.Err() != nil {
				return nil, ctx.Err() // our own budget expired, not the peer's
			}
			s.peerFallbacks.Inc()
		}
		resp, cstat, mode, err := s.runJob(ctx, req, key)
		if err != nil {
			return nil, err
		}
		out.compile, out.compiled, out.selMode = cstat, true, mode
		return json.Marshal(resp)
	})
	out.body, out.status = body, status
	return out, err
}

// runJob executes one normalized job (and, when asked, its serial
// baseline) and assembles the response.
func (s *Server) runJob(ctx context.Context, req *spec.JobRequest, key string) (*JobResponse, lru.Status, string, error) {
	res, tr, cstat, selMode, err := s.simulate(ctx, req)
	if err != nil {
		return nil, cstat, selMode, err
	}
	resp := &JobResponse{
		SchemaVersion: spec.SchemaVersion,
		Key:           key,
		Bench:         req.Program.Bench,
		Strategy:      req.Strategy,
		Cores:         req.Cores,
		TotalCycles:   res.TotalCycles,
		RegionCycles:  res.RegionCycles,
		ModeCoupled:   res.ModeFraction(stats.ModeCoupled),
		ModeDecoupl:   res.ModeFraction(stats.ModeDecoupled),
		Spawns:        res.Spawns,
		TMConflicts:   res.TMConflicts,
		Stalls:        map[string]int64{},
		Mem: MemStats{
			L2Hits:        res.MemStats.L2Hits,
			L2Misses:      res.MemStats.L2Misses,
			C2CTransfers:  res.MemStats.C2CTransfers,
			Invalidations: res.MemStats.Invalidations,
			Writebacks:    res.MemStats.Writebacks,
		},
	}
	if req.Program.Kind != spec.KindBench {
		resp.Program = req.Program.Name
	}
	for _, k := range stats.Kinds() {
		if n := res.Stall(k); n > 0 {
			resp.Stalls[k.String()] = n
		}
	}
	if tr != nil {
		// The rendered trace is stored out of band (it dwarfs the response)
		// and served by its job key; the response carries the URL and the
		// aggregated stall report. Rendering happens inside the singleflight
		// computation, so concurrent identical traced jobs render once.
		s.putTrace(key, tr.AppendChrome(nil))
		resp.TraceURL = "/v1/traces/" + key
		resp.StallReport = tr.Report()
	}
	if req.Baseline && !(req.Strategy == "serial" && req.Cores == 1) {
		// The baseline is itself a first-class job routed through the
		// content cache, so it is simulated once no matter how many jobs
		// compare against it (and a later direct serial request hits it).
		// It never inherits the trace flag: the caller asked to see this
		// job's timeline, not the baseline's.
		base := *req
		base.Strategy, base.Cores, base.Baseline, base.Trace = "serial", 1, false, false
		bout, err := s.jobBody(ctx, &base, base.Key(), true)
		if err != nil {
			return nil, cstat, selMode, fmt.Errorf("baseline: %w", err)
		}
		var bresp JobResponse
		if err := json.Unmarshal(bout.body, &bresp); err != nil {
			return nil, cstat, selMode, fmt.Errorf("baseline: %w", err)
		}
		resp.BaselineCycles = bresp.TotalCycles
		if res.TotalCycles > 0 {
			resp.Speedup = float64(bresp.TotalCycles) / float64(res.TotalCycles)
		}
	}
	return resp, cstat, selMode, nil
}

// simulate runs one normalized job through the job pipeline
// (spec.JobRequest.Simulate) on a pooled machine under one worker slot,
// inside which it resolves the job's program (exp.Suite.Resolve).
// The compile stage is cached by spec.CompileKey, so trace variants,
// machine ablations and baseline runs of one program × strategy share one
// compile, deduplicated in flight. The claimant runs that compile fused
// with its own simulation; a compile-cache hit or a dedup waiter runs the
// cached artifact. The cache holds exactly what the compile produced —
// never a run's end state or a recheck's correction — and a failed run
// still caches a successful compile. The tracer, when the request asks for
// one, holds the run's event stream; the lru.Status says how the compile
// stage was satisfied and the string how selection decided the program
// that ran (core.SelectionSummary.Mode; "" when no selection ran).
func (s *Server) simulate(ctx context.Context, req *spec.JobRequest) (*core.RunResult, *trace.Tracer, lru.Status, string, error) {
	var (
		tr     *trace.Tracer
		ran    *core.CompiledProgram
		res    *core.RunResult
		runErr error
	)
	if req.Trace {
		tr = trace.New()
	}
	run := func(cp *core.CompiledProgram) (compiled *core.CompiledProgram) {
		runErr = s.slot(ctx, func() error {
			p, pr, err := s.suite.Resolve(ctx, req.Program)
			if err != nil {
				return err
			}
			return s.onMachine(req, tr, func(m *core.Machine) (err error) {
				// A claimant's CompileRun fuses exactly when selection measured a
				// region and the machine's own configuration can resume the eval
				// machines'.
				fuses := cp == nil && m.Config().CanResume(core.DefaultConfig(req.Cores))
				compiled, ran, res, tr, err = req.Simulate(ctx, p, pr, cp, m, 1)
				if fuses && err == nil && compiled.Selection.Measured+compiled.Selection.Escalated > 0 {
					s.fusedRuns.Inc()
				}
				return err
			})
		})
		return compiled
	}
	cp, cstat, err := s.artifacts.Get(ctx, req.CompileKey(), func() (*core.CompiledProgram, error) {
		if cp := run(nil); cp != nil {
			return cp, nil
		}
		return nil, runErr
	})
	s.compiles[cstat].Inc()
	if err != nil {
		return nil, nil, cstat, "", err
	}
	if cstat == lru.Miss {
		s.selectStatic.Add(int64(cp.Selection.Static))
		s.selectEscalated.Add(int64(cp.Selection.Escalated))
	} else {
		run(cp)
	}
	if runErr != nil {
		return nil, nil, cstat, cp.Selection.Mode, runErr
	}
	// A traced auto job whose stall report contradicted a static pick ran
	// the re-selected program instead (see Simulate).
	s.selectRechecks.Add(int64(cp.Selection.Static - ran.Selection.Static))
	return res, tr, cstat, ran.Selection.Mode, nil
}

// onMachine calls sim on a warm machine from the pool, configured for req
// and traced by tr, and counts one simulation; the caller holds a worker
// slot. A machine whose simulation panicked is not pooled again.
func (s *Server) onMachine(req *spec.JobRequest, tr *trace.Tracer, sim func(*core.Machine) error) error {
	defer s.runs.Inc()
	key := req.MachineKey()
	m := s.pool.get(key, req.MachineConfig(tr))
	err := sim(m)
	s.pool.put(key, m)
	return err
}

// slot calls fn under one of the Workers slots. A job holds exactly one
// for all of its simulation, and nothing waits for a second slot while
// holding one. Waiting respects ctx, so a canceled request never occupies
// a slot and fails with the wait's error; once running, the caller threads
// the same ctx into the simulator, which polls it. Every simulation runs
// on its request handler's goroutine, so draining HTTP handlers drains the
// slots and nothing leaks.
func (s *Server) slot(ctx context.Context, fn func() error) error {
	if err := ctx.Err(); err != nil { // select would pick a free slot at random
		return fmt.Errorf("waiting for a worker slot: %w", err)
	}
	s.queued.Add(1)
	select {
	case s.runSem <- struct{}{}:
		s.queued.Add(-1)
	case <-ctx.Done():
		s.queued.Add(-1)
		return fmt.Errorf("waiting for a worker slot: %w", ctx.Err())
	}
	s.running.Add(1)
	defer func() {
		s.running.Add(-1)
		<-s.runSem
	}()
	return fn()
}

// handleFigure regenerates one paper figure through the shared suite. The
// suite memoizes each (bench, strategy, cores) run, so repeated figure
// requests re-simulate nothing. A figure is admitted like a job and
// regenerates in one worker slot, waiting for it under the RequestTimeout;
// the suite does not poll the deadline, so a running figure finishes.
func (s *Server) handleFigure(w http.ResponseWriter, r *http.Request) {
	n, err := strconv.Atoi(r.PathValue("n"))
	if err != nil {
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("bad figure number %q", r.PathValue("n")))
		return
	}
	harness, err := s.suite.Harness(n)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	release, depth, ok := s.adm.admit(admSimulate)
	if !ok {
		s.writeShed(w, admSimulate, depth)
		return
	}
	defer release()
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	var tab *exp.Table
	if err := s.slot(ctx, func() (err error) {
		tab, err = harness()
		return err
	}); err != nil {
		s.writeFailure(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	if err := tab.WriteJSON(w); err != nil {
		s.errorsN.Inc()
	}
}

// writeJSON writes v as the response body. An Encode failure after the
// status line went out cannot be reported to the client, but it is not
// silent either: it counts toward the errors metric, same as handleFigure's
// streamed writes.
func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		s.errorsN.Inc()
	}
}

// writeFailure answers a request whose simulation failed: 504 when the
// request ran out of time, 499 when its client went away and 500 for
// anything else.
func (s *Server) writeFailure(w http.ResponseWriter, err error) {
	s.errorsN.Inc()
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		s.canceled.Inc()
		s.writeError(w, http.StatusGatewayTimeout, err)
	case errors.Is(err, context.Canceled):
		s.canceled.Inc()
		// 499 Client Closed Request (nginx convention): the client is
		// usually gone, but write a status anyway for proxies and tests.
		s.writeError(w, 499, err)
	default:
		s.writeError(w, http.StatusInternalServerError, err)
	}
}

// ErrorResponse is the typed error body every failing endpoint returns:
// a stable machine-readable code, the human-readable message, and — for
// source-program rejections — the frontend's positioned diagnostics.
type ErrorResponse struct {
	SchemaVersion int               `json:"schema_version"`
	Code          string            `json:"code"`
	Error         string            `json:"error"`
	Diagnostics   []lang.Diagnostic `json:"diagnostics,omitempty"`
}

// writeError renders err as a typed ErrorResponse. A *spec.Error carries
// its own stable code (and, for source programs, diagnostics); everything
// else gets a code derived from the HTTP status so clients can always
// switch on "code".
func (s *Server) writeError(w http.ResponseWriter, status int, err error) {
	resp := ErrorResponse{SchemaVersion: spec.SchemaVersion, Error: err.Error()}
	var se *spec.Error
	if errors.As(err, &se) {
		resp.Code = se.Code
		resp.Diagnostics = se.Diagnostics
	} else {
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			resp.Code = spec.ErrTimeout
		case errors.Is(err, context.Canceled):
			resp.Code = spec.ErrCanceled
		case status == http.StatusBadRequest:
			resp.Code = spec.ErrBadRequest
		case status == http.StatusNotFound:
			resp.Code = spec.ErrNotFound
		default:
			resp.Code = spec.ErrInternal
		}
	}
	s.writeJSON(w, status, resp)
}
