// Package service is the request/response layer of groverd, the kernel
// compilation and auto-tuning daemon: JSON types and handlers for
// compile, transform (the Grover pass plus its Table-III-style report),
// autotune (both kernel versions timed on a device, winner returned) and
// device inventory, backed by a content-addressed artifact cache
// (internal/kcache) and a bounded worker pool so heavy traffic queues
// instead of thrashing the simulator.
//
// Endpoints (all JSON):
//
//	POST /v1/compile    compile source, list kernels (optionally the IR)
//	POST /v1/transform  run the Grover pass, return the report
//	POST /v1/autotune   time both versions on a device (or "all"), pick the winner
//	POST /v1/lint       run the static analyzers, return findings + legality verdicts
//	GET  /v1/devices    the six simulated platforms
//	GET  /v1/stats      cache, pool, per-endpoint and per-backend counters
//	GET  /v1/traces     recent finished request traces
//	GET  /metrics       Prometheus text exposition of the same counters
//	GET  /healthz       readiness (pool and cache liveness)
//
// Those nine are the values of the "endpoint" label; a request for any
// other path is tallied under "other".
//
// Every request is wrapped in observability middleware: an X-Request-ID
// is propagated (or generated), a telemetry trace rides the request
// context so compile-pipeline stages surface as spans on the response,
// and each request emits one structured log line plus latency-histogram
// and counter updates served on /metrics.
package service

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"path"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"grover/internal/analysis"
	igrover "grover/internal/grover"
	"grover/internal/kcache"
	"grover/internal/rewrite"
	"grover/internal/telemetry"
	"grover/internal/vm"
	"grover/opencl"
)

// Config sizes a Server.
type Config struct {
	// CacheCapacity bounds the artifact cache (entries); <= 0 uses
	// kcache.DefaultCapacity.
	CacheCapacity int
	// Workers bounds concurrent compile/tune jobs; <= 0 uses GOMAXPROCS.
	Workers int
	// Backend is the default execution backend for autotune launches
	// (requests may override per call). Empty or unknown names fall back
	// to the VM default (GROVER_BACKEND, else wgvec).
	Backend string
	// Logger receives one structured line per request; nil discards them
	// (tests, embedded use). The daemon wires a real handler here.
	Logger *slog.Logger
	// TraceCapacity bounds the in-process ring of exportable traces served
	// by GET /v1/traces; <= 0 uses DefaultTraceCapacity.
	TraceCapacity int
	// MaxQueue bounds the number of jobs waiting for a pool slot; beyond
	// it requests are shed with a 503. <= 0 queues without bound.
	MaxQueue int
	// Version labels the groverd_build_info metric; empty means "dev".
	Version string
}

// DefaultTraceCapacity is the trace ring size when Config leaves it zero.
const DefaultTraceCapacity = 256

// Server holds the service state and implements http.Handler.
type Server struct {
	plat      *opencl.Platform
	cache     *kcache.Cache
	pool      *Pool
	metrics   *telemetry.Registry
	endpoints map[string]*endpoint // by routed request path, plus otherEndpoint
	tune      *tuneCounters
	logger    *slog.Logger
	backend   string
	traces    *telemetry.TraceBuffer
	version   string
	inflight  atomic.Int64
	mux       *http.ServeMux
}

// New builds a ready-to-serve Server.
func New(cfg Config) *Server {
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	backend := cfg.Backend
	if !vm.ValidBackend(backend) {
		// The default is resolved once, here, so the server never holds a
		// name a request would fail on. groverd refuses to start on a bad
		// GROVER_BACKEND; an embedding caller gets the engine and this line.
		var err error
		if backend, err = vm.ResolveBackend(""); err != nil {
			logger.Warn("ignoring "+vm.EnvBackend, "err", err)
			backend = vm.BackendWgvec
		}
	}
	traceCap := cfg.TraceCapacity
	if traceCap <= 0 {
		traceCap = DefaultTraceCapacity
	}
	version := cfg.Version
	if version == "" {
		version = "dev"
	}
	metrics := telemetry.NewRegistry()
	s := &Server{
		plat:      opencl.NewPlatform(),
		cache:     kcache.New(cfg.CacheCapacity),
		pool:      NewPool(cfg.Workers),
		metrics:   metrics,
		endpoints: map[string]*endpoint{otherEndpoint: newEndpoint(metrics, otherEndpoint)},
		tune:      newTuneCounters(metrics),
		logger:    logger,
		backend:   backend,
		traces:    telemetry.NewTraceBuffer(traceCap),
		version:   version,
		mux:       http.NewServeMux(),
	}
	s.pool.SetMaxQueue(cfg.MaxQueue)
	qw := metrics.Histogram("groverd_queue_wait_seconds",
		"time jobs spent waiting for a worker-pool slot", nil)
	s.pool.SetWaitObserver(func(d time.Duration) { qw.Observe(d.Seconds()) })
	s.registerGauges()
	for _, rt := range []struct {
		method, path string
		handler      http.HandlerFunc
	}{
		{"POST", "/v1/compile", post(s.Compile)},
		{"POST", "/v1/transform", post(s.Transform)},
		{"POST", "/v1/autotune", post(s.Autotune)},
		{"POST", "/v1/lint", post(s.Lint)},
		{"GET", "/v1/devices", s.handleDevices},
		{"GET", "/v1/stats", s.handleStats},
		{"GET", "/v1/traces", s.handleTraces},
		{"GET", "/metrics", s.handleMetrics},
		{"GET", "/healthz", s.handleHealthz},
	} {
		s.mux.HandleFunc(rt.method+" "+rt.path, rt.handler)
		// The endpoint is named after the last path element: "compile",
		// "metrics", "healthz".
		s.endpoints[rt.path] = newEndpoint(metrics, path.Base(rt.path))
	}
	return s
}

// Close releases nothing: the server holds no file and no goroutine of its
// own. It stays because bench/ (frozen outside benchmark PRs) still calls
// it, in update.go and workloads.go.
func (s *Server) Close() error { return nil }

// registerGauges surfaces pool occupancy and cache state as sampled
// gauges/counters: the existing snapshots are the single source of truth
// and /metrics reads them at scrape time.
func (s *Server) registerGauges() {
	m := s.metrics
	m.GaugeFunc("groverd_build_info",
		"build metadata as labels; value is always 1",
		func() float64 { return 1 },
		telemetry.Label{Name: "version", Value: s.version},
		telemetry.Label{Name: "go_version", Value: runtime.Version()},
		telemetry.Label{Name: "backend", Value: s.backend})
	m.GaugeFunc("groverd_queue_depth", "jobs waiting for a worker-pool slot",
		func() float64 { return float64(s.pool.Snapshot().Queued) })
	m.GaugeFunc("groverd_inflight_requests", "HTTP requests currently being served",
		func() float64 { return float64(s.inflight.Load()) })
	m.CounterFunc("groverd_shed_total", "jobs refused because the queue bound was reached",
		func() float64 { return float64(s.pool.Snapshot().Shed) })
	m.GaugeFunc("groverd_trace_buffer_len", "finished traces resident in the export ring",
		func() float64 { return float64(s.traces.Len()) })
	m.GaugeFunc("groverd_pool_workers", "worker pool slot count",
		func() float64 { return float64(s.pool.Snapshot().Workers) })
	m.GaugeFunc("groverd_pool_active", "jobs currently holding a pool slot",
		func() float64 { return float64(s.pool.Snapshot().Active) })
	m.GaugeFunc("groverd_pool_queued", "jobs waiting for a pool slot",
		func() float64 { return float64(s.pool.Snapshot().Queued) })
	m.CounterFunc("groverd_pool_completed_total", "finished pool jobs",
		func() float64 { return float64(s.pool.Snapshot().Completed) })
	m.CounterFunc("groverd_cache_hits_total", "artifact-cache hits",
		func() float64 { return float64(s.cache.Snapshot().Hits) })
	m.CounterFunc("groverd_cache_misses_total", "artifact-cache misses",
		func() float64 { return float64(s.cache.Snapshot().Misses) })
	m.CounterFunc("groverd_cache_dedups_total", "artifact-cache singleflight dedups",
		func() float64 { return float64(s.cache.Snapshot().Dedups) })
	m.CounterFunc("groverd_cache_evictions_total", "artifact-cache LRU evictions",
		func() float64 { return float64(s.cache.Snapshot().Evictions) })
	m.GaugeFunc("groverd_cache_entries", "resident artifact-cache entries",
		func() float64 { return float64(s.cache.Snapshot().Entries) })
	m.GaugeFunc("groverd_cache_capacity", "artifact-cache entry bound",
		func() float64 { return float64(s.cache.Snapshot().Capacity) })
}

// reqState accumulates per-request observations (cache outcomes) that
// handlers report and the middleware consumes when the request finishes.
type reqState struct {
	mu       sync.Mutex
	outcomes []kcache.Outcome
}

type reqStateKey struct{}

// noteOutcome appends one cache outcome to the request's state; a no-op
// outside a request (direct handler tests, internal reuse).
func noteOutcome(ctx context.Context, outs ...kcache.Outcome) {
	st, _ := ctx.Value(reqStateKey{}).(*reqState)
	if st == nil {
		return
	}
	st.mu.Lock()
	st.outcomes = append(st.outcomes, outs...)
	st.mu.Unlock()
}

// statusWriter captures the response status for accounting.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

// tracedEndpoint reports whether finished requests to this endpoint land
// in the trace ring. Scrape and introspection traffic (metrics, healthz,
// the traces endpoint itself) is excluded: it would flood the ring with
// sub-millisecond noise and bury the compile/tune traces the ring is for.
func tracedEndpoint(endpoint string) bool {
	switch endpoint {
	case "metrics", "healthz", "traces":
		return false
	}
	return true
}

// newRequestID generates a 16-hex-char request ID.
func newRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "unknown"
	}
	return hex.EncodeToString(b[:])
}

// ServeHTTP wraps the service mux in the observability middleware: it
// propagates (or generates) the X-Request-ID, installs the request's
// telemetry trace and outcome accumulator in the context, and on
// completion records the latency histogram, per-endpoint counters and
// one structured log line.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	ep := s.endpoints[r.URL.Path]
	if ep == nil {
		ep = s.endpoints[otherEndpoint]
	}
	reqID := r.Header.Get("X-Request-ID")
	if reqID == "" {
		reqID = newRequestID()
	}
	w.Header().Set("X-Request-ID", reqID)
	s.inflight.Add(1)
	defer s.inflight.Add(-1)

	st := &reqState{}
	ctx := context.WithValue(r.Context(), reqStateKey{}, st)
	ctx, tr := telemetry.WithTrace(ctx)
	tr.SetID(reqID)
	tr.SetName(r.Method + " " + r.URL.Path)
	sw := &statusWriter{ResponseWriter: w}
	s.mux.ServeHTTP(sw, r.WithContext(ctx))
	if sw.status == 0 {
		sw.status = http.StatusOK
	}
	tr.Finish()
	if tracedEndpoint(ep.name) {
		exp := tr.Export()
		exp.Status = strconv.Itoa(sw.status)
		s.traces.Add(exp)
	}

	dur := time.Since(start)
	st.mu.Lock()
	outcomes := append([]kcache.Outcome(nil), st.outcomes...)
	st.mu.Unlock()
	ep.record(dur, sw.status >= 400, outcomes)

	attrs := []slog.Attr{
		slog.String("method", r.Method),
		slog.String("path", r.URL.Path),
		slog.Int("status", sw.status),
		slog.Float64("duration_ms", float64(dur)/float64(time.Millisecond)),
		slog.String("request_id", reqID),
	}
	if len(outcomes) > 0 {
		parts := make([]string, len(outcomes))
		for i, o := range outcomes {
			parts[i] = o.String()
		}
		attrs = append(attrs, slog.String("cache", strings.Join(parts, ",")))
	}
	level := slog.LevelInfo
	if sw.status >= 500 {
		level = slog.LevelError
	} else if sw.status >= 400 {
		level = slog.LevelWarn
	}
	s.logger.LogAttrs(r.Context(), level, "request", attrs...)
}

// Pool exposes the worker pool (for daemon logging).
func (s *Server) Pool() *Pool { return s.pool }

// Traces exposes the trace ring, so the daemon can attach a JSONL sink
// (-trace-log) and tests can inspect exported traces directly.
func (s *Server) Traces() *telemetry.TraceBuffer { return s.traces }

// Backend reports the server's default execution backend.
func (s *Server) Backend() string { return s.backend }

// Metrics exposes the server's telemetry registry (for embedding and
// tests).
func (s *Server) Metrics() *telemetry.Registry { return s.metrics }

// ------------------------------------------------------------- JSON types

// OptionsSpec mirrors grover.Options with JSON tags.
type OptionsSpec struct {
	// Candidates restricts the pass to the named __local variables; each
	// must be a C identifier (400 otherwise).
	Candidates []string `json:"candidates,omitempty"`
	// KeepBarriers / CloneAll are the paper's ablation switches.
	KeepBarriers bool `json:"keep_barriers,omitempty"`
	CloneAll     bool `json:"clone_all,omitempty"`
	// Strict fails the request when a selected candidate is not
	// reversible instead of skipping it.
	Strict bool `json:"strict,omitempty"`
}

// Defines is the command-line form of a request's defines: a flag.Value
// taking NAME[=VALUE], repeatable, where VALUE defaults to 1.
type Defines map[string]string

func (d Defines) String() string { return "" }

// Set adds one NAME[=VALUE] definition.
func (d Defines) Set(v string) error {
	name, val, found := strings.Cut(v, "=")
	if !found {
		val = "1"
	}
	d[name] = val
	return nil
}

// Dims is the command-line form of a request's launch geometry: a
// flag.Value taking x[,y[,z]], where omitted trailing dimensions are 1. The
// zero value is unset.
type Dims [3]int

func (d *Dims) String() string { return fmt.Sprint(*d) }

// Set parses x[,y[,z]]; every dimension must be a positive integer.
func (d *Dims) Set(s string) error {
	parts := strings.Split(s, ",")
	if len(parts) > 3 {
		return fmt.Errorf("%q: at most three dimensions", s)
	}
	*d = Dims{1, 1, 1}
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || v <= 0 {
			return fmt.Errorf("%q: dimension %d is not a positive integer", s, i)
		}
		d[i] = v
	}
	return nil
}

// CompileRequest compiles OpenCL C source.
type CompileRequest struct {
	// Name labels the program in errors and reports (default "kernel.cl").
	Name string `json:"name,omitempty"`
	// Source is the OpenCL C program text.
	Source string `json:"source"`
	// Defines are extra preprocessor definitions.
	Defines map[string]string `json:"defines,omitempty"`
	// WantIR includes the compiled IR in the response.
	WantIR bool `json:"want_ir,omitempty"`
}

// CompileResponse describes a compiled program.
type CompileResponse struct {
	Name    string   `json:"name"`
	Kernels []string `json:"kernels"`
	IR      string   `json:"ir,omitempty"`
	// Cache is the artifact-cache outcome: "hit", "miss" or "dedup".
	Cache     string  `json:"cache"`
	LatencyMS float64 `json:"latency_ms"`
	// Spans are the compile-pipeline stage timings recorded while serving
	// this request; cached responses, which compile nothing, omit them.
	Spans []telemetry.SpanJSON `json:"spans,omitempty"`
}

// TransformRequest runs the Grover pass on one kernel.
type TransformRequest struct {
	Name    string            `json:"name,omitempty"`
	Source  string            `json:"source"`
	Defines map[string]string `json:"defines,omitempty"`
	// Kernel is the kernel to transform.
	Kernel  string      `json:"kernel"`
	Options OptionsSpec `json:"options"`
	// Plan applies an arbitrary rewrite plan (e.g. "grover",
	// "stage-local(ls=64),hoist-addr") instead of the default Grover pass;
	// Options is ignored when set.
	Plan string `json:"plan,omitempty"`
	// WantIR includes the transformed IR in the response.
	WantIR bool `json:"want_ir,omitempty"`
}

// TransformResponse carries the transformation report.
type TransformResponse struct {
	Kernel      string  `json:"kernel"`
	Transformed bool    `json:"transformed"`
	Report      *Report `json:"report"`
	// Plan and Rewrite describe the applied rewrite plan when the request
	// set one.
	Plan      string               `json:"plan,omitempty"`
	Rewrite   *RewriteReport       `json:"rewrite,omitempty"`
	IR        string               `json:"ir,omitempty"`
	Cache     string               `json:"cache"`
	LatencyMS float64              `json:"latency_ms"`
	Spans     []telemetry.SpanJSON `json:"spans,omitempty"`
}

// RewriteReport is the JSON rendering of a rewrite plan application.
type RewriteReport struct {
	Kernel string        `json:"kernel"`
	Plan   string        `json:"plan"`
	Steps  []RewriteStep `json:"steps"`
	// Text is the human-readable table render.
	Text string `json:"text"`
}

// RewriteStep is one plan step's outcome.
type RewriteStep struct {
	Step    string `json:"step"`
	Rule    string `json:"rule"`
	Applied bool   `json:"applied"`
	Detail  string `json:"detail,omitempty"`
	// Grover carries the Table-III-style report for grover steps.
	Grover *Report `json:"grover,omitempty"`
}

func renderRewrite(r *rewrite.Report) *RewriteReport {
	if r == nil {
		return nil
	}
	out := &RewriteReport{Kernel: r.Kernel, Plan: r.Plan, Text: r.String()}
	for _, s := range r.Steps {
		out.Steps = append(out.Steps, RewriteStep{
			Step: s.Step, Rule: s.Rule, Applied: s.Applied,
			Detail: s.Detail, Grover: renderReport(s.Grover),
		})
	}
	return out
}

// Report is the JSON rendering of the pass report (the paper's Table III
// rows plus cleanup counts).
type Report struct {
	Kernel            string      `json:"kernel"`
	Candidates        []Candidate `json:"candidates"`
	BarriersRemoved   int         `json:"barriers_removed"`
	DeadInstrsRemoved int         `json:"dead_instrs_removed"`
	// Text is the human-readable table render.
	Text string `json:"text"`
}

// Candidate is one __local variable's row in a Report.
type Candidate struct {
	Name string `json:"name"`
	// GL, LS, LL and NGL are the symbolic index expressions; Solution is
	// the solved local→global correspondence.
	GL       string   `json:"gl,omitempty"`
	LS       string   `json:"ls,omitempty"`
	LL       []string `json:"ll,omitempty"`
	NGL      []string `json:"ngl,omitempty"`
	Solution string   `json:"solution,omitempty"`
	// Pattern classifies the LS index tree (paper Fig. 7).
	Pattern     string `json:"pattern"`
	Transformed bool   `json:"transformed"`
	Reason      string `json:"reason,omitempty"`
	// ClonedInstrs counts instructions duplicated by Algorithm 1.
	ClonedInstrs int `json:"cloned_instrs"`
	NumLS        int `json:"num_ls"`
	NumLL        int `json:"num_ll"`
}

func renderReport(r *igrover.Report) *Report {
	if r == nil {
		return nil
	}
	out := &Report{
		Kernel:            r.Kernel,
		BarriersRemoved:   r.BarriersRemoved,
		DeadInstrsRemoved: r.DeadInstrsRemoved,
		Text:              r.String(),
	}
	for _, c := range r.Candidates {
		out.Candidates = append(out.Candidates, Candidate{
			Name: c.Name, GL: c.GL, LS: c.LS, LL: c.LL, NGL: c.NGL,
			Solution: c.Solution, Pattern: c.Pattern.String(),
			Transformed: c.Transformed, Reason: c.Reason,
			ClonedInstrs: c.ClonedInstrs, NumLS: c.NumLS, NumLL: c.NumLL,
		})
	}
	return out
}

// ArgSpec declares one kernel argument for an autotune launch. The
// service allocates buffers itself (clients have no device pointers);
// buffer contents are a deterministic pseudo-random fill — simulated
// timing depends on the access pattern, not the values.
type ArgSpec struct {
	// Kind is "buffer", "local", "int" or "float".
	Kind string `json:"kind"`
	// Size is the byte size of a buffer or local allocation.
	Size int `json:"size,omitempty"`
	// Int and Float carry scalar values.
	Int   int64   `json:"int,omitempty"`
	Float float64 `json:"float,omitempty"`
}

// AutotuneRequest times both kernel versions and returns the winner.
type AutotuneRequest struct {
	Name    string            `json:"name,omitempty"`
	Source  string            `json:"source"`
	Defines map[string]string `json:"defines,omitempty"`
	Kernel  string            `json:"kernel"`
	Options OptionsSpec       `json:"options"`
	// Device is a profile name ("SNB", "Fermi", ...) or "all" (also the
	// default) for every platform, tuned together as one device set: each
	// kernel version executes once and is charged to every device's cost
	// model.
	Device string `json:"device,omitempty"`
	// Global and Local are the launch geometry (zero dims default to 1).
	Global [3]int `json:"global"`
	Local  [3]int `json:"local"`
	// Args are the kernel arguments in declaration order.
	Args []ArgSpec `json:"args"`
	// Backend overrides the server's default execution backend for this
	// request ("interp", "wgvec"). Simulated timings are backend-invariant;
	// this picks how fast the tuning itself runs.
	Backend string `json:"backend,omitempty"`
	// Plan switches tuning from the classic two-version comparison to a
	// rewrite-plan search: "search" enumerates the default plan space for
	// the launch geometry, anything else is a "|"-separated list of plans
	// (plans use "," between steps). Options are ignored when set.
	Plan string `json:"plan,omitempty"`
	// Profile attaches a per-launch execution profile (wall time and
	// retire/traffic counters per barrier-delimited region) to every timed
	// plan in the verdict. Requires a plan search.
	Profile bool `json:"profile,omitempty"`
}

// TuneVerdict is one device's auto-tuning outcome.
type TuneVerdict struct {
	Device string `json:"device"`
	// UseTransformed is true when the version without local memory won.
	UseTransformed bool `json:"use_transformed"`
	// Verdict is the human-readable decision.
	Verdict       string  `json:"verdict"`
	OriginalMS    float64 `json:"original_ms"`
	TransformedMS float64 `json:"transformed_ms"`
	// Speedup is original/transformed — the paper's normalized
	// performance; > 1 means disabling local memory helped.
	Speedup float64 `json:"speedup"`
	Report  *Report `json:"report,omitempty"`
	// Plan is the winning plan and Plans the per-plan timings when the
	// request ran a plan search; Rewrite is the winner's per-step report.
	Plan    string         `json:"plan,omitempty"`
	Plans   []PlanResult   `json:"plans,omitempty"`
	Rewrite *RewriteReport `json:"rewrite,omitempty"`
	Cache   string         `json:"cache"`
	// Error reports a per-device failure during an "all" sweep.
	Error string `json:"error,omitempty"`
}

// PlanResult is one evaluated plan in a plan-search verdict.
type PlanResult struct {
	Plan string `json:"plan"`
	// MS is the average simulated time; present only when the plan was
	// timed.
	MS float64 `json:"ms,omitempty"`
	// Applied is true when the plan changed the kernel and was timed.
	Applied bool `json:"applied"`
	// Error records why the plan was skipped (illegal, inapplicable, or a
	// launch failure).
	Error string `json:"error,omitempty"`
	// Profile is the plan's region-level execution profile (profile mode
	// only).
	Profile *vm.ProfileReport `json:"profile,omitempty"`
}

// AutotuneResponse aggregates the requested devices' verdicts.
type AutotuneResponse struct {
	Kernel string `json:"kernel"`
	// Backend is the execution backend the launches ran on.
	Backend   string               `json:"backend"`
	Results   []TuneVerdict        `json:"results"`
	LatencyMS float64              `json:"latency_ms"`
	Spans     []telemetry.SpanJSON `json:"spans,omitempty"`
}

// LintRequest runs the static analysis suite over a program.
type LintRequest struct {
	Name    string            `json:"name,omitempty"`
	Source  string            `json:"source"`
	Defines map[string]string `json:"defines,omitempty"`
	// Kernel restricts the report to one kernel (default: all).
	Kernel string `json:"kernel,omitempty"`
	// Local is the launch's work-group size when known; zero dimensions
	// mean unknown, which widens bounds intervals and disables the race
	// prover's cross-work-item disjointness reasoning.
	Local [3]int `json:"local,omitempty"`
	// Plan, when set, rewrites the kernel (every kernel when Kernel is
	// empty) before the analyzers run, so they see the rewrite-produced
	// IR; a plan a rule rejects fails the request.
	Plan string `json:"plan,omitempty"`
	// Access enables the detectors backed by the static access summary:
	// uncoalesced global accesses, bank-conflicted local staging and
	// barriers that synchronize no cross-item communication.
	Access bool `json:"access,omitempty"`
}

// LintResponse carries the findings and per-buffer legality verdicts.
type LintResponse struct {
	Name     string                   `json:"name"`
	Findings []analysis.Finding       `json:"findings"`
	Legality []igrover.BufferLegality `json:"legality"`
	// MaxSeverity is "", "info", "warning" or "error".
	MaxSeverity string  `json:"max_severity"`
	Cache       string  `json:"cache"`
	LatencyMS   float64 `json:"latency_ms"`
}

// DeviceInfo describes one simulated platform.
type DeviceInfo struct {
	Name         string `json:"name"`
	Kind         string `json:"kind"`
	ComputeUnits int    `json:"compute_units"`
	Profile      string `json:"profile"`
}

// HealthResponse is the readiness payload: overall status plus the pool
// and cache state it was derived from.
type HealthResponse struct {
	// Status is "ok", or "overloaded" (503) when the pool can make no
	// progress.
	Status string       `json:"status"`
	Pool   PoolStats    `json:"pool"`
	Cache  kcache.Stats `json:"cache"`
}

// StatsResponse is the stats endpoint payload.
type StatsResponse struct {
	Cache kcache.Stats `json:"cache"`
	Pool  PoolStats    `json:"pool"`
	// Backend is the server's default execution backend. Backends counts
	// the autotune device verdicts computed per backend actually used
	// (cache hits run nothing and are not counted), Executions the kernel
	// executions on the host behind them: one serves a whole device set.
	Backend    string                   `json:"backend"`
	Backends   map[string]int64         `json:"backends"`
	Executions map[string]int64         `json:"executions"`
	Endpoints  map[string]EndpointStats `json:"endpoints"`
}

// TracesResponse is the traces endpoint payload: up to the requested
// number of finished request traces, newest first.
type TracesResponse struct {
	// Count is len(Traces); Buffered is how many traces the ring holds.
	Count    int                     `json:"count"`
	Buffered int                     `json:"buffered"`
	Traces   []telemetry.TraceExport `json:"traces"`
}

// ------------------------------------------------------------- plumbing

func writeJSON(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// apiError is an error with an HTTP status.
type apiError struct {
	code int
	msg  string
}

func (e *apiError) Error() string { return e.msg }

func errStatus(err error) int {
	if ae, ok := err.(*apiError); ok {
		return ae.code
	}
	return http.StatusUnprocessableEntity
}

func writeError(w http.ResponseWriter, err error) {
	writeJSON(w, errStatus(err), map[string]string{"error": err.Error()})
}

func notFound(format string, args ...interface{}) error {
	return &apiError{code: http.StatusNotFound, msg: fmt.Sprintf(format, args...)}
}

func badRequest(format string, args ...interface{}) error {
	return &apiError{code: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

// maxBodyBytes bounds request bodies; kernel sources are a few KiB, so
// 16 MiB is generous while keeping a hostile payload from ballooning the
// daemon.
const maxBodyBytes = 16 << 20

func decode(r *http.Request, v interface{}) error {
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return badRequest("bad request body: %v", err)
	}
	return nil
}
