package service

import (
	"context"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"grover"
	"grover/internal/analysis"
	igrover "grover/internal/grover"
	"grover/internal/ir"
	"grover/internal/kcache"
	"grover/internal/rewrite"
	"grover/internal/telemetry"
	"grover/internal/vm"
	"grover/opencl"
)

// compiledArtifact is the cached result of a compile: the pristine
// device-independent module plus a prepared VM program shared across
// requests via Context.NewProgramFromPrepared. The engine's bytecode,
// compiled eagerly for the prepared program, is cached inside it, so the
// kcache entry holds the bytecode alongside the module and each program is
// compiled once no matter how many requests execute it.
type compiledArtifact struct {
	mod     *ir.Module
	prog    *vm.Program
	kernels []string
	ir      string
}

// transformArtifact is the cached result of a rewrite plan (rewrite) or of
// the classic Grover pass (report).
type transformArtifact struct {
	report  *igrover.Report
	rewrite *rewrite.Report
	ir      string
}

// verdictArtifact is the cached result of one (job, device) tuning, without
// the winning kernel: that belongs to the tune's launch environment, which
// the cache must not keep alive.
type verdictArtifact struct{ grover.TuneResult }

// compile returns the cached compiled module for the program, compiling at
// most once across concurrent requests. On a miss the compile runs under
// the requesting context, so its pipeline stages land in that request's
// span list; hits and dedups record nothing.
func (s *Server) compile(ctx context.Context, p program) (*compiledArtifact, kcache.Outcome, error) {
	v, out, err := s.cache.Do(jobKey("compile", p), func() (interface{}, error) {
		mod, err := opencl.CompileModuleCtx(ctx, p.Name, p.Source, p.Defines)
		if err != nil {
			return nil, err
		}
		// Prepare a shared execution program from a clone (preparation
		// mutates the module; the artifact's module stays pristine for IR
		// rendering and transform cloning).
		prog, err := vm.PrepareCtx(ctx, ir.CloneModule(mod))
		if err != nil {
			return nil, err
		}
		// Compile the engine's bytecode now so it is cached with the
		// artifact rather than rebuilt per request.
		if _, err := prog.ExecutorCtx(ctx, s.backend); err != nil {
			return nil, err
		}
		art := &compiledArtifact{mod: mod, prog: prog, ir: mod.String()}
		for _, f := range mod.Kernels() {
			art.kernels = append(art.kernels, f.Name)
		}
		return art, nil
	})
	if err != nil {
		return nil, out, err
	}
	return v.(*compiledArtifact), out, nil
}

// compileKernel compiles the program and checks that it has the kernel,
// when one is named, returning an actionable 404 otherwise.
func (s *Server) compileKernel(ctx context.Context, p program, kernel string) (*compiledArtifact, error) {
	comp, _, err := s.compile(ctx, p)
	if err == nil && kernel != "" && comp.mod.Kernel(kernel) == nil {
		err = notFound("no kernel %q in program (available: %s)", kernel, strings.Join(comp.kernels, ", "))
	}
	return comp, err
}

// BuildArgs materializes checked arguments in a context, as groverd does
// for every autotune: buffer i gets the deterministic pseudo-random fill
// opencl.Pattern(size/4, i+1), since simulated timing depends on the
// access pattern, not the values.
func BuildArgs(ctx *opencl.Context, specs []ArgSpec) []interface{} {
	args := make([]interface{}, len(specs))
	for i, a := range specs {
		switch a.Kind {
		case "buffer":
			buf := ctx.NewBuffer(a.Size)
			buf.WriteFloat32(opencl.Pattern(a.Size/4, uint32(i+1)))
			args[i] = buf
		case "local":
			args[i] = opencl.LocalMem{Size: a.Size}
		case "int":
			args[i] = a.Int
		case "float":
			args[i] = a.Float
		}
	}
	return args
}

// verdictKeys are the cache addresses of the job's verdict on each device.
// The backend is in the job: the verdict is backend-invariant by the VM
// contract, but keeping the entries separate keeps the cache an honest
// record of what actually ran.
func verdictKeys(job *autotuneJob, devs []*opencl.Device) []string {
	key := jobKey("autotune", job)
	keys := make([]string, len(devs))
	for i, d := range devs {
		keys[i] = key + " " + d.Name()
	}
	return keys
}

// tuneSet computes the verdicts (*verdictArtifact) of a device set with
// grover.Tune.
func (s *Server) tuneSet(rctx context.Context, job *autotuneJob, devs []*opencl.Device) ([]interface{}, []error) {
	vals, errs := make([]interface{}, len(devs)), make([]error, len(devs))
	comp, err := s.compileKernel(rctx, job.program, job.Kernel)
	if err != nil {
		for i := range errs {
			errs[i] = err
		}
		return vals, errs
	}
	var opts grover.Options
	if job.Options != nil {
		opts = *job.Options
	}
	results := grover.Tune(rctx, devs, job.Kernel, grover.LaunchSpec{
		Program: func(ctx *opencl.Context) (*opencl.Program, error) {
			return ctx.NewProgramFromPrepared(job.Name, comp.prog), nil
		},
		Options: opts,
		ND:      opencl.NDRange{Global: job.Global, Local: job.Local},
		Args: func(ctx *opencl.Context) ([]interface{}, error) {
			defer telemetry.StartSpan(rctx, "service.args")()
			specs := make([]ArgSpec, len(job.Args))
			for i, a := range job.Args {
				specs[i] = ArgSpec(a)
			}
			return BuildArgs(ctx, specs), nil
		},
		Plans:   job.Plans,
		Profile: job.Profile,
	})

	var launches int64
	counted := map[*grover.LaunchSet]bool{}
	for i, r := range results {
		if r.Set != nil && !counted[r.Set] {
			counted[r.Set] = true
			launches += int64(r.Set.Launches)
		}
		if errs[i] = r.Err; r.Err == nil {
			art := &verdictArtifact{*r.Result}
			art.Kernel = nil
			vals[i] = art
		}
	}
	s.tune.recordBackend(s.backend, int64(len(devs)), launches)
	return vals, errs
}

func (v *verdictArtifact) verdict(device string, outcome kcache.Outcome) TuneVerdict {
	text := "keep local memory"
	if v.UseTransformed {
		text = "disable local memory"
	}
	if v.Plan != "" {
		text = "plan " + v.Plan
	}
	out := TuneVerdict{
		Device:         device,
		UseTransformed: v.UseTransformed,
		Verdict:        text,
		OriginalMS:     v.OriginalMS,
		TransformedMS:  v.TransformedMS,
		Speedup:        v.Speedup,
		Report:         renderReport(v.Report),
		Plan:           v.Plan,
		Rewrite:        renderRewrite(v.Rewrite),
		Cache:          outcome.String(),
	}
	for _, t := range v.PlanSearch {
		out.Plans = append(out.Plans, PlanResult{
			Plan: t.Plan, MS: t.MS, Applied: t.Applied, Error: t.Err, Profile: t.Profile,
		})
	}
	return out
}

// ------------------------------------------------------------- handlers

// stamped is a POST response: stamp sets its latency and, where it carries
// them, the spans its request recorded.
type stamped interface {
	stamp(ms float64, spans []telemetry.SpanJSON)
}

func (r *CompileResponse) stamp(ms float64, spans []telemetry.SpanJSON) {
	r.LatencyMS, r.Spans = ms, spans
}
func (r *TransformResponse) stamp(ms float64, spans []telemetry.SpanJSON) {
	r.LatencyMS, r.Spans = ms, spans
}
func (r *AutotuneResponse) stamp(ms float64, spans []telemetry.SpanJSON) {
	r.LatencyMS, r.Spans = ms, spans
}
func (r *LintResponse) stamp(ms float64, _ []telemetry.SpanJSON) { r.LatencyMS = ms }

// call runs an endpoint in process: normalize the request into the
// endpoint's job — which raises every 400 and 404 a request can earn before
// a compile — and handle the job on the worker pool, which computes the
// response and reports the cache outcomes it met. The job's error is
// returned as is.
func call[Req, Job, Resp any](ctx context.Context, s *Server, req *Req, normalize func(*Req) (Job, error),
	handle func(context.Context, *Req, Job) (Resp, []kcache.Outcome, error)) (Resp, error) {
	var resp Resp
	job, err := normalize(req)
	if err != nil {
		return resp, err
	}
	var outs []kcache.Outcome
	if perr := s.pool.RunCtx(ctx, func() { resp, outs, err = handle(ctx, req, job) }); perr != nil {
		return resp, perr
	}
	noteOutcome(ctx, outs...)
	return resp, err
}

// Compile is POST /v1/compile in process.
func (s *Server) Compile(ctx context.Context, req *CompileRequest) (*CompileResponse, error) {
	return call(ctx, s, req, normalizeCompile, s.handleCompile)
}

// Transform is POST /v1/transform in process.
func (s *Server) Transform(ctx context.Context, req *TransformRequest) (*TransformResponse, error) {
	return call(ctx, s, req, normalizeTransform, s.handleTransform)
}

// Autotune is POST /v1/autotune in process.
func (s *Server) Autotune(ctx context.Context, req *AutotuneRequest) (*AutotuneResponse, error) {
	return call(ctx, s, req, s.normalizeAutotune, s.handleAutotune)
}

// Lint is POST /v1/lint in process.
func (s *Server) Lint(ctx context.Context, req *LintRequest) (*LintResponse, error) {
	return call(ctx, s, req, normalizeLint, s.handleLint)
}

// Module is the module Compile compiles for req, from the same cached
// compile job; callers must treat it as read-only. It serves what no job
// computes, such as groverc's access summary.
func (s *Server) Module(ctx context.Context, req *CompileRequest) (*ir.Module, error) {
	comp, err := call(ctx, s, req, normalizeCompile, func(ctx context.Context, _ *CompileRequest, p program) (*compiledArtifact, []kcache.Outcome, error) {
		comp, out, err := s.compile(ctx, p)
		return comp, []kcache.Outcome{out}, err
	})
	if err != nil {
		return nil, err
	}
	return comp.mod, nil
}

// post serves a POST endpoint: decode the body, make the in-process call,
// and stamp and write its response.
func post[Req any, Resp stamped](call func(context.Context, *Req) (Resp, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		var req Req
		if err := decode(r, &req); err != nil {
			writeError(w, err)
			return
		}
		resp, err := call(r.Context(), &req)
		if err != nil {
			writeError(w, err)
			return
		}
		resp.stamp(float64(time.Since(start))/float64(time.Millisecond), telemetry.FromContext(r.Context()).JSON())
		writeJSON(w, http.StatusOK, resp)
	}
}

func (s *Server) handleCompile(ctx context.Context, req *CompileRequest, p program) (*CompileResponse, []kcache.Outcome, error) {
	comp, out, err := s.compile(ctx, p)
	if err != nil {
		return nil, []kcache.Outcome{out}, err
	}
	resp := &CompileResponse{Name: p.Name, Kernels: comp.kernels, Cache: out.String()}
	if req.WantIR {
		resp.IR = comp.ir
	}
	return resp, []kcache.Outcome{out}, nil
}

// handleTransform returns the cached rewrite-plan or Grover pass result.
func (s *Server) handleTransform(ctx context.Context, req *TransformRequest, job *transformJob) (*TransformResponse, []kcache.Outcome, error) {
	v, out, err := s.cache.Do(jobKey("transform", job), func() (interface{}, error) {
		comp, err := s.compileKernel(ctx, job.program, job.Kernel)
		if err != nil {
			return nil, err
		}
		end := telemetry.StartSpan(ctx, "rewrite.apply")
		if job.Plan != nil {
			mod, rep, err := rewrite.Apply(comp.mod, job.Kernel, job.Plan)
			end()
			if err != nil {
				return nil, err
			}
			return &transformArtifact{rewrite: rep, ir: mod.String()}, nil
		}
		mod, rep, err := rewrite.ApplyGrover(comp.mod, job.Kernel, *job.Options)
		end()
		if err != nil {
			return nil, err
		}
		return &transformArtifact{report: rep, ir: mod.String()}, nil
	})
	if err != nil {
		return nil, []kcache.Outcome{out}, err
	}
	art := v.(*transformArtifact)
	resp := &TransformResponse{Kernel: job.Kernel, Rewrite: renderRewrite(art.rewrite), Cache: out.String()}
	if art.rewrite != nil {
		resp.Plan, resp.Transformed = art.rewrite.Plan, art.rewrite.Changed()
	} else {
		resp.Transformed, resp.Report = art.report.Transformed(), renderReport(art.report)
	}
	if req.WantIR {
		resp.IR = art.ir
	}
	return resp, []kcache.Outcome{out}, nil
}

// handleAutotune returns every device's verdict, each cached under its own
// key and computed at most once across concurrent requests. The devices
// nobody holds a verdict for are tuned together as one device set — one
// execution per kernel version, charged to each device's cost model — so
// a partially warm request computes only what is missing.
func (s *Server) handleAutotune(ctx context.Context, _ *AutotuneRequest, t tuning) (*AutotuneResponse, []kcache.Outcome, error) {
	vals, outs, errs := s.cache.DoMany(verdictKeys(t.job, t.devs), func(miss []int) ([]interface{}, []error) {
		set := make([]*opencl.Device, len(miss))
		for j, i := range miss {
			set[j] = t.devs[i]
		}
		return s.tuneSet(ctx, t.job, set)
	})
	// A single-device failure is the request's failure (with its original
	// HTTP status); sweeps report per-device errors inline instead.
	if len(t.devs) == 1 && errs[0] != nil {
		return nil, outs, errs[0]
	}
	resp := &AutotuneResponse{Kernel: t.job.Kernel, Backend: s.backend, Results: make([]TuneVerdict, len(t.devs))}
	for i, d := range t.devs {
		if errs[i] != nil {
			resp.Results[i] = TuneVerdict{Device: d.Name(), Error: errs[i].Error()}
		} else {
			resp.Results[i] = vals[i].(*verdictArtifact).verdict(d.Name(), outs[i])
		}
	}
	return resp, outs, nil
}

// handleLint returns the cached static-analysis result: the job's plan,
// when set, rewrites each kernel in turn before the analyzers run.
func (s *Server) handleLint(ctx context.Context, _ *LintRequest, job *lintJob) (*LintResponse, []kcache.Outcome, error) {
	v, out, err := s.cache.Do(jobKey("lint", job), func() (interface{}, error) {
		comp, err := s.compileKernel(ctx, job.program, job.Kernel)
		if err != nil {
			return nil, err
		}
		mod := comp.mod
		if job.Plan != nil {
			for _, name := range comp.kernels {
				if job.Kernel != "" && name != job.Kernel {
					continue
				}
				if mod, _, err = rewrite.Apply(mod, name, job.Plan); err != nil {
					return nil, fmt.Errorf("plan %s on kernel %s: %w", job.Plan, name, err)
				}
			}
		}
		opts := analysis.Options{WorkGroupSize: job.Local, AccessChecks: job.Access}
		if job.Kernel == "" {
			return analysis.AnalyzeModule(mod, opts), nil
		}
		return analysis.AnalyzeKernel(mod.Kernel(job.Kernel), opts), nil
	})
	if err != nil {
		return nil, []kcache.Outcome{out}, err
	}
	res := v.(*analysis.Result)
	return &LintResponse{
		Name:        job.Name,
		Findings:    res.Findings,
		Legality:    res.Legality,
		MaxSeverity: string(res.MaxSeverity()),
		Cache:       out.String(),
	}, []kcache.Outcome{out}, nil
}

func (s *Server) handleDevices(w http.ResponseWriter, r *http.Request) {
	var out []DeviceInfo
	for _, d := range s.plat.Devices() {
		kind := "cpu"
		if d.IsGPU() {
			kind = "gpu"
		}
		out = append(out, DeviceInfo{
			Name: d.Name(), Kind: kind,
			ComputeUnits: d.ComputeUnits(), Profile: d.Profile(),
		})
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	verdicts, executions := s.tune.backendStats()
	endpoints := map[string]EndpointStats{}
	for _, ep := range s.endpoints {
		if st := ep.stats(); st.Requests > 0 {
			endpoints[ep.name] = st
		}
	}
	writeJSON(w, http.StatusOK, &StatsResponse{
		Cache:      s.cache.Snapshot(),
		Pool:       s.pool.Snapshot(),
		Backend:    s.backend,
		Backends:   verdicts,
		Executions: executions,
		Endpoints:  endpoints,
	})
}

// handleTraces serves the most recent finished request traces from the
// ring: ?n=k caps the count (default 20), ?min_ms=x keeps only traces at
// least that long — the "show me the slow requests" query.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	n := 20
	if v := r.URL.Query().Get("n"); v != "" {
		p, err := strconv.Atoi(v)
		if err != nil || p <= 0 {
			writeError(w, badRequest("n must be a positive integer, got %q", v))
			return
		}
		n = p
	}
	minMS := 0.0
	if v := r.URL.Query().Get("min_ms"); v != "" {
		p, err := strconv.ParseFloat(v, 64)
		if err != nil || p < 0 {
			writeError(w, badRequest("min_ms must be a non-negative number, got %q", v))
			return
		}
		minMS = p
	}
	traces := s.traces.Recent(n, minMS)
	writeJSON(w, http.StatusOK, &TracesResponse{
		Count:    len(traces),
		Buffered: s.traces.Len(),
		Traces:   traces,
	})
}

// handleMetrics serves the telemetry registry in Prometheus text
// exposition format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.WritePrometheus(w)
}

// handleHealthz reports readiness: 200 while the worker pool can make
// progress, 503 otherwise, with the pool and cache state either way.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	resp := &HealthResponse{
		Status: "ok",
		Pool:   s.pool.Snapshot(),
		Cache:  s.cache.Snapshot(),
	}
	code := http.StatusOK
	if !s.pool.Healthy() {
		resp.Status = "overloaded"
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, resp)
}
