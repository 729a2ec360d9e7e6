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
	"grover/internal/opt"
	"grover/internal/rewrite"
	"grover/internal/telemetry"
	"grover/internal/telemetry/aiwc"
	"grover/internal/vm"
	"grover/opencl"
)

// compiledArtifact is the cached result of a compile: the pristine
// device-independent module plus a prepared VM program shared across
// requests via Context.NewProgramFromPrepared. Backend bytecode compiled
// for the prepared program (eagerly for the server's default backend,
// lazily for request overrides) is cached inside it, so the kcache entry
// holds the bytecode alongside the module and each program is compiled
// once no matter how many requests execute it.
type compiledArtifact struct {
	mod     *ir.Module
	prog    *vm.Program
	kernels []string
	ir      string
}

// transformArtifact is the cached result of a Grover pass or rewrite-plan
// run.
type transformArtifact struct {
	report *igrover.Report
	// rewrite is set for plan-based transforms; plan is the canonical plan
	// string.
	rewrite *rewrite.Report
	plan    string
	ir      string
}

// lintArtifact is the cached result of a static-analysis run.
type lintArtifact struct {
	res *analysis.Result
}

// verdictArtifact is the cached result of one (request, device) tuning.
type verdictArtifact struct {
	useTransformed bool
	origMS         float64
	transMS        float64
	speedup        float64
	report         *igrover.Report
	// plan, search and rewriteRep are set when the tuning was a plan
	// search.
	plan       string
	search     []grover.PlanTiming
	rewriteRep *rewrite.Report
	// char carries the kernel feature vectors when the request asked for
	// characterization.
	char *Characterization
}

func programName(name string) string {
	if name == "" {
		return "kernel.cl"
	}
	return name
}

// compile returns the cached compiled module for (source, defines),
// compiling at most once across concurrent requests. On a miss the
// compile runs under the requesting context, so its pipeline stages land
// in that request's span list; hits and dedups record nothing.
func (s *Server) compile(ctx context.Context, name, source string, defines map[string]string) (*compiledArtifact, kcache.Outcome, error) {
	key := kcache.Key("compile", source, kcache.DefinesField(defines))
	v, out, err := s.cache.Do(key, func() (interface{}, error) {
		mod, err := opencl.CompileModuleCtx(ctx, programName(name), source, defines)
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
		if s.backend != vm.BackendInterp {
			// Compile the default backend's bytecode now so it is cached
			// with the artifact rather than rebuilt per request.
			if _, err := prog.ExecutorCtx(ctx, s.backend); err != nil {
				return nil, err
			}
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

// kernelIn checks that the compiled module contains the kernel, returning
// an actionable 404 otherwise.
func kernelIn(comp *compiledArtifact, kernel string) error {
	if comp.mod.Kernel(kernel) == nil {
		return notFound("no kernel %q in program (available: %s)",
			kernel, strings.Join(comp.kernels, ", "))
	}
	return nil
}

// transform returns the cached Grover pass (or rewrite plan) result for
// the request. The canonical plan string is a key field alongside the
// full option set, so distinct plans — and a plan versus the classic
// options path — can never collide on one artifact.
func (s *Server) transform(ctx context.Context, req *TransformRequest) (*transformArtifact, kcache.Outcome, error) {
	var plan *rewrite.Plan
	planField := ""
	if req.Plan != "" {
		var err error
		if plan, err = rewrite.ParsePlan(req.Plan); err != nil {
			return nil, kcache.Miss, badRequest("%v", err)
		}
		planField = plan.String()
	}
	key := kcache.Key("transform", req.Source, kcache.DefinesField(req.Defines),
		req.Kernel, req.Options.field(), "plan="+planField)
	v, out, err := s.cache.Do(key, func() (interface{}, error) {
		comp, _, err := s.compile(ctx, req.Name, req.Source, req.Defines)
		if err != nil {
			return nil, err
		}
		if err := kernelIn(comp, req.Kernel); err != nil {
			return nil, err
		}
		if plan != nil {
			end := telemetry.StartSpan(ctx, "rewrite.apply")
			mod, rep, err := rewrite.Apply(comp.mod, req.Kernel, plan)
			end()
			if err != nil {
				return nil, err
			}
			return &transformArtifact{rewrite: rep, plan: rep.Plan, ir: mod.String()}, nil
		}
		end := telemetry.StartSpan(ctx, "grover.transform")
		clone := ir.CloneModule(comp.mod)
		rep, err := igrover.TransformKernel(clone, req.Kernel, req.Options.options())
		end()
		if err != nil {
			return nil, err
		}
		end = telemetry.StartSpan(ctx, "opt")
		opt.Optimize(clone)
		end()
		return &transformArtifact{report: rep, ir: clone.String()}, nil
	})
	if err != nil {
		return nil, out, err
	}
	return v.(*transformArtifact), out, nil
}

// lint returns the cached static-analysis result for the request.
func (s *Server) lint(ctx context.Context, req *LintRequest) (*lintArtifact, kcache.Outcome, error) {
	key := kcache.Key("lint", req.Source, kcache.DefinesField(req.Defines),
		req.Kernel, fmt.Sprintf("l=%v", req.Local))
	v, out, err := s.cache.Do(key, func() (interface{}, error) {
		comp, _, err := s.compile(ctx, req.Name, req.Source, req.Defines)
		if err != nil {
			return nil, err
		}
		opts := analysis.Options{WorkGroupSize: req.Local}
		if req.Kernel != "" {
			if err := kernelIn(comp, req.Kernel); err != nil {
				return nil, err
			}
			return &lintArtifact{res: analysis.AnalyzeKernel(comp.mod.Kernel(req.Kernel), opts)}, nil
		}
		return &lintArtifact{res: analysis.AnalyzeModule(comp.mod, opts)}, nil
	})
	if err != nil {
		return nil, out, err
	}
	return v.(*lintArtifact), out, nil
}

// launchField canonicalizes the launch geometry and arguments for keying.
func launchField(req *AutotuneRequest) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "g=%v;l=%v;runs=%d;", req.Global, req.Local, req.Runs)
	for _, a := range req.Args {
		sb.WriteString(a.field())
		sb.WriteByte(';')
	}
	return sb.String()
}

// maxRuns bounds the timed executions a request may ask for per kernel
// version: each one is a full launch on a pool worker.
const maxRuns = 1000

// maxBufferBytes bounds one declared buffer or local argument. Device memory
// grows on demand and both engines allocate a local argument's bytes per
// work-group, so without a cap a single request could balloon the daemon;
// 64 MiB is far beyond any scaled benchmark dataset.
const maxBufferBytes = 64 << 20

// buildArgs materializes the declared arguments in a context. Buffers get
// a deterministic pseudo-random fill: simulated timing depends on the
// access pattern, not the values.
func buildArgs(ctx *opencl.Context, specs []ArgSpec) ([]interface{}, error) {
	args := make([]interface{}, len(specs))
	for i, a := range specs {
		switch a.Kind {
		case "buffer":
			if a.Size <= 0 {
				return nil, badRequest("arg %d: buffer needs a positive size", i)
			}
			if a.Size > maxBufferBytes {
				return nil, badRequest("arg %d: buffer size %d exceeds the %d-byte limit", i, a.Size, maxBufferBytes)
			}
			buf := ctx.NewBuffer(a.Size)
			buf.WriteFloat32(opencl.Pattern(a.Size/4, uint32(i+1)))
			args[i] = buf
		case "local":
			if a.Size <= 0 {
				return nil, badRequest("arg %d: local needs a positive size", i)
			}
			if a.Size > maxBufferBytes {
				return nil, badRequest("arg %d: local size %d exceeds the %d-byte limit", i, a.Size, maxBufferBytes)
			}
			args[i] = opencl.LocalMem{Size: a.Size}
		case "int":
			args[i] = a.Int
		case "float":
			args[i] = a.Float
		default:
			return nil, badRequest("arg %d: unknown kind %q (want buffer, local, int or float)", i, a.Kind)
		}
	}
	return args, nil
}

// autotuneKey is the cache address of the tuning verdict for (request,
// device, backend). The backend is part of the key: the verdict is
// backend-invariant by the VM contract, but keeping the entries separate
// keeps the cache an honest record of what actually ran.
func autotuneKey(req *AutotuneRequest, devName, backend string, plans []string) string {
	return kcache.Key("autotune", req.Source, kcache.DefinesField(req.Defines),
		req.Kernel, req.Options.field(), devName, backend, launchField(req),
		fmt.Sprintf("char=%t", req.Characterize), "plans="+strings.Join(plans, "|"),
		fmt.Sprintf("profile=%t", req.Profile))
}

// autotuneDevices returns the tuning verdict of every named device, each
// cached under its own key and computed at most once across concurrent
// requests. The devices nobody holds a verdict for are tuned together as
// one device set — one execution per kernel version, charged to each
// device's cost model (tuneSet) — so a partially warm request computes
// only what is missing.
func (s *Server) autotuneDevices(rctx context.Context, req *AutotuneRequest, devices []string,
	backend string, plans []string) ([]*verdictArtifact, []kcache.Outcome, []error) {
	keys := make([]string, len(devices))
	for i, name := range devices {
		keys[i] = autotuneKey(req, name, backend, plans)
	}
	vals, outs, errs := s.cache.DoMany(keys, func(miss []int) ([]interface{}, []error) {
		names := make([]string, len(miss))
		for j, i := range miss {
			names[j] = devices[i]
		}
		arts, errs := s.tuneSet(rctx, req, names, backend, plans)
		vals := make([]interface{}, len(arts))
		for j, art := range arts {
			if errs[j] == nil {
				vals[j] = art
			}
		}
		return vals, errs
	})
	arts := make([]*verdictArtifact, len(devices))
	for i, v := range vals {
		if errs[i] == nil {
			arts[i] = v.(*verdictArtifact)
		}
	}
	return arts, outs, errs
}

// tuneSet computes the verdicts of a device set (grover.Tune).
func (s *Server) tuneSet(rctx context.Context, req *AutotuneRequest, devices []string,
	backend string, plans []string) ([]*verdictArtifact, []error) {
	arts, errs := make([]*verdictArtifact, len(devices)), make([]error, len(devices))
	failAll := func(err error) ([]*verdictArtifact, []error) {
		for i := range errs {
			errs[i] = err
		}
		return arts, errs
	}
	comp, _, err := s.compile(rctx, req.Name, req.Source, req.Defines)
	if err != nil {
		return failAll(err)
	}
	if err := kernelIn(comp, req.Kernel); err != nil {
		return failAll(err)
	}
	devs := make([]*opencl.Device, len(devices))
	for i, name := range devices {
		if devs[i], err = s.plat.DeviceByName(name); err != nil {
			return failAll(notFound("%v", err))
		}
	}
	nd := opencl.NDRange{Global: req.Global, Local: req.Local}
	results := grover.Tune(rctx, devs, req.Kernel, grover.LaunchSpec{
		Program: func(ctx *opencl.Context) (*opencl.Program, error) {
			if err := ctx.SetBackend(backend); err != nil {
				return nil, badRequest("%v", err)
			}
			return ctx.NewProgramFromPrepared(programName(req.Name), comp.prog), nil
		},
		Options: req.Options.options(),
		ND:      nd,
		Runs:    req.Runs,
		Args: func(ctx *opencl.Context) ([]interface{}, error) {
			return buildArgs(ctx, req.Args)
		},
		Plans:   plans,
		Profile: req.Profile,
	})

	var launches int64
	counted := map[*grover.LaunchSet]bool{}
	for i, r := range results {
		if r.Set != nil && !counted[r.Set] {
			counted[r.Set] = true
			launches += int64(r.Set.Launches)
		}
		if errs[i] = r.Err; r.Err != nil {
			continue
		}
		res := r.Result
		arts[i] = &verdictArtifact{
			useTransformed: res.UseTransformed,
			origMS:         res.OriginalMS,
			transMS:        res.TransformedMS,
			speedup:        res.Speedup,
			report:         res.Report,
			plan:           res.Plan,
			search:         res.PlanSearch,
			rewriteRep:     res.Rewrite,
		}
	}
	s.tune.recordBackend(backend, int64(len(devices)), launches)
	if req.Characterize {
		characterizeVerdicts(rctx, results, arts, errs, nd)
	}
	return arts, errs
}

// characterizeVerdicts attaches the AIWC-style feature vectors of each
// verdict's two kernel versions. The vectors are the kernels' — backend-
// and device-invariant — so each distinct kernel of the set is traced
// once, in the launch environment it was tuned in, and every verdict that
// names it shares the result.
func characterizeVerdicts(rctx context.Context, results []grover.DeviceTuneResult,
	arts []*verdictArtifact, errs []error, nd opencl.NDRange) {
	defer telemetry.StartSpan(rctx, "characterize")()
	type version struct {
		prog   *vm.Program
		kernel string
	}
	done := map[version]*aiwc.Features{}
	characterize := func(k *opencl.Kernel, args []interface{}) (*aiwc.Features, error) {
		if k == nil {
			return nil, nil
		}
		v := version{k.Program().VM(), k.Name()}
		if f := done[v]; f != nil {
			return f, nil
		}
		f, err := k.Characterize(nd, args...)
		if err != nil {
			return nil, fmt.Errorf("characterize %s: %w", v.prog.Module.Name, err)
		}
		done[v] = f
		return f, nil
	}
	for i, r := range results {
		if errs[i] != nil {
			continue
		}
		char := &Characterization{}
		var err error
		if char.Original, err = characterize(r.Result.Original, r.Set.Args); err == nil {
			char.Transformed, err = characterize(r.Result.Transformed, r.Set.Args)
		}
		if err != nil {
			arts[i], errs[i] = nil, err
			continue
		}
		arts[i].char = char
	}
}

func (v *verdictArtifact) verdict(device string, outcome kcache.Outcome) TuneVerdict {
	text := "keep local memory"
	if v.useTransformed {
		text = "disable local memory"
	}
	if v.plan != "" {
		text = "plan " + v.plan
	}
	out := TuneVerdict{
		Device:           device,
		UseTransformed:   v.useTransformed,
		Verdict:          text,
		OriginalMS:       v.origMS,
		TransformedMS:    v.transMS,
		Speedup:          v.speedup,
		Report:           renderReport(v.report),
		Plan:             v.plan,
		Rewrite:          renderRewrite(v.rewriteRep),
		Cache:            outcome.String(),
		Characterization: v.char,
	}
	for _, t := range v.search {
		out.Plans = append(out.Plans, PlanResult{
			Plan: t.Plan, MS: t.MS, Applied: t.Applied, Error: t.Err, Profile: t.Profile,
		})
	}
	return out
}

// ------------------------------------------------------------- handlers

func (s *Server) handleCompile(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	var req CompileRequest
	if err := decode(r, &req); err != nil {
		writeError(w, err)
		return
	}
	if req.Source == "" {
		writeError(w, badRequest("source is required"))
		return
	}
	var (
		comp *compiledArtifact
		out  kcache.Outcome
		err  error
	)
	if perr := s.pool.RunCtx(r.Context(), func() {
		comp, out, err = s.compile(r.Context(), req.Name, req.Source, req.Defines)
	}); perr != nil {
		writeError(w, perr)
		return
	}
	noteOutcome(r.Context(), out)
	if err != nil {
		writeError(w, err)
		return
	}
	resp := &CompileResponse{
		Name:      programName(req.Name),
		Kernels:   comp.kernels,
		Cache:     out.String(),
		LatencyMS: float64(time.Since(start)) / float64(time.Millisecond),
		Spans:     telemetry.FromContext(r.Context()).JSON(),
	}
	if req.WantIR {
		resp.IR = comp.ir
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleTransform(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	var req TransformRequest
	if err := decode(r, &req); err != nil {
		writeError(w, err)
		return
	}
	if req.Source == "" || req.Kernel == "" {
		writeError(w, badRequest("source and kernel are required"))
		return
	}
	var (
		art *transformArtifact
		out kcache.Outcome
		err error
	)
	if perr := s.pool.RunCtx(r.Context(), func() {
		art, out, err = s.transform(r.Context(), &req)
	}); perr != nil {
		writeError(w, perr)
		return
	}
	noteOutcome(r.Context(), out)
	if err != nil {
		writeError(w, err)
		return
	}
	resp := &TransformResponse{
		Kernel:    req.Kernel,
		Plan:      art.plan,
		Rewrite:   renderRewrite(art.rewrite),
		Cache:     out.String(),
		LatencyMS: float64(time.Since(start)) / float64(time.Millisecond),
		Spans:     telemetry.FromContext(r.Context()).JSON(),
	}
	if art.rewrite != nil {
		resp.Transformed = art.rewrite.Changed()
	} else {
		resp.Transformed = art.report.Transformed()
		resp.Report = renderReport(art.report)
	}
	if req.WantIR {
		resp.IR = art.ir
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleAutotune(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	var req AutotuneRequest
	if err := decode(r, &req); err != nil {
		writeError(w, err)
		return
	}
	if req.Source == "" || req.Kernel == "" {
		writeError(w, badRequest("source and kernel are required"))
		return
	}
	backend := req.Backend
	if backend == "" {
		backend = s.backend
	}
	if !vm.ValidBackend(backend) {
		writeError(w, badRequest("unknown backend %q (available: %s)",
			backend, strings.Join(vm.Backends(), ", ")))
		return
	}
	// Resolve the plan list up front: "search" enumerates the default
	// space for this launch geometry, anything else is "|"-separated
	// plans, each validated and canonicalized here so malformed plans are
	// a 400 and the cache key is spelling-independent.
	var plans []string
	if req.Plan == "search" {
		plans = grover.DefaultPlanSpace(req.Local)
	} else if req.Plan != "" {
		for _, ps := range strings.Split(req.Plan, "|") {
			p, err := rewrite.ParsePlan(ps)
			if err != nil {
				writeError(w, badRequest("%v", err))
				return
			}
			plans = append(plans, p.String())
		}
	}
	// Tune times a version once for any runs <= 0: key those requests
	// alike.
	if req.Runs <= 0 {
		req.Runs = 1
	}
	if req.Runs > maxRuns {
		writeError(w, badRequest("runs %d exceeds the limit of %d", req.Runs, maxRuns))
		return
	}
	if req.Profile && len(plans) == 0 {
		writeError(w, badRequest("profile requires a plan search (set plan)"))
		return
	}
	// Resolve the device list up front so an unknown name is a 404 with
	// the available devices, before any compile work is queued.
	var devices []string
	if req.Device == "" || req.Device == "all" {
		for _, d := range s.plat.Devices() {
			devices = append(devices, d.Name())
		}
	} else {
		if _, err := s.plat.DeviceByName(req.Device); err != nil {
			writeError(w, notFound("%v", err))
			return
		}
		devices = []string{req.Device}
	}

	results := make([]TuneVerdict, len(devices))
	var outcomes []kcache.Outcome
	var errs []error
	if perr := s.pool.RunCtx(r.Context(), func() {
		// A sweep is one unit of queued work: its devices are tuned
		// together, from one execution per kernel version.
		var arts []*verdictArtifact
		arts, outcomes, errs = s.autotuneDevices(r.Context(), &req, devices, backend, plans)
		for i, name := range devices {
			if errs[i] != nil {
				results[i] = TuneVerdict{Device: name, Error: errs[i].Error()}
				continue
			}
			results[i] = arts[i].verdict(name, outcomes[i])
		}
	}); perr != nil {
		writeError(w, perr)
		return
	}
	noteOutcome(r.Context(), outcomes...)
	// A single-device failure is the request's failure (with its original
	// HTTP status); sweeps report per-device errors inline instead.
	if len(devices) == 1 && errs[0] != nil {
		writeError(w, errs[0])
		return
	}
	writeJSON(w, http.StatusOK, &AutotuneResponse{
		Kernel:    req.Kernel,
		Backend:   backend,
		Results:   results,
		LatencyMS: float64(time.Since(start)) / float64(time.Millisecond),
		Spans:     telemetry.FromContext(r.Context()).JSON(),
	})
}

func (s *Server) handleLint(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	var req LintRequest
	if err := decode(r, &req); err != nil {
		writeError(w, err)
		return
	}
	if req.Source == "" {
		writeError(w, badRequest("source is required"))
		return
	}
	var (
		art *lintArtifact
		out kcache.Outcome
		err error
	)
	if perr := s.pool.RunCtx(r.Context(), func() {
		art, out, err = s.lint(r.Context(), &req)
	}); perr != nil {
		writeError(w, perr)
		return
	}
	noteOutcome(r.Context(), out)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, &LintResponse{
		Name:        programName(req.Name),
		Findings:    art.res.Findings,
		Legality:    art.res.Legality,
		MaxSeverity: string(art.res.MaxSeverity()),
		Cache:       out.String(),
		LatencyMS:   float64(time.Since(start)) / float64(time.Millisecond),
	})
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
