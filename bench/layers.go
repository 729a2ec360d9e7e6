package main

// Every call the benchmark makes into a layer of the system for the traced
// run lives in this file, so a change to a layer's exported entry point
// has one place to follow. Each adapter wraps the call in a span named in
// ROADMAP's ledger vocabulary and records the exact counts the layer
// produces at the same boundary.

import (
	"context"
	"fmt"
	"sync"
	"time"

	"grover"
	"grover/internal/analysis"
	"grover/internal/apps"
	"grover/internal/clc"
	"grover/internal/device"
	igrover "grover/internal/grover"
	"grover/internal/harness"
	"grover/internal/ir"
	"grover/internal/kcache"
	"grover/internal/lower"
	"grover/internal/opt"
	"grover/internal/profit"
	"grover/internal/rewrite"
	"grover/internal/service"
	"grover/internal/telemetry/aiwc"
	"grover/internal/vm"
	"grover/opencl"
)

// backend is the one engine every end-to-end number runs on.
const backend = "wgvec"

// engineNames are the engines with per-layer rows. One that is no longer
// registered reports zeros, so deleting an engine removes its numbers and
// no gate.
var engineNames = []string{"interp", "bcode", "wgvec", "jit"}

// quickLaunch is the simulated-launch time below which a probe is
// repeated three times and the minimum kept; slower launches are probed
// once, because repeating a matmul would triple the traced run.
const quickLaunch = 50 * time.Millisecond

// tracer collects the spans, exact counts and probe sums of a traced run.
type tracer struct {
	rec *recorder
	// engine runs the replayed launches: the pinned one, except when the
	// golden update runs the interpreter as the oracle.
	engine string

	mu     sync.Mutex
	counts map[string]float64
}

func newTracer() *tracer {
	return &tracer{rec: newRecorder(), engine: backend, counts: map[string]float64{}}
}

func (t *tracer) add(name string, v float64) {
	t.mu.Lock()
	t.counts[name] += v
	t.mu.Unlock()
}

func countInstrs(m *ir.Module) float64 {
	n := 0
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			n += len(b.Instrs)
		}
	}
	return float64(n)
}

// ---------------------------------------------------------------- front end

// compileModule is opencl.CompileModule taken apart: parse (preprocess,
// lex, parse, sema), lower, optimize.
func (t *tracer) compileModule(p spanRef, name, src string, defines map[string]string) (*ir.Module, error) {
	sp := p.child("clc.parse")
	f, err := clc.ParseCtx(context.Background(), name, src, defines)
	sp.end()
	if err != nil {
		return nil, err
	}
	t.add("clc.src_bytes", float64(len(src)))
	sp = p.child("lower.module")
	mod, err := lower.Module(f)
	sp.end()
	if err != nil {
		return nil, err
	}
	t.add("lower.ir_instrs", countInstrs(mod))
	t.optimize(p, mod)
	t.add("opt.ir_instrs_after", countInstrs(mod))
	return mod, nil
}

func (t *tracer) optimize(p spanRef, mod *ir.Module) {
	sp := p.child("opt.optimize")
	opt.Optimize(mod)
	sp.end()
}

func (t *tracer) clone(p spanRef, mod *ir.Module) *ir.Module {
	sp := p.child("ir.clone")
	c := ir.CloneModule(mod)
	sp.end()
	return c
}

func (t *tracer) print(p spanRef, mod *ir.Module) {
	sp := p.child("ir.print")
	_ = mod.String()
	sp.end()
}

func (t *tracer) prepare(p spanRef, mod *ir.Module) (*vm.Program, error) {
	sp := p.child("vm.prepare")
	prog, err := vm.PrepareCtx(context.Background(), mod)
	sp.end()
	return prog, err
}

// compileEngine compiles prog for the engine; launches would otherwise do
// it lazily inside their first call. The interpreter has nothing to compile.
func (t *tracer) compileEngine(p spanRef, prog *vm.Program) error {
	if t.engine == vm.BackendInterp {
		return nil
	}
	sp := p.child("wgvec.compile")
	_, err := prog.ExecutorCtx(context.Background(), t.engine)
	sp.end()
	return err
}

// groverTransform is Program.WithLocalMemoryDisabled without the final
// prepare: clone, the Grover pass, the clean-up optimization.
func (t *tracer) groverTransform(p spanRef, mod *ir.Module, kernel string, opts igrover.Options) (*ir.Module, *igrover.Report, error) {
	c := t.clone(p, mod)
	sp := p.child("grover.transform")
	rep, err := igrover.TransformKernel(c, kernel, opts)
	sp.end()
	if err != nil {
		return nil, rep, err
	}
	t.add("grover.candidates", float64(len(rep.Candidates)))
	t.add("grover.applied", float64(appliedCandidates(rep)))
	t.optimize(p, c)
	t.add("grover.ir_instrs_after", countInstrs(c))
	return c, rep, nil
}

func appliedCandidates(rep *igrover.Report) int {
	n := 0
	for _, c := range rep.Candidates {
		if c.Transformed {
			n++
		}
	}
	return n
}

// rewriteApply runs one plan. A plan that fails or changes nothing counts
// as rejected: the search does not time it.
func (t *tracer) rewriteApply(p spanRef, mod *ir.Module, kernel string, plan *rewrite.Plan) (*ir.Module, *rewrite.Report, error) {
	sp := p.child("rewrite.apply")
	out, rep, err := rewrite.Apply(mod, kernel, plan)
	sp.end()
	if err != nil || !rep.Changed() {
		t.add("rewrite.plans_rejected", 1)
	} else {
		t.add("rewrite.plans_applied", 1)
	}
	return out, rep, err
}

func (t *tracer) lint(p spanRef, fn *ir.Function, local [3]int) *analysis.Result {
	sp := p.child("analysis.lint")
	res := analysis.AnalyzeKernel(fn, analysis.Options{WorkGroupSize: local})
	sp.end()
	t.add("analysis.findings", float64(len(res.Findings)))
	return res
}

// ---------------------------------------------------------------- launches

// launch is one kernel launch on one device context.
type launch struct {
	prog   *vm.Program
	kernel string
	cfg    vm.Config
	mem    *vm.GlobalMem
	prof   *device.Profile
}

func (l launch) items() float64 {
	n := 1.0
	for _, d := range l.cfg.GlobalSize {
		if d > 1 {
			n *= float64(d)
		}
	}
	return n
}

// execUntraced is a functional launch, as the validation step makes it.
func (t *tracer) execUntraced(p spanRef, l launch) error {
	sp := p.child("vm.exec")
	err := l.prog.Launch(l.kernel, l.cfg, l.mem, nil)
	sp.end()
	return err
}

// pendingProbe is a simulated launch to be split by probes once its op's
// root span has closed: the memory it started from and how long it took.
type pendingProbe struct {
	l      launch
	before []byte
	took   time.Duration
	// contended marks a launch that shared the cores with other device
	// goroutines: its own time is no sample of the simulated launch.
	contended bool
}

// simulate is a profiling-queue launch: reset the simulator, launch
// through its tracers, collect the result.
func (t *tracer) simulate(p spanRef, l launch, sim *device.Simulator) (launchStats, pendingProbe, error) {
	pp := pendingProbe{l: l, before: append([]byte(nil), l.mem.Data...)}
	sp := p.child("device.launch")
	sim.Reset()
	err := l.prog.Launch(l.kernel, l.cfg, l.mem, sim.Opts())
	pp.took = sp.end()
	if err != nil {
		return launchStats{}, pp, err
	}
	sp = p.child("device.result")
	res := sim.Result()
	sp.end()
	st := statsOf(res)
	t.add("device.accesses", float64(st.Accesses))
	t.add("device.transactions", float64(st.Transactions))
	t.add("device.sim_cycles", float64(st.Cycles))
	t.add("memsim.dram_accesses", float64(st.DRAM))
	for _, c := range st.Caches {
		t.add("memsim.cache_accesses", float64(c.Accesses))
		t.add("memsim.cache_hits", float64(c.Hits))
	}
	return st, pp, nil
}

// noopTracer receives every access and does nothing, so a launch through
// it costs engine execution plus trace delivery and no simulation.
type noopTracer struct{}

func (noopTracer) GroupBegin([3]int, int)                   {}
func (noopTracer) Access(*ir.Instr, int, uint64, int, bool) {}
func (noopTracer) Barrier(int)                              {}
func (noopTracer) Instrs(int, int64)                        {}
func (noopTracer) GroupEnd()                                {}

func noopTracerFor(int) vm.Tracer { return noopTracer{} }

func minDur(a, b time.Duration) time.Duration {
	if b < a {
		return b
	}
	return a
}

// clampSub is a − b in nanoseconds, or 0 when noise makes it negative.
func clampSub(a, b time.Duration) float64 {
	if a > b {
		return float64(a - b)
	}
	return 0
}

func restore(mem *vm.GlobalMem, snapshot []byte) { copy(mem.Data, snapshot) }

// timedProbe runs f inside a probe span and returns how long it took.
func (t *tracer) timedProbe(op int, name string, f func() error) (time.Duration, error) {
	sp := t.rec.probe(op, name)
	err := f()
	return sp.end(), err
}

// never is longer than any launch: the start value of a running minimum.
const never = time.Duration(1<<63 - 1)

// probe splits one simulated launch three ways by launching the same
// prepared kernel from the same memory untraced, through the no-op tracer
// and through the simulator, on the simulator's worker count:
// engine = untraced, trace delivery = no-op − untraced, simulator =
// simulated − no-op, each difference clamped at zero.
func (t *tracer) probe(op int, pp pendingProbe) error {
	reps := 1
	if pp.took < quickLaunch {
		reps = 3
	}
	l := pp.l
	sim, err := device.NewSimulator(l.prof)
	if err != nil {
		return err
	}
	untraced, noop, simulated := never, never, pp.took
	if pp.contended {
		simulated = never
	}
	for i := 0; i < reps; i++ {
		restore(l.mem, pp.before)
		d, err := t.timedProbe(op, "probe.untraced", func() error {
			return l.prog.Launch(l.kernel, l.cfg, l.mem, &vm.LaunchOpts{Workers: l.prof.Cores})
		})
		if err != nil {
			return err
		}
		untraced = minDur(untraced, d)
		restore(l.mem, pp.before)
		d, err = t.timedProbe(op, "probe.noop", func() error {
			return l.prog.Launch(l.kernel, l.cfg, l.mem,
				&vm.LaunchOpts{Workers: l.prof.Cores, TracerFor: noopTracerFor})
		})
		if err != nil {
			return err
		}
		noop = minDur(noop, d)
		if i == 0 && !pp.contended {
			continue // the op's own launch is the first simulated sample
		}
		restore(l.mem, pp.before)
		d, err = t.timedProbe(op, "probe.sim", func() error {
			sim.Reset()
			return l.prog.Launch(l.kernel, l.cfg, l.mem, sim.Opts())
		})
		if err != nil {
			return err
		}
		simulated = minDur(simulated, d)
	}
	t.add("probe.untraced_ns", float64(untraced))
	t.add("probe.delivery_ns", clampSub(noop, untraced))
	t.add("probe.sim_ns", clampSub(simulated, noop))
	t.add("probe.items", l.items())
	return nil
}

// ---------------------------------------------------------------- sweep cell

// instantiate sets an app up on a fresh context of dev and returns the
// context's memory and the launch configuration for the engine.
func instantiate(app *apps.App, dev *opencl.Device, engine string) (*apps.Instance, *vm.GlobalMem, vm.Config, error) {
	ctx := opencl.NewContext(dev)
	inst, err := app.Setup(ctx, 1)
	if err != nil {
		return nil, nil, vm.Config{}, err
	}
	vargs, err := opencl.VMArgs(inst.Args...)
	if err != nil {
		return nil, nil, vm.Config{}, err
	}
	return inst, ctx.Mem(), vm.Config{GlobalSize: inst.ND.Global, LocalSize: inst.ND.Local,
		Args: vargs, Backend: engine}, nil
}

// cellResult is what a sweep cell produces, from either path.
type cellResult struct {
	withLM, withoutLM launchStats
	verdict           string
	applied           int
}

// replayCell performs harness.RunCase(app, dev, {Validate: true}) step by
// step: compile, prepare, Grover pass, prepare, set-up, both versions
// launched untraced and checked against the host reference, both versions
// launched through the device simulator. Probes follow the op.
func (t *tracer) replayCell(op int, app *apps.App, devName string) (cellResult, error) {
	root := t.rec.root(op, "harness.cell")
	res, probes, err := t.cellSteps(root, app, devName)
	root.end()
	if err != nil {
		return res, err
	}
	for _, pp := range probes {
		if err := t.probe(op, pp); err != nil {
			return res, err
		}
	}
	return res, nil
}

func (t *tracer) cellSteps(root spanRef, app *apps.App, devName string) (cellResult, []pendingProbe, error) {
	var res cellResult
	dev, err := opencl.NewPlatform().DeviceByName(devName)
	if err != nil {
		return res, nil, err
	}
	mod, err := t.compileModule(root, app.ID+".cl", app.Source, app.Defines)
	if err != nil {
		return res, nil, err
	}
	progLM, err := t.prepare(root, mod)
	if err != nil {
		return res, nil, err
	}
	noLM, rep, err := t.groverTransform(root, mod, app.Kernel,
		igrover.Options{Candidates: app.Candidates, Strict: true})
	if err != nil {
		return res, nil, err
	}
	res.applied = appliedCandidates(rep)
	progNo, err := t.prepare(root, noLM)
	if err != nil {
		return res, nil, err
	}
	sp := root.child("apps.setup")
	inst, mem, cfg, err := instantiate(app, dev, t.engine)
	sp.end()
	if err != nil {
		return res, nil, err
	}
	versions := []launch{
		{prog: progLM, kernel: app.Kernel, cfg: cfg, mem: mem, prof: dev.CostModel()},
		{prog: progNo, kernel: app.Kernel, cfg: cfg, mem: mem, prof: dev.CostModel()},
	}
	for _, l := range versions {
		if err := t.compileEngine(root, l.prog); err != nil {
			return res, nil, err
		}
		if err := t.execUntraced(root, l); err != nil {
			return res, nil, err
		}
		sp := root.child("apps.check")
		err := inst.Check()
		sp.end()
		if err != nil {
			return res, nil, err
		}
	}
	sim, err := device.NewSimulator(dev.CostModel())
	if err != nil {
		return res, nil, err
	}
	var probes []pendingProbe
	for i, l := range versions {
		st, pp, err := t.simulate(root, l, sim)
		if err != nil {
			return res, nil, err
		}
		probes = append(probes, pp)
		if i == 0 {
			res.withLM = st
		} else {
			res.withoutLM = st
		}
	}
	m := harness.Measurement{NP: res.withLM.TimeMS / res.withoutLM.TimeMS}
	res.verdict = m.Classify().String()
	return res, probes, nil
}

// ---------------------------------------------------------------- plan search

// fill is the service's deterministic buffer fill (internal/service
// buildArgs); the replay must start from the same bytes to reproduce the
// service's simulated times, which the golden file checks.
func fill(n int, seed uint32) []float32 {
	out := make([]float32, n)
	s := seed*2654435761 + 1
	for i := range out {
		s = s*1664525 + 1013904223
		out[i] = float32(s%1024)/512.0 - 1.0
	}
	return out
}

func buildArgs(ctx *opencl.Context, specs []service.ArgSpec) ([]vm.Arg, error) {
	args := make([]interface{}, len(specs))
	for i, a := range specs {
		switch a.Kind {
		case "buffer":
			buf := ctx.NewBuffer(a.Size)
			buf.WriteFloat32(fill(a.Size/4, uint32(i+1)))
			args[i] = buf
		case "local":
			args[i] = opencl.LocalMem{Size: a.Size}
		case "int":
			args[i] = a.Int
		case "float":
			args[i] = a.Float
		default:
			return nil, fmt.Errorf("arg %d: unknown kind %q", i, a.Kind)
		}
	}
	return opencl.VMArgs(args...)
}

// serviceCompile is what the service does on a compile-cache miss: compile,
// prepare a clone for execution, compile it for the engine, render the IR.
func (t *tracer) serviceCompile(p spanRef, k *kernelSpec, defines map[string]string) (*ir.Module, *vm.Program, error) {
	mod, err := t.compileModule(p, k.app.ID+".cl", k.app.Source, defines)
	if err != nil {
		return nil, nil, err
	}
	prog, err := t.prepare(p, t.clone(p, mod))
	if err != nil {
		return nil, nil, err
	}
	if err := t.compileEngine(p, prog); err != nil {
		return nil, nil, err
	}
	t.print(p, mod)
	return mod, prog, nil
}

// replayTune performs one cold /v1/autotune {"device":"all","plan":"search"}
// without the service: compile once, then per device (in parallel, as the
// handler fans out) build the arguments and, for every plan of the default
// space, rewrite, prepare, compile for the engine and launch through the
// simulator; the fastest applied plan wins.
func (t *tracer) replayTune(op int, k *kernelSpec, defines map[string]string) (map[string]tuneResult, error) {
	root := t.rec.root(op, "service.autotune")
	_, base, err := t.serviceCompile(root, k, defines)
	if err != nil {
		root.end()
		return nil, err
	}
	plans := grover.DefaultPlanSpace(k.local)
	profs := device.All()
	results := make([]tuneResult, len(profs))
	probes := make([][]pendingProbe, len(profs))
	errs := make([]error, len(profs))
	var wg sync.WaitGroup
	for i, prof := range profs {
		wg.Add(1)
		go func(i int, prof *device.Profile) {
			defer wg.Done()
			results[i], probes[i], errs[i] = t.tuneDevice(root, k, base, plans, prof)
		}(i, prof)
	}
	wg.Wait()
	root.end()
	out := make(map[string]tuneResult, len(profs))
	for i, prof := range profs {
		if errs[i] != nil {
			return nil, fmt.Errorf("%s: %w", prof.Name, errs[i])
		}
		out[prof.Name] = results[i]
		for _, pp := range probes[i] {
			if err := t.probe(op, pp); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

func (t *tracer) tuneDevice(root spanRef, k *kernelSpec, base *vm.Program, plans []string, prof *device.Profile) (tuneResult, []pendingProbe, error) {
	var res tuneResult
	dsp := root.child("service.device")
	defer dsp.end()
	dev, err := opencl.NewPlatform().DeviceByName(prof.Name)
	if err != nil {
		return res, nil, err
	}
	ctx := opencl.NewContext(dev)
	sp := dsp.child("service.args")
	vargs, err := buildArgs(ctx, k.args)
	sp.end()
	if err != nil {
		return res, nil, err
	}
	cfg := vm.Config{GlobalSize: k.global, LocalSize: k.local, Args: vargs, Backend: t.engine}
	sim, err := device.NewSimulator(prof)
	if err != nil {
		return res, nil, err
	}
	var probes []pendingProbe
	for _, ps := range plans {
		plan, err := rewrite.ParsePlan(ps)
		if err != nil {
			return res, nil, err
		}
		pr := planResult{Plan: plan.String()}
		prog := base
		if len(plan.Steps) > 0 {
			mod, rep, err := t.rewriteApply(dsp, base.Module, k.app.Kernel, plan)
			if err != nil || !rep.Changed() {
				res.Plans = append(res.Plans, pr)
				continue
			}
			if prog, err = t.prepare(dsp, mod); err != nil {
				return res, nil, err
			}
			if err := t.compileEngine(dsp, prog); err != nil {
				return res, nil, err
			}
		}
		st, pp, err := t.simulate(dsp, launch{prog: prog, kernel: k.app.Kernel, cfg: cfg, mem: ctx.Mem(), prof: prof}, sim)
		if err != nil {
			res.Plans = append(res.Plans, pr)
			continue
		}
		pp.contended = true
		probes = append(probes, pp)
		pr.Applied, pr.MS = true, st.TimeMS
		res.Plans = append(res.Plans, pr)
		if res.Winner == "" || pr.MS < res.BestMS {
			res.Winner, res.BestMS = pr.Plan, pr.MS
		}
	}
	return res, probes, nil
}

// ---------------------------------------------------------------- front-end requests

// replayFrontend performs the work of one cold compile, lint or transform
// request without the service: every cold request compiles (fresh key),
// prepares, compiles for the engine and renders the IR, then does its own
// endpoint's step.
func (t *tracer) replayFrontend(op int, endpoint string, k *kernelSpec, defines map[string]string) error {
	root := t.rec.root(op, "service."+endpoint)
	defer root.end()
	mod, _, err := t.serviceCompile(root, k, defines)
	if err != nil {
		return err
	}
	switch endpoint {
	case "compile":
	case "lint":
		t.lint(root, mod.Kernel(k.app.Kernel), k.local)
	case "transform":
		out, _, err := t.groverTransform(root, mod, k.app.Kernel,
			igrover.Options{Candidates: k.app.Candidates, Strict: true})
		if err != nil {
			return err
		}
		t.print(root, out)
	case "transform-plan":
		out, _, err := t.rewriteApply(root, mod, k.app.Kernel, rewrite.MustParsePlan(frontendPlan))
		if err != nil {
			return err
		}
		t.print(root, out)
	default:
		return fmt.Errorf("no replay for endpoint %q", endpoint)
	}
	return nil
}

// ---------------------------------------------------------------- fixed probe sets

// probeEngines times, for every registered engine, compile, untraced
// execution and traced execution of the probe set on one device, and
// fails if any engine's simulated statistics differ from the first's.
func (t *tracer) probeEngines(probeApps []*apps.App, devName string) error {
	dev, err := opencl.NewPlatform().DeviceByName(devName)
	if err != nil {
		return err
	}
	for _, app := range probeApps {
		mod, err := opencl.CompileModule(app.ID+".cl", app.Source, app.Defines)
		if err != nil {
			return err
		}
		var want *launchStats
		for _, name := range engineNames {
			if !vm.ValidBackend(name) {
				continue
			}
			st, err := t.probeEngine(name, app, mod, dev)
			if err != nil {
				return fmt.Errorf("engine %s, %s on %s: %w", name, app.ID, devName, err)
			}
			if want == nil {
				want = &st
			} else if diff := want.diff(st); diff != "" {
				return fmt.Errorf("engine %s disagrees with %s on %s/%s: %s",
					name, engineNames[0], app.ID, devName, diff)
			}
		}
		if err := t.probeModels(app, mod, dev); err != nil {
			return err
		}
	}
	return nil
}

func (t *tracer) probeEngine(name string, app *apps.App, mod *ir.Module, dev *opencl.Device) (launchStats, error) {
	var st launchStats
	prog, err := vm.Prepare(ir.CloneModule(mod))
	if err != nil {
		return st, err
	}
	_, mem, cfg, err := instantiate(app, dev, name)
	if err != nil {
		return st, err
	}
	l := launch{prog: prog, kernel: app.Kernel, mem: mem, prof: dev.CostModel(), cfg: cfg}
	before := append([]byte(nil), l.mem.Data...)
	pre := "engine." + name
	if name != vm.BackendInterp {
		d, err := t.timedProbe(0, pre+".compile", func() error {
			_, err := prog.ExecutorCtx(context.Background(), name)
			return err
		})
		if err != nil {
			return st, err
		}
		t.add(pre+".compile_ns", float64(d))
	}
	sim, err := device.NewSimulator(l.prof)
	if err != nil {
		return st, err
	}
	untraced, traced := never, never
	for i := 0; i < 3 && (i == 0 || traced < quickLaunch); i++ {
		restore(l.mem, before)
		d, err := t.timedProbe(0, pre+".untraced", func() error {
			return l.prog.Launch(l.kernel, l.cfg, l.mem, nil)
		})
		if err != nil {
			return st, err
		}
		untraced = minDur(untraced, d)
		restore(l.mem, before)
		d, err = t.timedProbe(0, pre+".traced", func() error {
			sim.Reset()
			return l.prog.Launch(l.kernel, l.cfg, l.mem, sim.Opts())
		})
		if err != nil {
			return st, err
		}
		traced = minDur(traced, d)
		st = statsOf(sim.Result())
	}
	t.add(pre+".untraced_ns", float64(untraced))
	t.add(pre+".traced_ns", float64(traced))
	t.add(pre+".items", l.items())
	t.add(pre+".accesses", float64(st.Accesses))
	return st, nil
}

// probeModels times the two models no workload runs on its own path: one
// AIWC characterization launch and one static ranking of the default plan
// space.
func (t *tracer) probeModels(app *apps.App, mod *ir.Module, dev *opencl.Device) error {
	prog, err := vm.Prepare(ir.CloneModule(mod))
	if err != nil {
		return err
	}
	inst, mem, cfg, err := instantiate(app, dev, backend)
	if err != nil {
		return err
	}
	if _, err := t.timedProbe(0, "aiwc.characterize", func() error {
		_, err := aiwc.Characterize(prog, app.Kernel, cfg, mem)
		return err
	}); err != nil {
		return err
	}
	_, err = t.timedProbe(0, "profit.rank", func() error {
		_, err := profit.RankPlans(mod, app.Kernel, grover.DefaultPlanSpace(inst.ND.Local),
			dev.CostModel(), profit.Options{WorkGroup: inst.ND.Local, Global: inst.ND.Global,
				ArgInts: grover.IntArgs(inst.Args)})
		return err
	})
	return err
}

// probeCacheHit times kcache.Cache.Do on a resident key, the floor under
// every warm request.
func (t *tracer) probeCacheHit() {
	c := kcache.New(0)
	key := kcache.Key("probe", "resident")
	compute := func() (interface{}, error) { return 1, nil }
	c.Do(key, compute)
	const n = 20000
	d, _ := t.timedProbe(0, "kcache.do_hit", func() error {
		for i := 0; i < n; i++ {
			c.Do(key, compute)
		}
		return nil
	})
	t.add("kcache.do_hit_ns", float64(d)/n)
}
