// Package grover reproduces "Grover: Looking for Performance Improvement
// by Disabling Local Memory Usage in OpenCL Kernels" (Fang, Sips,
// Jääskeläinen, Varbanescu — ICPP 2014).
//
// Grover is a compiler pass that *removes* local-memory (scratch-pad)
// staging from OpenCL kernels: it detects the software-cache pattern —
// global load (GL) → local store (LS) → barrier → local loads (LL) —
// derives the correspondence between the local and global index spaces by
// solving an exact linear system, rewrites every LL into an equivalent new
// global load (nGL), and removes the dead stores, allocations and
// barriers. Running both kernel versions and keeping the faster one per
// platform is the paper's auto-tuning use case, provided here as Tune.
//
// The package is a facade over the repository's from-scratch stack: an
// OpenCL C front-end, an LLVM-like IR, the transformation pass, an
// executing VM with work-group semantics, and trace-driven device models
// for the paper's six platforms. See the opencl package for the host API.
//
//	plat := opencl.NewPlatform()
//	dev, _ := plat.DeviceByName("SNB")
//	ctx := opencl.NewContext(dev)
//	prog, _ := ctx.CompileProgram("mt.cl", source, nil)
//	noLM, report, _ := grover.Disable(prog, "transpose", grover.Options{})
//	fmt.Print(report)
package grover

import (
	"bytes"
	"context"
	"fmt"
	"strings"

	igrover "grover/internal/grover"
	"grover/internal/rewrite"
	"grover/internal/telemetry"
	"grover/internal/vm"
	"grover/opencl"
)

// Options control the pass (candidate selection, barrier handling,
// ablation switches).
type Options = igrover.Options

// Report is the per-kernel analysis and transformation report (the
// paper's Table III rows: GL, LS, LL and nGL symbolic indices plus the
// solved correspondence).
type Report = igrover.Report

// CandidateReport is one candidate's row in a Report.
type CandidateReport = igrover.CandidateReport

// ErrNotReversible is the error type reported when a candidate's
// correspondence cannot be derived (singular system, non-integral
// solution, temporal-storage pattern).
type ErrNotReversible = igrover.ErrNotReversible

// ErrNoCandidates is returned when the kernel uses no local memory.
var ErrNoCandidates = igrover.ErrNoCandidates

// Disable runs the Grover pass on a copy of prog, removing local-memory
// usage from the named kernel. The original program is unchanged; both
// versions stay runnable for side-by-side comparison.
func Disable(prog *opencl.Program, kernel string, opts Options) (*opencl.Program, *Report, error) {
	return prog.WithLocalMemoryDisabled(kernel, opts)
}

// TuneResult reports one device's tuning decision.
type TuneResult struct {
	// UseTransformed is true when the version without local memory won.
	UseTransformed bool
	// Kernel is the winning kernel.
	Kernel *opencl.Kernel
	// Original is the untransformed kernel; Transformed is the
	// local-memory-free version (nil when the pass found no candidates).
	// Both stay runnable so callers can profile or characterize either
	// version after the verdict.
	Original    *opencl.Kernel
	Transformed *opencl.Kernel
	// OriginalMS and TransformedMS are the average simulated times.
	OriginalMS    float64
	TransformedMS float64
	// Speedup is original/transformed (>1 means disabling local memory
	// helped — the paper's "normalized performance").
	Speedup float64
	// Report is the transformation report.
	Report *Report
	// Plan is the winning plan's canonical string when plan search ran
	// (LaunchSpec.Plans); empty for the classic two-version comparison.
	Plan string
	// Rewrite is the winning plan's per-step report when plan search ran
	// and a non-base plan won.
	Rewrite *rewrite.Report
	// PlanSearch holds one entry per evaluated plan when plan search ran.
	PlanSearch []PlanTiming
}

// PlanTiming is one evaluated plan in a plan search.
type PlanTiming struct {
	// Plan is the canonical plan string.
	Plan string
	// MS is the average simulated time; meaningful only when timed.
	MS float64
	// Applied is true when the plan changed the kernel (base counts: it is
	// the reference version). Unapplied plans are not timed.
	Applied bool
	// Err records why the plan was skipped: parse failure, illegal
	// transform (a rule's safety analysis rejected it), or a launch error.
	Err string
	// Report is the plan's per-step rewrite report, when it ran.
	Report *rewrite.Report
	// Profile is the plan's per-launch execution profile (wall time and
	// retire/traffic counters per barrier-delimited region, accumulated
	// over the timed runs) when LaunchSpec.Profile was set.
	Profile *vm.ProfileReport
}

// String renders the decision.
func (r TuneResult) String() string {
	if r.Plan != "" {
		return fmt.Sprintf("plan %s: base %.4f ms, best %.4f ms (np=%.2f, %d plans tried)",
			r.Plan, r.OriginalMS, r.TransformedMS, r.Speedup, len(r.PlanSearch))
	}
	verdict := "keep local memory"
	if r.UseTransformed {
		verdict = "disable local memory"
	}
	return fmt.Sprintf("%s: with LM %.4f ms, without LM %.4f ms (np=%.2f)",
		verdict, r.OriginalMS, r.TransformedMS, r.Speedup)
}

// setLaunch executes a kernel once and reports it for every device of a
// set: one event per device, in the set's order.
type setLaunch func(k *opencl.Kernel) ([]*opencl.Event, error)

// deviceNames renders a set for the "devices" span attribute.
func deviceNames(devs []*opencl.Device) string {
	names := make([]string, len(devs))
	for i, d := range devs {
		names[i] = d.Name()
	}
	return strings.Join(names, ",")
}

// timeKernel launches k runs times and returns each device's average
// simulated time.
func timeKernel(k *opencl.Kernel, runs, devices int, launch setLaunch) ([]float64, error) {
	ms := make([]float64, devices)
	for i := 0; i < runs; i++ {
		evts, err := launch(k)
		if err != nil {
			return nil, err
		}
		for d, evt := range evts {
			ms[d] += evt.Duration()
		}
	}
	for d := range ms {
		ms[d] /= float64(runs)
	}
	return ms, nil
}

// tuneVersions is the two-version tune for a set of devices: the pass runs
// once, each version executes runs times, and every device gets the
// verdict its own cost model supports.
func tuneVersions(ctx context.Context, prog *opencl.Program, kernel string, opts Options, runs int,
	launch setLaunch, devs []*opencl.Device) ([]*TuneResult, error) {
	transformed, rep, err := prog.WithLocalMemoryDisabledCtx(ctx, kernel, opts)
	if err != nil {
		return nil, err
	}
	orig, err := prog.Kernel(kernel)
	if err != nil {
		return nil, err
	}
	out := make([]*TuneResult, len(devs))
	if !rep.Transformed() {
		for i := range out {
			out[i] = &TuneResult{Kernel: orig, Original: orig, Report: rep, Speedup: 1}
		}
		return out, nil
	}
	noLM, err := transformed.Kernel(kernel)
	if err != nil {
		return nil, err
	}
	timed := func(name string, k *opencl.Kernel) ([]float64, error) {
		_, span := telemetry.StartSpanCtx(ctx, "tune:"+name)
		span.SetAttr("devices", deviceNames(devs))
		defer span.End()
		ms, err := timeKernel(k, runs, len(devs), launch)
		if err != nil {
			return nil, fmt.Errorf("grover: timing %s: %w", name, err)
		}
		return ms, nil
	}
	origMS, err := timed("original", orig)
	if err != nil {
		return nil, err
	}
	noLMMS, err := timed("transformed", noLM)
	if err != nil {
		return nil, err
	}
	for i := range out {
		res := &TuneResult{
			Kernel:        orig,
			Original:      orig,
			Transformed:   noLM,
			OriginalMS:    origMS[i],
			TransformedMS: noLMMS[i],
			Report:        rep,
			Speedup:       origMS[i] / noLMMS[i],
		}
		if noLMMS[i] < origMS[i] {
			res.UseTransformed = true
			res.Kernel = noLM
		}
		out[i] = res
	}
	return out, nil
}

// withBasePlan puts "base" in front of a plan list that does not have it.
func withBasePlan(plans []string) []string {
	for _, ps := range plans {
		if p, err := rewrite.ParsePlan(ps); err == nil && len(p.Steps) == 0 {
			return plans
		}
	}
	return append([]string{rewrite.BasePlanName}, plans...)
}

// measurePlans is the measured plan search for devs on prog — the program
// of the launch environment the set runs in: each plan is rewritten and
// prepared once and executed runs times, every execution is charged to all
// of the set's cost models (launch returns one event per device, in devs
// order), and each device gets its own timings and winner — except that a
// plan whose kernel already ran, on the memory that is still there, takes
// that run's timings and profile instead of executing. profile, when
// non-nil, is called before each executed plan and returns a fresh
// profiler wired into launch; its report lands in PlanTiming.Profile.
func measurePlans(ctx context.Context, prog *opencl.Program, kernel string, plans []string, runs int,
	launch setLaunch, profile func() *vm.Profiler, devs []*opencl.Device) ([]*TuneResult, error) {
	orig, err := prog.Kernel(kernel)
	if err != nil {
		return nil, err
	}
	devices := deviceNames(devs)

	type best struct {
		k       *opencl.Kernel
		ms      float64
		plan    string
		rewrite *rewrite.Report
	}
	results := make([]*TuneResult, len(devs))
	bests := make([]best, len(devs))
	for i := range results {
		results[i] = &TuneResult{Original: orig}
	}
	// record files one plan's outcome with every device: the shared part
	// in t and, when the plan was timed (ms non-nil), the device's own
	// time.
	record := func(t PlanTiming, k *opencl.Kernel, ms []float64) {
		for i := range devs {
			if ms != nil {
				t.MS = ms[i]
				if t.Plan == rewrite.BasePlanName {
					results[i].OriginalMS = t.MS
				}
				if b := &bests[i]; b.plan == "" || t.MS < b.ms {
					*b = best{k, t.MS, t.Plan, t.Report}
				}
			}
			results[i].PlanSearch = append(results[i].PlanSearch, t)
		}
	}
	// memo holds, by module key, the executions that left global memory as
	// they found it (snap): the run is deterministic, so a later plan with
	// the same kernel would time the same and leave the same memory.
	type timing struct {
		plan string
		ms   []float64
		prof *vm.ProfileReport
	}
	memo := map[string]timing{}
	mem := prog.Context().Mem()
	snap := append([]byte(nil), mem.Data...)
	for _, ps := range plans {
		p, err := rewrite.ParsePlan(ps)
		if err != nil {
			record(PlanTiming{Plan: ps, Err: err.Error()}, nil, nil)
			continue
		}
		t := PlanTiming{Plan: p.String()}
		// One span per plan per set: the rewrite and re-prepare stages are
		// its children.
		sctx, span := telemetry.StartSpanCtx(ctx, "tune:"+t.Plan)
		span.SetAttr("devices", devices)
		k, mod := orig, prog.Module()
		if len(p.Steps) > 0 {
			var rp *opencl.Program
			rp, t.Report, err = prog.WithRewritePlanCtx(sctx, kernel, p)
			if err == nil && t.Report.Changed() {
				k, err = rp.Kernel(kernel)
				mod = rp.Module()
			}
			// No rule matched: base's kernel, not timed. (A plan that did
			// match may still yield an earlier plan's kernel: see memo.)
			if err != nil || !t.Report.Changed() {
				if err != nil {
					t.Err = err.Error()
				}
				span.SetAttr("applied", "false")
				span.End()
				record(t, nil, nil)
				continue
			}
		}
		key := mod.Key()
		if m, ok := memo[key]; ok {
			span.SetAttr("reused", m.plan)
			span.End()
			t.Applied, t.Profile = true, m.prof
			record(t, k, m.ms)
			continue
		}
		var prof *vm.Profiler
		if profile != nil {
			prof = profile()
		}
		ms, err := timeKernel(k, runs, len(devs), launch)
		span.End()
		if prof != nil {
			t.Profile = prof.Report()
		}
		if !bytes.Equal(mem.Data, snap) {
			clear(memo)
			snap = append(snap[:0], mem.Data...)
		} else if err == nil {
			memo[key] = timing{t.Plan, ms, t.Profile}
		}
		if err != nil {
			t.Err = fmt.Sprintf("timing: %v", err)
			record(t, nil, nil)
			continue
		}
		t.Applied = true
		record(t, k, ms)
	}
	if bests[0].plan == "" {
		return nil, fmt.Errorf("grover: no plan could be evaluated for kernel %q", kernel)
	}
	for i, res := range results {
		b := bests[i]
		res.Plan = b.plan
		res.Kernel = b.k
		res.TransformedMS = b.ms
		if res.OriginalMS > 0 {
			res.Speedup = res.OriginalMS / b.ms
		}
		if b.plan != rewrite.BasePlanName {
			res.UseTransformed = true
			res.Transformed = b.k
			res.Rewrite = b.rewrite
			if b.rewrite != nil {
				for _, st := range b.rewrite.Steps {
					if st.Grover != nil {
						res.Report = st.Grover
					}
				}
			}
		}
	}
	return results, nil
}

// DefaultPlanSpace is the small plan space the service and the examples
// enumerate when asked to search: base, the Grover direction with and
// without extra address hoisting, hoisting alone, a phase-order variant
// (no LICM after the Grover rewrite), and — for 1D work-groups — the
// inverse stage-local direction sized to the launch.
func DefaultPlanSpace(local [3]int) []string {
	plans := []string{
		"base",
		"grover",
		"grover,hoist-addr",
		"hoist-addr",
		"grover,opt(passes=cse+load-forward+dse+peephole+dce)",
	}
	if local[0] > 1 && local[1] <= 1 && local[2] <= 1 {
		plans = append(plans,
			fmt.Sprintf("stage-local(ls=%d)", local[0]),
			fmt.Sprintf("stage-local(ls=%d),hoist-addr", local[0]))
	}
	return plans
}

// LaunchSpec describes how to launch a kernel for timing on a set of
// devices: the program, pass options, launch geometry, run count, and a
// builder that materializes the kernel arguments. Buffers belong to a
// context, and a set of devices is tuned in one context from one execution
// per plan, so Program and Args are called once for the whole set.
type LaunchSpec struct {
	// Program instantiates the program to tune in the given fresh context,
	// on which it may also select the backend (Context.SetBackend).
	// Compilation is device-independent, so a module compiled once
	// (opencl.CompileModule) is instantiated with Context.NewProgramFromIR.
	// Required.
	Program func(ctx *opencl.Context) (*opencl.Program, error)
	// Options control the Grover pass.
	Options Options
	// ND is the launch geometry.
	ND opencl.NDRange
	// Runs is the number of timed executions averaged per version
	// (defaults to 1; the simulator is deterministic).
	Runs int
	// Args builds the kernel argument list (buffers, scalars, LocalMem)
	// in the given context.
	Args func(ctx *opencl.Context) ([]interface{}, error)
	// Plans switches tuning from the classic two-version comparison to a
	// rewrite-plan search: every listed plan is applied (illegal or
	// inapplicable plans are recorded and skipped, not fatal), each
	// resulting kernel is timed Runs times, and the fastest legal variant
	// wins per device. "base" — the unrewritten kernel — is always
	// evaluated, whether or not it is listed, and serves as the speedup
	// reference. Use DefaultPlanSpace(ND.Local) for the standard small
	// space.
	Plans []string
	// Profile attaches a fresh execution profiler to every timed plan; the
	// report of the one execution lands in PlanTiming.Profile on every
	// device it was charged to and every plan reusing it. Requires Plans.
	Profile bool
}

// DeviceTuneResult is one device's outcome from Tune.
type DeviceTuneResult struct {
	// Device is the profile name ("SNB", "Fermi", ...).
	Device string
	// Result is the tuning verdict; nil when Err is set.
	Result *TuneResult
	// Err reports a per-device failure.
	Err error
	// Set is the launch environment Result's kernels live in, shared by
	// every device of the Tune call.
	Set *LaunchSet
}

// LaunchSet is the launch environment of a Tune call: a context of its own,
// the arguments built in it, and the kernel executions that ran there.
type LaunchSet struct {
	// Args is what LaunchSpec.Args built.
	Args []interface{}
	// Launches counts the kernel executions on the host: timed runs, each
	// charged to every device of the set. A plan that took an earlier
	// plan's timings, its kernel having run on unchanged memory, ran none.
	Launches int
}

// launchEnv is a program instantiated in a fresh context next to freshly
// built arguments.
type launchEnv struct {
	prog *opencl.Program
	set  *LaunchSet
}

func newLaunchEnv(dev *opencl.Device, spec *LaunchSpec) (*launchEnv, error) {
	ctx := opencl.NewContext(dev)
	prog, err := spec.Program(ctx)
	if err != nil {
		return nil, err
	}
	env := &launchEnv{prog: prog, set: &LaunchSet{}}
	if spec.Args != nil {
		if env.set.Args, err = spec.Args(ctx); err != nil {
			return nil, err
		}
	}
	return env, nil
}

// queue opens a profiling queue over devs: one execution per launch,
// charged to each device's cost model.
func (e *launchEnv) queue(devs []*opencl.Device, nd opencl.NDRange) (*opencl.SetQueue, setLaunch, error) {
	q, err := e.prog.Context().NewProfilingQueueSet(devs...)
	if err != nil {
		return nil, nil, err
	}
	return q, func(k *opencl.Kernel) ([]*opencl.Event, error) {
		e.set.Launches++
		return q.EnqueueNDRange(k, nd, e.set.Args...)
	}, nil
}

// Tune runs the paper's auto-tuning step — run both kernel versions, keep
// the faster one per platform — for one kernel on a set of devices from one
// execution per kernel version. What a kernel does — its memory accesses,
// barrier by barrier and work-group by work-group — does not depend on the
// device, only what a device's cost model makes of it does; so the program
// is instantiated once (LaunchSpec.Program, in a fresh context), the
// arguments are built once, every version or plan is rewritten and
// prepared once, every distinct kernel is executed once per memory state
// it meets, on as many host workers as there are processors, and each
// execution is charged to all the devices' models (opencl.SetQueue).
// Every device gets the verdict a tune of its own — devs[i:i+1] — would
// have reached.
//
// Results are in devs order; no devices, no results and nothing is built. A
// failure is reported in every device's slot.
func Tune(ctx context.Context, devs []*opencl.Device, kernel string, spec LaunchSpec) []DeviceTuneResult {
	out := make([]DeviceTuneResult, len(devs))
	if len(devs) == 0 {
		return out
	}
	res, set, err := tune(ctx, devs, kernel, &spec)
	for i, d := range devs {
		out[i].Device = d.Name()
		if err != nil {
			out[i].Err = err
		} else {
			out[i].Result, out[i].Set = res[i], set
		}
	}
	return out
}

// tune instantiates spec in one launch environment, opens one queue over
// devs and runs the classic two-version tune or the plan search there.
func tune(ctx context.Context, devs []*opencl.Device, kernel string, spec *LaunchSpec) ([]*TuneResult, *LaunchSet, error) {
	env, err := newLaunchEnv(devs[0], spec)
	if err != nil {
		return nil, nil, err
	}
	q, launch, err := env.queue(devs, spec.ND)
	if err != nil {
		return nil, nil, err
	}
	runs := max(spec.Runs, 1)
	var res []*TuneResult
	if len(spec.Plans) == 0 {
		res, err = tuneVersions(ctx, env.prog, kernel, spec.Options, runs, launch, devs)
	} else {
		var profile func() *vm.Profiler
		if spec.Profile {
			profile = func() *vm.Profiler {
				prof := vm.NewProfiler()
				q.SetKernelProfiler(prof)
				return prof
			}
		}
		res, err = measurePlans(ctx, env.prog, kernel, withBasePlan(spec.Plans), runs, launch, profile, devs)
	}
	if err != nil {
		return nil, nil, err
	}
	return res, env.set, nil
}

// IntArgs extracts known integer scalar arguments by parameter index
// from a kernel argument list, for the static profitability model
// (internal/profit). Tune does not rank plans statically; IntArgs stays
// only because the performance ledger's profit.rank probe (bench/) calls
// it. Non-integer arguments (buffers, local reservations, floats) are
// skipped; nil is returned when no integers are present.
func IntArgs(args []interface{}) map[int]int64 {
	var m map[int]int64
	for i, a := range args {
		var v int64
		switch x := a.(type) {
		case int:
			v = int64(x)
		case int32:
			v = int64(x)
		case int64:
			v = x
		case uint32:
			v = int64(x)
		default:
			continue
		}
		if m == nil {
			m = map[int]int64{}
		}
		m[i] = v
	}
	return m
}
