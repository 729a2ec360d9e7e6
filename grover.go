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
	"context"
	"fmt"

	igrover "grover/internal/grover"
	"grover/internal/search"
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
type TuneResult = search.Result

// PlanTiming is one evaluated plan in a plan search.
type PlanTiming = search.PlanTiming

// LaunchSet is the launch environment of a Tune call: the kernel executions
// that ran in its context.
type LaunchSet = search.LaunchSet

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
// devices: the program, pass options, launch geometry, and a builder that
// materializes the kernel arguments. Buffers belong to a context, and a set
// of devices is tuned in one context from one execution per plan, so
// Program and Args are called once for the whole set.
type LaunchSpec struct {
	// Program instantiates the program to tune in the given fresh context.
	// Compilation is device-independent, so a module compiled once
	// (opencl.CompileModule) is instantiated with Context.NewProgramFromIR.
	// Required.
	Program func(ctx *opencl.Context) (*opencl.Program, error)
	// Options control the Grover pass of the two-version comparison; a
	// plan search does not read them. Candidates must be C identifiers.
	Options Options
	// ND is the launch geometry.
	ND opencl.NDRange
	// Args builds the kernel argument list (buffers, scalars, LocalMem)
	// in the given context.
	Args func(ctx *opencl.Context) ([]interface{}, error)
	// Plans is the plan space to search: every listed plan is applied
	// (illegal or inapplicable plans are recorded and skipped, not fatal),
	// each resulting kernel is timed once, and the fastest legal variant
	// wins per device. "base" — the unrewritten kernel — is always
	// evaluated, whether or not it is listed, and serves as the speedup
	// reference. Use DefaultPlanSpace(ND.Local) for the standard small
	// space. Empty is the two-version comparison: the search over base and
	// rewrite.GroverStep(Options), failed by ErrNoCandidates (before any
	// launch), a Strict rejection or a launch error. base keeps a tie.
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

// Tune runs the paper's auto-tuning step — run both kernel versions, keep
// the faster one per platform — for one kernel on a set of devices from one
// execution per kernel version. What a kernel does — its memory accesses,
// barrier by barrier and work-group by work-group — does not depend on the
// device, only what a device's cost model makes of it does; so the program
// is instantiated once (LaunchSpec.Program, in a fresh context), the
// arguments are built once, every version or plan is rewritten and
// prepared once, every distinct kernel is executed once from the memory the
// arguments were built with (their buffers hold it again when Tune returns)
// on as many host workers as there are processors, and each execution is
// charged to all the devices' models (opencl.SetQueue).
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

// tune instantiates spec in a fresh context and runs the plan search
// there: spec.Plans, or for the classic two-version tune base and the
// grover step spec.Options spell.
func tune(ctx context.Context, devs []*opencl.Device, kernel string, spec *LaunchSpec) ([]*TuneResult, *LaunchSet, error) {
	octx := opencl.NewContext(devs[0])
	prog, err := spec.Program(octx)
	if err != nil {
		return nil, nil, err
	}
	var args []interface{}
	if spec.Args != nil {
		if args, err = spec.Args(octx); err != nil {
			return nil, nil, err
		}
	}
	return search.Run(ctx, devs, &search.Spec{Prog: prog, Kernel: kernel, Args: args, ND: spec.ND,
		Plans: spec.Plans, Options: spec.Options, Profile: spec.Profile})
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
