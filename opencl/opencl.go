// Package opencl is a simulated OpenCL 1.x host API over the repository's
// from-scratch execution stack: the clc front-end compiles OpenCL C kernel
// source, the vm package executes NDRanges with true work-group/barrier
// semantics, and the device package turns execution traces into simulated
// time for the paper's six platforms (Fermi, Kepler, Tahiti, SNB, Nehalem,
// MIC).
//
// The API follows the host-side shapes of OpenCL — Platform → Device →
// Context → Program → Kernel → CommandQueue → Event — with Go idioms
// (errors instead of status codes, variadic kernel arguments).
//
//	plat := opencl.NewPlatform()
//	dev, _ := plat.DeviceByName("SNB")
//	ctx := opencl.NewContext(dev)
//	prog, _ := ctx.CompileProgram("transpose.cl", source, nil)
//	k, _ := prog.Kernel("transpose")
//	in := ctx.NewBuffer(4 * n)
//	q := ctx.NewQueue()
//	evt, _ := q.EnqueueNDRange(k, opencl.NDRange{Global: [3]int{w, h, 1},
//	    Local: [3]int{16, 16, 1}}, out, in, int32(w), int32(h))
//	fmt.Println(evt.Duration())
package opencl

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"grover/internal/analysis"
	"grover/internal/clc"
	"grover/internal/debug"
	"grover/internal/device"
	igrover "grover/internal/grover"
	"grover/internal/ir"
	"grover/internal/lower"
	"grover/internal/opt"
	"grover/internal/rewrite"
	"grover/internal/telemetry"
	"grover/internal/vm"
	_ "grover/internal/wgvec" // register the work-group-vectorized backend
)

// Platform enumerates the simulated devices.
type Platform struct {
	devices []*Device
}

// NewPlatform returns the simulated platform with the paper's six devices.
func NewPlatform() *Platform {
	p := &Platform{}
	for _, prof := range device.All() {
		p.devices = append(p.devices, &Device{prof: prof})
	}
	return p
}

// Devices lists the available devices.
func (p *Platform) Devices() []*Device { return p.devices }

// DeviceByName returns the device with the given profile name (e.g.
// "SNB", "Fermi"). The error for an unknown name lists the available
// devices, so it can be returned to service clients verbatim.
func (p *Platform) DeviceByName(name string) (*Device, error) {
	names := make([]string, 0, len(p.devices))
	for _, d := range p.devices {
		if d.Name() == name {
			return d, nil
		}
		names = append(names, d.Name())
	}
	return nil, fmt.Errorf("opencl: no device %q (available: %s)", name, strings.Join(names, ", "))
}

// Device is one simulated platform.
type Device struct {
	prof *device.Profile
}

// Name returns the profile name.
func (d *Device) Name() string { return d.prof.Name }

// IsGPU reports whether the device has a scratch-pad/warp execution model.
func (d *Device) IsGPU() bool { return d.prof.Kind == device.GPUKind }

// ComputeUnits returns the number of cores / CUs.
func (d *Device) ComputeUnits() int { return d.prof.Cores }

// Profile exposes the underlying cost-model profile name and kind in a
// printable form.
func (d *Device) Profile() string {
	return fmt.Sprintf("%s (%s, %d CUs, %.2f GHz)", d.prof.Name, d.prof.Kind, d.prof.Cores, d.prof.FreqGHz)
}

// CostModel exposes the device's cost-model profile for static
// analyses (e.g. profitability scoring); treat it as read-only.
func (d *Device) CostModel() *device.Profile { return d.prof }

// Context owns device memory and compiled programs for one device.
type Context struct {
	dev  *Device
	gmem *vm.GlobalMem
}

// NewContext creates a context on the device.
func NewContext(d *Device) *Context {
	return &Context{dev: d, gmem: vm.NewGlobalMem(1 << 20)}
}

// Device returns the context's device.
func (c *Context) Device() *Device { return c.dev }

// Mem exposes the context's global-memory arena. It is intended for
// harnesses that need to snapshot and restore device memory around
// launches (e.g. backend differential tests).
func (c *Context) Mem() *vm.GlobalMem { return c.gmem }

// Buffer is a device-memory buffer.
type Buffer struct {
	buf *vm.Buffer
}

// NewBuffer allocates size bytes of device global memory.
func (c *Context) NewBuffer(size int) *Buffer {
	return &Buffer{buf: c.gmem.Alloc(size)}
}

// Size returns the buffer size in bytes.
func (b *Buffer) Size() int { return b.buf.Size }

// WriteFloat32 copies host float32 data into the buffer.
func (b *Buffer) WriteFloat32(vals []float32) { b.buf.WriteFloat32s(vals) }

// Pattern returns the n deterministic pseudo-random float32 values in
// [-1, 1) that seed stands for: the one fill behind the benchmark apps'
// inputs, groverd's and groverc's buffer arguments and groverbench's
// synthetic kernels, so the same (size, seed) is the same data — and the
// same data-dependent control flow — everywhere.
func Pattern(n int, seed uint32) []float32 {
	out := make([]float32, n)
	s := seed*2654435761 + 1
	for i := range out {
		s = s*1664525 + 1013904223
		out[i] = float32(s%1024)/512.0 - 1.0
	}
	return out
}

// ReadFloat32 reads n float32 values from the buffer.
func (b *Buffer) ReadFloat32(n int) []float32 { return b.buf.ReadFloat32s(n) }

// WriteInt32 copies host int32 data into the buffer.
func (b *Buffer) WriteInt32(vals []int32) { b.buf.WriteInt32s(vals) }

// ReadInt32 reads n int32 values from the buffer.
func (b *Buffer) ReadInt32(n int) []int32 { return b.buf.ReadInt32s(n) }

// WriteBytes copies raw bytes into the buffer.
func (b *Buffer) WriteBytes(p []byte) { b.buf.WriteBytes(p) }

// ReadBytes copies the first n bytes out of the buffer.
func (b *Buffer) ReadBytes(n int) []byte { return slices.Clone(b.buf.Bytes()[:n]) }

// Program is a compiled module plus its prepared executable form.
type Program struct {
	ctx    *Context
	name   string
	module *ir.Module
	prog   *vm.Program
}

// CompileProgram compiles OpenCL C source (with optional preprocessor
// defines) for this context's device.
func (c *Context) CompileProgram(name, source string, defines map[string]string) (*Program, error) {
	return c.CompileProgramCtx(context.Background(), name, source, defines)
}

// CompileProgramCtx is CompileProgram with pipeline span recording when
// ctx carries a telemetry trace.
func (c *Context) CompileProgramCtx(ctx context.Context, name, source string, defines map[string]string) (*Program, error) {
	mod, err := CompileModuleCtx(ctx, name, source, defines)
	if err != nil {
		return nil, err
	}
	return c.newProgramFromModule(ctx, name, mod)
}

// CompileModule compiles OpenCL C source to the optimized IR module
// without binding it to a context. In this stack compilation is
// device-independent (the cost model is applied at launch time), so one
// compiled module can be instantiated on every device with
// Context.NewProgramFromIR — the compile-once primitive behind
// grover.Tune's LaunchSpec.Program and the groverd compilation cache.
func CompileModule(name, source string, defines map[string]string) (*ir.Module, error) {
	return CompileModuleCtx(context.Background(), name, source, defines)
}

// CompileModuleCtx is CompileModule with per-stage span recording
// (clc.pre, clc.parse, clc.sema, lower, opt) when ctx carries a
// telemetry trace.
func CompileModuleCtx(ctx context.Context, name, source string, defines map[string]string) (*ir.Module, error) {
	f, err := clc.ParseCtx(ctx, name, source, defines)
	if err != nil {
		return nil, fmt.Errorf("opencl: build failed: %w", err)
	}
	end := telemetry.StartSpan(ctx, "lower")
	mod, err := lower.Module(f)
	end()
	if err != nil {
		return nil, fmt.Errorf("opencl: lowering failed: %w", err)
	}
	if debug.Verify {
		if err := ir.Verify(mod); err != nil {
			return nil, fmt.Errorf("opencl: lowering produced invalid IR: %w", err)
		}
	}
	// Run the standard driver optimizations (CSE, LICM, DCE) so simulated
	// timings reflect what a vendor compiler would execute.
	end = telemetry.StartSpan(ctx, "opt")
	opt.Optimize(mod)
	end()
	if debug.Verify {
		if err := ir.Verify(mod); err != nil {
			return nil, fmt.Errorf("opencl: optimization produced invalid IR: %w", err)
		}
		// Exercise the full analysis suite as a crash smoke-test. Findings
		// are not failures here: the launch geometry is unknown at compile
		// time, so the race prover legitimately lacks the extents it needs
		// on some well-formed kernels.
		analysis.AnalyzeModule(mod, analysis.Options{})
	}
	return mod, nil
}

// NewProgramFromIR instantiates a compiled module on this context. The
// module is deep-cloned first — preparing a program for execution mutates
// it — so a single compiled artifact may be shared and instantiated by
// any number of contexts concurrently.
func (c *Context) NewProgramFromIR(name string, mod *ir.Module) (*Program, error) {
	return c.newProgramFromModule(context.Background(), name, ir.CloneModule(mod))
}

// NewProgramFromPrepared wraps an already-prepared VM program on this
// context without cloning or re-preparing it. Launches only read the
// prepared program, so one prepared artifact — including any backend
// bytecode lazily compiled and cached inside it — can be shared by any
// number of contexts concurrently.
func (c *Context) NewProgramFromPrepared(name string, prog *vm.Program) *Program {
	return &Program{ctx: c, name: name, module: prog.Module, prog: prog}
}

func (c *Context) newProgramFromModule(ctx context.Context, name string, mod *ir.Module) (*Program, error) {
	prog, err := vm.PrepareCtx(ctx, mod)
	if err != nil {
		return nil, fmt.Errorf("opencl: preparing module: %w", err)
	}
	return &Program{ctx: c, name: name, module: mod, prog: prog}, nil
}

// KernelNames lists the kernels in the program.
func (p *Program) KernelNames() []string {
	var out []string
	for _, f := range p.module.Kernels() {
		out = append(out, f.Name)
	}
	return out
}

// IR renders the program's intermediate representation (useful for
// inspecting what the Grover pass did).
func (p *Program) IR() string { return p.module.String() }

// Module exposes the program's compiled IR module for static analyses
// (linting, access summaries, profitability scoring). The module is the
// program's live representation — treat it as read-only; use
// WithRewritePlan or WithLocalMemoryDisabled to obtain transformed
// copies.
func (p *Program) Module() *ir.Module { return p.module }

// Device returns the device this program was prepared for.
func (p *Program) Device() *Device { return p.ctx.dev }

// Context returns the context this program was compiled in (its global
// memory holds the program's buffers).
func (p *Program) Context() *Context { return p.ctx }

// VM exposes the prepared vm.Program behind this program, for harnesses
// that drive launches directly (e.g. to run the same prepared program on
// several execution backends with pointer-identical traced instructions).
func (p *Program) VM() *vm.Program { return p.prog }

// WithLocalMemoryDisabled runs the Grover pass on a copy of the program,
// disabling local-memory usage in the named kernel, and returns the new
// program plus the analysis report. The receiver is unchanged.
func (p *Program) WithLocalMemoryDisabled(kernel string, opts igrover.Options) (*Program, *igrover.Report, error) {
	return p.WithLocalMemoryDisabledCtx(context.Background(), kernel, opts)
}

// WithLocalMemoryDisabledCtx is WithLocalMemoryDisabled with span
// recording (rewrite.apply, vm.prepare) when ctx carries a telemetry trace.
// The pass runs as the one-step grover plan (rewrite.ApplyGrover).
func (p *Program) WithLocalMemoryDisabledCtx(ctx context.Context, kernel string, opts igrover.Options) (*Program, *igrover.Report, error) {
	end := telemetry.StartSpan(ctx, "rewrite.apply")
	mod, rep, err := rewrite.ApplyGrover(p.module, kernel, opts)
	end()
	if err != nil {
		return nil, nil, err
	}
	np, err := p.ctx.newProgramFromModule(ctx, p.name+"+grover", mod)
	return np, rep, err
}

// WithRewritePlan applies a rewrite plan to a copy of the program — any
// ordered sequence of registered rewrite rules, e.g. "grover",
// "stage-local(ls=64),hoist-addr" or "base" — and returns the rewritten
// program plus the per-step report. The receiver is unchanged.
// WithLocalMemoryDisabled is this with the one-step plan
// rewrite.GroverStep(opts) and the step's own report.
func (p *Program) WithRewritePlan(kernel string, plan *rewrite.Plan) (*Program, *rewrite.Report, error) {
	return p.WithRewritePlanCtx(context.Background(), kernel, plan)
}

// WithRewritePlanCtx is WithRewritePlan with span recording
// (rewrite.apply, vm.prepare) when ctx carries a telemetry trace.
func (p *Program) WithRewritePlanCtx(ctx context.Context, kernel string, plan *rewrite.Plan) (*Program, *rewrite.Report, error) {
	end := telemetry.StartSpan(ctx, "rewrite.apply")
	mod, rep, err := rewrite.Apply(p.module, kernel, plan)
	end()
	if err != nil {
		return nil, rep, err
	}
	np, err := p.ctx.newProgramFromModule(ctx, p.name+"+"+rep.Plan, mod)
	return np, rep, err
}

// Kernel returns a handle on the named kernel.
func (p *Program) Kernel(name string) (*Kernel, error) {
	if p.module.Kernel(name) == nil {
		return nil, fmt.Errorf("opencl: program %s has no kernel %q", p.name, name)
	}
	return &Kernel{prog: p, name: name}, nil
}

// Kernel is an executable entry point.
type Kernel struct {
	prog *Program
	name string
}

// Name returns the kernel name.
func (k *Kernel) Name() string { return k.name }

// Program returns the kernel's program.
func (k *Kernel) Program() *Program { return k.prog }

// LocalMem reserves size bytes of __local memory for a kernel argument
// (the dynamic local buffer idiom).
type LocalMem struct{ Size int }

// NDRange describes a launch geometry. Zero dimensions default to 1.
type NDRange struct {
	Global [3]int
	Local  [3]int
}

// Queue issues kernel launches on the context's device.
type Queue struct {
	ctx *Context
	// set is the context's device as a device set of one: the cost model a
	// profiling queue charges its launches to. A functional queue has none;
	// its launches run at full host speed with no timing.
	set      *device.Set
	profiler *vm.Profiler
}

// SetKernelProfiler attaches a per-launch execution profiler to the
// queue: subsequent launches attribute wall time and retire/traffic
// counters to their barrier-delimited regions (vm.Profiler accumulates
// across launches). Pass nil to detach. Works on both functional and
// profiling queues.
func (q *Queue) SetKernelProfiler(p *vm.Profiler) { q.profiler = p }

// NewQueue creates a functional (non-profiling) queue: launches execute
// in parallel on the host and events carry no simulated time.
func (c *Context) NewQueue() *Queue { return &Queue{ctx: c} }

// NewProfilingQueue creates a queue whose launches run through the device
// cost model; events report simulated device time.
func (c *Context) NewProfilingQueue() (*Queue, error) {
	set, err := device.NewSet([]*device.Profile{c.dev.prof})
	if err != nil {
		return nil, err
	}
	return &Queue{ctx: c, set: set}, nil
}

// Event describes a completed launch.
type Event struct {
	// Millis is the simulated device time (profiling queues only).
	Millis float64
	// Cycles is the simulated cycle makespan (profiling queues only).
	Cycles int64
	// Instrs counts executed instructions (profiling queues only).
	Instrs int64
	// Stats carries the full device counters (cache hit rates, DRAM
	// traffic, transactions) for profiling queues.
	Stats device.Result
}

// Duration returns the simulated time in milliseconds.
func (e *Event) Duration() float64 { return e.Millis }

func newEvent(res device.Result) *Event {
	return &Event{Millis: res.TimeMS, Cycles: res.Cycles, Instrs: res.Instrs, Stats: res}
}

// launch is every queue's launch: it runs the kernel once over the NDRange,
// charged to every device model of set when there is one.
func (c *Context) launch(set *device.Set, profiler *vm.Profiler, k *Kernel, nd NDRange, args []interface{}) error {
	vargs, err := VMArgs(args...)
	if err != nil {
		return err
	}
	cfg := vm.Config{GlobalSize: nd.Global, LocalSize: nd.Local, Args: vargs}
	opts := &vm.LaunchOpts{}
	if set != nil {
		set.Reset()
		opts = set.Opts()
	}
	opts.Profiler = profiler
	return k.prog.prog.Launch(k.name, cfg, c.gmem, opts)
}

// EnqueueNDRange launches the kernel over the NDRange. Arguments may be
// *Buffer, LocalMem, int/int32/int64/uint32, float32/float64. The call
// blocks until completion (the simulated queue is in-order).
func (q *Queue) EnqueueNDRange(k *Kernel, nd NDRange, args ...interface{}) (*Event, error) {
	if err := q.ctx.launch(q.set, q.profiler, k, nd, args); err != nil {
		return nil, err
	}
	if q.set == nil {
		return &Event{}, nil
	}
	return newEvent(q.set.Result(0)), nil
}

// SetQueue is a profiling queue over a set of devices: a launch executes
// once and is charged to every device's cost model (device.Set), so each
// device's event equals what a profiling queue of its own reports for the
// same launch on the same memory contents. The context's own device plays
// no part.
type SetQueue struct {
	ctx      *Context
	devs     []*Device
	set      *device.Set
	profiler *vm.Profiler
}

// NewProfilingQueueSet creates a profiling queue over devs.
func (c *Context) NewProfilingQueueSet(devs ...*Device) (*SetQueue, error) {
	profs := make([]*device.Profile, len(devs))
	for i, d := range devs {
		profs[i] = d.prof
	}
	set, err := device.NewSet(profs)
	if err != nil {
		return nil, err
	}
	return &SetQueue{ctx: c, devs: devs, set: set}, nil
}

// SetKernelProfiler attaches a per-launch execution profiler, as
// Queue.SetKernelProfiler does; the one execution is what it sees.
func (q *SetQueue) SetKernelProfiler(p *vm.Profiler) { q.profiler = p }

// EnqueueNDRange launches the kernel once and returns one event per
// device, in the order the queue was created with. Arguments are as for Queue.EnqueueNDRange.
func (q *SetQueue) EnqueueNDRange(k *Kernel, nd NDRange, args ...interface{}) ([]*Event, error) {
	if err := q.ctx.launch(q.set, q.profiler, k, nd, args); err != nil {
		return nil, err
	}
	evts := make([]*Event, len(q.devs))
	for i := range evts {
		evts[i] = newEvent(q.set.Result(i))
	}
	return evts, nil
}

// VMArgs converts host-side kernel arguments (*Buffer, LocalMem, Go
// integers and floats) to vm.Arg values, exactly as EnqueueNDRange does.
func VMArgs(args ...interface{}) ([]vm.Arg, error) {
	vargs := make([]vm.Arg, len(args))
	for i, a := range args {
		switch v := a.(type) {
		case *Buffer:
			vargs[i] = vm.BufArg(v.buf)
		case LocalMem:
			vargs[i] = vm.LocalArg(v.Size)
		case int:
			vargs[i] = vm.IntArg(int64(v))
		case int32:
			vargs[i] = vm.IntArg(int64(v))
		case int64:
			vargs[i] = vm.IntArg(v)
		case uint32:
			vargs[i] = vm.IntArg(int64(v))
		case float32:
			vargs[i] = vm.FloatArg(float64(v))
		case float64:
			vargs[i] = vm.FloatArg(v)
		default:
			return nil, fmt.Errorf("opencl: unsupported argument %d of type %T", i, a)
		}
	}
	return vargs, nil
}
