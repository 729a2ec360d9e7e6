package vm

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"grover/internal/clc"
	"grover/internal/ir"
	"grover/internal/telemetry"
)

// rv is the runtime representation of one IR value: scalars use i or f
// (selected by the static type), vectors use vi or vf.
type rv struct {
	i  int64
	f  float64
	vi []int64
	vf []float64
}

// frameInfo is the private-memory layout of one function's allocas.
type frameInfo struct {
	size    int
	offsets map[*ir.Instr]int
}

// Program is a prepared module: alloca layouts are precomputed and
// instruction IDs are dense.
type Program struct {
	Module *ir.Module

	frames   map[*ir.Function]*frameInfo
	localOff map[*ir.Instr]int
	localSz  map[*ir.Function]int
	regCount map[*ir.Function]int
	// stackBytes is a conservative private-arena size: the sum of every
	// frame in the module (OpenCL forbids recursion).
	stackBytes int

	// execMu guards execs, the per-backend compiled executors cached so
	// each program is compiled once and executed many times. The lock is
	// not held while a backend builds (see ExecutorCtx).
	execMu sync.Mutex
	execs  map[string]*execBuild
}

// execBuild is one backend's executor for a program, built at most once.
type execBuild struct {
	once sync.Once
	exec Executor
	err  error
}

// PrepareCtx is Prepare recording a vm.prepare span into the trace
// carried by ctx, if any.
func PrepareCtx(ctx context.Context, m *ir.Module) (*Program, error) {
	defer telemetry.StartSpan(ctx, "vm.prepare")()
	return Prepare(m)
}

// Prepare lays out allocas and numbers instructions for execution.
func Prepare(m *ir.Module) (*Program, error) {
	if err := ir.Verify(m); err != nil {
		return nil, err
	}
	p := &Program{
		Module:   m,
		frames:   map[*ir.Function]*frameInfo{},
		localOff: map[*ir.Instr]int{},
		localSz:  map[*ir.Function]int{},
		regCount: map[*ir.Function]int{},
	}
	for _, f := range m.Funcs {
		f.AssignIDs()
		n := 0
		fi := &frameInfo{offsets: map[*ir.Instr]int{}}
		localSz := 0
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Producing() {
					n++
				}
				if in.Op != ir.OpAlloca {
					continue
				}
				pt := in.Typ.(*clc.PointerType)
				sz := pt.Elem.Size()
				if sz == 0 {
					return nil, fmt.Errorf("vm: alloca of zero-size type in %s", f.Name)
				}
				const align = 16
				switch in.Space {
				case clc.ASLocal:
					localSz = (localSz + align - 1) &^ (align - 1)
					p.localOff[in] = localSz
					localSz += sz
				default:
					fi.size = (fi.size + align - 1) &^ (align - 1)
					fi.offsets[in] = fi.size
					fi.size += sz
				}
			}
		}
		p.frames[f] = fi
		p.localSz[f] = localSz
		p.regCount[f] = n
		p.stackBytes += fi.size + 64
	}
	return p, nil
}

// ArgKind classifies kernel arguments.
type ArgKind int

// Kernel argument kinds.
const (
	ArgBuffer ArgKind = iota
	ArgInt
	ArgFloat
	ArgLocalBuf
)

// Arg is one kernel argument.
type Arg struct {
	Kind ArgKind
	Buf  *Buffer
	I    int64
	F    float64
	// LocalBytes is the size of a dynamically allocated __local buffer.
	LocalBytes int
}

// BufArg wraps a buffer argument.
func BufArg(b *Buffer) Arg { return Arg{Kind: ArgBuffer, Buf: b} }

// IntArg wraps an integer scalar argument.
func IntArg(v int64) Arg { return Arg{Kind: ArgInt, I: v} }

// FloatArg wraps a float scalar argument.
func FloatArg(v float64) Arg { return Arg{Kind: ArgFloat, F: v} }

// LocalArg reserves a dynamically sized __local buffer.
func LocalArg(bytes int) Arg { return Arg{Kind: ArgLocalBuf, LocalBytes: bytes} }

// Config describes one NDRange launch.
type Config struct {
	GlobalSize [3]int
	LocalSize  [3]int
	Args       []Arg
	// Backend selects the execution backend ("interp", "wgvec").
	// Empty means DefaultBackend(): the GROVER_BACKEND environment
	// variable when set, else wgvec where it is linked in, else the
	// interpreter.
	Backend string
}

// Normalized fills defaulted dimensions and rejects a negative dimension
// and an indivisible one.
func (c *Config) Normalized() (Config, error) {
	out := *c
	for d := 0; d < 3; d++ {
		if out.GlobalSize[d] == 0 {
			out.GlobalSize[d] = 1
		}
		if out.LocalSize[d] == 0 {
			out.LocalSize[d] = 1
		}
		if out.GlobalSize[d] < 0 || out.LocalSize[d] < 0 {
			return out, fmt.Errorf("vm: negative size in dim %d: global %d, local %d",
				d, out.GlobalSize[d], out.LocalSize[d])
		}
		if out.GlobalSize[d]%out.LocalSize[d] != 0 {
			return out, fmt.Errorf("vm: global size %d not divisible by local size %d in dim %d",
				out.GlobalSize[d], out.LocalSize[d], d)
		}
	}
	return out, nil
}

// Tracer observes one worker's execution stream: work-groups are dealt to
// a traced launch's workers round-robin by linear id and a worker executes
// its groups serially, in ascending order. A worker is a host goroutine,
// not a simulated core: which core a group runs on is for the consumer to
// decide from the linear id GroupBegin carries (device.Set does).
type Tracer interface {
	// GroupBegin starts a work-group with the given group coordinates.
	GroupBegin(group [3]int, linear int)
	// Access reports one memory access by work-item wi (linear id within
	// the group) executing instruction in.
	Access(in *ir.Instr, wi int, addr uint64, size int, store bool)
	// Barrier reports one work-group barrier executed by wiCount items.
	Barrier(wiCount int)
	// Instrs reports n retired non-memory instructions for work-item wi.
	Instrs(wi int, n int64)
	// GroupEnd finishes the current work-group.
	GroupEnd()
}

// GroupAborter is the optional extension of Tracer for consumers that hold
// something from GroupBegin to GroupEnd (a turn on a shared device model, a
// borrowed buffer). When a group fails, the engine calls GroupAbort where
// GroupEnd would have come; that worker then runs no further group, so the
// consumer must not wait for one.
type GroupAborter interface {
	GroupAbort()
}

// AbortGroup tells t, if it wants to know, that its worker's current group
// failed. Engines call it on the error path of their group loop.
func AbortGroup(t Tracer) {
	if a, ok := t.(GroupAborter); ok {
		a.GroupAbort()
	}
}

// LaunchOpts control scheduling, tracing, and profiling. A nil *LaunchOpts
// is the zero value: GOMAXPROCS workers, untraced, unprofiled.
type LaunchOpts struct {
	// Workers is the number of concurrent group executors. Defaults to
	// GOMAXPROCS when zero.
	Workers int
	// TracerFor, when non-nil, supplies a tracer per worker.
	TracerFor func(worker int) Tracer
	// Profiler, when non-nil, attributes the launch's wall time and
	// retire/traffic counters to barrier-delimited regions. interp and
	// wgvec implement the hook; nil keeps every hot path untouched.
	Profiler *Profiler
}

// Dispatch is a launch Program.Launch has resolved: what every work-group
// of it shares. Engines build their group states from it.
type Dispatch struct {
	Kernel *ir.Function
	// Config is the launch's normalized configuration.
	Config Config
	Mem    *GlobalMem
	// ParamI and ParamF hold each kernel parameter's value: integers and
	// pointers (a dynamic __local argument as its tagged address) in
	// ParamI, floats in ParamF.
	ParamI []int64
	ParamF []float64
	// LocalBytes is one work-group's __local arena: the kernel's static
	// allocas, then the dynamic __local arguments.
	LocalBytes int
	Profiler   *Profiler
}

// Launch executes the named kernel over the NDRange on the backend
// selected by cfg.Backend. It resolves the launch and deals its
// work-groups to host workers; the engine only runs them, one group at a
// time. Traced launches distribute work-groups round-robin over workers,
// each worker running its groups in ascending order, so traced streams are
// deterministic regardless of backend; untraced launches balance groups
// dynamically (see groupSchedule).
func (p *Program) Launch(kernel string, cfg Config, gmem *GlobalMem, opts *LaunchOpts) error {
	backend, err := ResolveBackend(cfg.Backend)
	if err != nil {
		return err
	}
	ex, err := p.Executor(backend)
	if err != nil {
		return err
	}
	fn := p.Module.Kernel(kernel)
	if fn == nil {
		return fmt.Errorf("vm: no kernel %q", kernel)
	}
	ncfg, err := cfg.Normalized()
	if err != nil {
		return err
	}
	if len(ncfg.Args) != len(fn.Params) {
		return fmt.Errorf("vm: kernel %s expects %d args, got %d", kernel, len(fn.Params), len(ncfg.Args))
	}
	if opts == nil {
		opts = &LaunchOpts{}
	}
	workers, tracerFor, prof := opts.Workers, opts.TracerFor, opts.Profiler
	if prof != nil {
		prof.LaunchBegin(kernel, backend)
		start := time.Now()
		defer func() { prof.LaunchDone(time.Since(start)) }()
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	groups := [3]int{
		ncfg.GlobalSize[0] / ncfg.LocalSize[0],
		ncfg.GlobalSize[1] / ncfg.LocalSize[1],
		ncfg.GlobalSize[2] / ncfg.LocalSize[2],
	}
	nGroups := groups[0] * groups[1] * groups[2]
	if nGroups < workers {
		workers = nGroups
	}
	if workers == 0 {
		return nil
	}

	d := &Dispatch{Kernel: fn, Config: ncfg, Mem: gmem, Profiler: prof,
		ParamI: make([]int64, len(ncfg.Args)), ParamF: make([]float64, len(ncfg.Args))}
	// Dynamic local buffers: lay out after the static local allocas.
	d.LocalBytes = p.localSz[fn]
	for i, a := range ncfg.Args {
		switch a.Kind {
		case ArgBuffer:
			d.ParamI[i] = int64(a.Buf.Addr())
		case ArgInt:
			d.ParamI[i] = a.I
		case ArgFloat:
			d.ParamF[i] = a.F
		case ArgLocalBuf:
			const align = 16
			d.LocalBytes = (d.LocalBytes + align - 1) &^ (align - 1)
			d.ParamI[i] = int64(MakeAddr(clc.ASLocal, uint64(d.LocalBytes)))
			d.LocalBytes += a.LocalBytes
		}
	}

	var wg sync.WaitGroup
	errs := make([]error, workers)
	sched := newGroupSchedule(nGroups, workers, tracerFor != nil)
	// A traced launch may ask for far more workers than can run (the device
	// model asks for GOMAXPROCS, but a caller that wants one stream per
	// simulated core asks for up to 60), and a traced group needs its
	// execution state — registers, private stacks — and, on wgvec, a trace
	// buffer here, often another in its tracer.
	// So the launch owns only as many states as the host runs goroutines at
	// a time and a worker holds one for the length of a group: the rest wait
	// here instead of sitting preempted on full-grown states of their own.
	// Each worker's stream is its own, so the order between workers is free.
	// What is lent starts out as nil: the first worker to borrow one builds
	// it, so the states are built side by side and only as many as get used.
	var lent chan Group
	if tracerFor != nil {
		lent = make(chan Group, min(workers, runtime.GOMAXPROCS(0)))
		for i := 0; i < cap(lent); i++ {
			lent <- nil
		}
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			var g Group
			var tr Tracer
			if tracerFor != nil {
				tr = tracerFor(worker)
			} else {
				g = ex.NewGroup(d, false)
				defer g.Release()
			}
			cur := sched.cursor(worker)
			for gi := cur.next(); gi >= 0; gi = cur.next() {
				gz := gi / (groups[0] * groups[1])
				rem := gi % (groups[0] * groups[1])
				gy := rem / groups[0]
				gx := rem % groups[0]
				if lent != nil {
					if g = <-lent; g == nil {
						g = ex.NewGroup(d, true)
					}
				}
				err := g.Run([3]int{gx, gy, gz}, gi, tr)
				if lent != nil {
					lent <- g
				}
				if err != nil {
					AbortGroup(tr)
					errs[worker] = fmt.Errorf("group (%d,%d,%d): %w", gx, gy, gz, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for i := 0; i < cap(lent); i++ {
		if g := <-lent; g != nil {
			g.Release()
		}
	}
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}
