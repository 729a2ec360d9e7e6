// Command clrun executes an OpenCL C kernel file on one of the simulated
// devices — a miniature host program for experimenting with kernels and
// with the Grover pass.
//
// Arguments are described positionally with -arg flags:
//
//	-arg fbuf:N        float buffer with N elements
//	-arg ibuf:N        int32 buffer with N elements
//	-arg local:BYTES   dynamically sized __local buffer
//	-arg int:V         int scalar
//	-arg float:V       float scalar
//
// Every buffer is filled the way groverd fills an autotune's
// (service.BuildArgs): deterministic pseudo-random values.
//
// Example (tiled transpose):
//
//	clrun -device SNB -kernel transpose -global 128,128 -local 16,16 \
//	      -arg fbuf:16384 -arg fbuf:16384 -arg int:128 -arg int:128 \
//	      -time -grover -dump 0:8 transpose.cl
package main

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"

	"grover/internal/clc"
	igrover "grover/internal/grover"
	"grover/internal/ir"
	"grover/internal/service"
	"grover/internal/telemetry"
	"grover/internal/vm"
	"grover/opencl"
)

type argList []string

func (a *argList) String() string     { return strings.Join(*a, " ") }
func (a *argList) Set(v string) error { *a = append(*a, v); return nil }

func main() {
	var args argList
	var global, local service.Dims
	var (
		deviceName = flag.String("device", "SNB", "device (Fermi, Kepler, Tahiti, SNB, Nehalem, MIC)")
		kernel     = flag.String("kernel", "", "kernel name (default: first kernel in file)")
		useGrover  = flag.Bool("grover", false, "run the Grover-transformed kernel as well and compare times")
		timed      = flag.Bool("time", false, "use the device cost model and report simulated time")
		dump       = flag.String("dump", "", "print buffer contents after the run: ARGINDEX:COUNT")
		kprofile   = flag.Bool("kernel-profile", false, "attribute each launch's wall time and retire/traffic counters to its barrier-delimited regions")
		traceOut   = flag.String("trace-out", "", "append this run's telemetry trace (compile stages, launches) to a JSONL file")
	)
	flag.Var(&args, "arg", "kernel argument spec (repeatable, in declaration order)")
	flag.Var(&global, "global", "global size x[,y[,z]] (e.g. 128,128; default 1)")
	flag.Var(&local, "local", "local size x[,y[,z]] (default 1)")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: clrun [flags] kernel.cl")
		flag.PrintDefaults()
		os.Exit(2)
	}
	if err := run(flag.Arg(0), *deviceName, *kernel, global, local, args, *useGrover, *timed, *kprofile, *dump, *traceOut); err != nil {
		fmt.Fprintln(os.Stderr, "clrun:", err)
		os.Exit(1)
	}
}

func run(file, deviceName, kernel string, global, local service.Dims, argSpecs []string,
	useGrover, timed, kprofile bool, dump, traceOut string) error {
	// The launch passes groverd's geometry and size check, and -dump's
	// argument is checked against it, before anything is compiled or
	// allocated; its count is checked once the kernel's parameters are
	// known, before any buffer is.
	specs, err := parseArgs(argSpecs)
	if err != nil {
		return err
	}
	nd, err := service.CheckLaunch(global, local, specs)
	if err != nil {
		return err
	}
	var dumpIdx, dumpCnt int
	if dump != "" {
		idxStr, cntStr, _ := strings.Cut(dump, ":")
		idx, err1 := strconv.Atoi(idxStr)
		cnt, err2 := strconv.Atoi(cntStr)
		if err1 != nil || err2 != nil || idx < 0 || idx >= len(specs) || cnt < 0 {
			return fmt.Errorf("bad -dump spec %q", dump)
		}
		if specs[idx].Kind != "buffer" {
			return fmt.Errorf("-dump argument %d is not a buffer", idx)
		}
		dumpIdx, dumpCnt = idx, cnt
	}
	src, err := os.ReadFile(file)
	if err != nil {
		return err
	}
	// The whole run records into one trace; -trace-out exports it.
	rctx, tr := telemetry.WithTrace(context.Background())
	tr.SetName("clrun " + file)
	plat := opencl.NewPlatform()
	dev, err := plat.DeviceByName(deviceName)
	if err != nil {
		return err
	}
	ctx := opencl.NewContext(dev)
	prog, err := ctx.CompileProgramCtx(rctx, file, string(src), nil)
	if err != nil {
		return err
	}
	if kernel == "" {
		names := prog.KernelNames()
		if len(names) == 0 {
			return fmt.Errorf("%s contains no kernels", file)
		}
		kernel = names[0]
	}
	var dumpKind clc.ScalarKind
	if dump != "" {
		if _, err := prog.Kernel(kernel); err != nil {
			return err
		}
		params := prog.Module().Kernel(kernel).Params
		if dumpIdx >= len(params) {
			return fmt.Errorf("bad -dump spec %q: kernel %s takes %d arguments", dump, kernel, len(params))
		}
		if dumpKind = elemKind(params[dumpIdx]); dumpKind.Size() == 0 {
			return fmt.Errorf("bad -dump spec %q: argument %d is a %s", dump, dumpIdx, params[dumpIdx].Typ)
		}
		if n := specs[dumpIdx].Size / dumpKind.Size(); dumpCnt > n {
			return fmt.Errorf("bad -dump spec %q: argument %d holds %d %s values", dump, dumpIdx, n, dumpKind)
		}
	}
	kargs := service.BuildArgs(ctx, specs)

	// One queue for the run: a profiling queue holds the device model —
	// a cache hierarchy per core — and every launch starts it afresh.
	q := ctx.NewQueue()
	if timed {
		if q, err = ctx.NewProfilingQueue(); err != nil {
			return err
		}
	}
	launch := func(p *opencl.Program, label string) error {
		k, err := p.Kernel(kernel)
		if err != nil {
			return err
		}
		var prof *vm.Profiler
		if kprofile {
			prof = vm.NewProfiler()
			q.SetKernelProfiler(prof)
		}
		end := telemetry.StartSpan(rctx, "launch:"+label)
		evt, err := q.EnqueueNDRange(k, nd, kargs...)
		end()
		if err != nil {
			return fmt.Errorf("%s: %w", label, err)
		}
		if prof != nil {
			fmt.Printf("\n--- kernel profile (%s) ---\n%s\n", label, prof.Report().Text())
		}
		if timed {
			fmt.Printf("%-12s %.4f ms (simulated on %s)\n", label, evt.Duration(), dev.Name())
			for _, c := range evt.Stats.Caches {
				fmt.Printf("  %-4s %8d accesses, %5.1f%% hits\n",
					c.Name, c.Accesses, 100*c.HitRate())
			}
			if evt.Stats.DRAMAccesses > 0 {
				fmt.Printf("  dram %8d accesses\n", evt.Stats.DRAMAccesses)
			}
		} else {
			fmt.Printf("%-12s ok\n", label)
		}
		return nil
	}
	if err := launch(prog, "with-LM"); err != nil {
		return err
	}
	if useGrover {
		noLM, rep, err := prog.WithLocalMemoryDisabledCtx(rctx, kernel, igrover.Options{})
		if err != nil {
			return err
		}
		fmt.Print(rep)
		if err := launch(noLM, "without-LM"); err != nil {
			return err
		}
	}
	if dump != "" {
		fmt.Printf("arg %d: %v\n", dumpIdx, dumpValues(kargs[dumpIdx].(*opencl.Buffer), dumpKind, dumpCnt))
	}
	if traceOut != "" {
		tr.Finish()
		if err := appendTrace(traceOut, tr.Export()); err != nil {
			return fmt.Errorf("trace-out: %w", err)
		}
	}
	return nil
}

// elemKind is the scalar kind of what param points to — a vector's
// element kind — or KVoid when it is no pointer to scalars or vectors.
func elemKind(param *ir.Param) clc.ScalarKind {
	if ptr, ok := param.Typ.(*clc.PointerType); ok {
		switch e := ptr.Elem.(type) {
		case *clc.ScalarType:
			return e.Kind
		case *clc.VectorType:
			return e.Elem.Kind
		}
	}
	return clc.KVoid
}

// dumpValues reads the first n values of b as values of kind k, the
// element kind of the kernel parameter b is bound to, so that an int
// buffer prints ints, not the floats their bits would make.
func dumpValues(b *opencl.Buffer, k clc.ScalarKind, n int) []any {
	raw, out := b.ReadBytes(n*k.Size()), make([]any, n)
	for i := range out {
		off := uint64(i * k.Size())
		switch k {
		case clc.KFloat:
			out[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[off:]))
		case clc.KDouble:
			out[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[off:]))
		case clc.KULong:
			out[i] = binary.LittleEndian.Uint64(raw[off:])
		default:
			out[i] = vm.LoadInt(raw, off, k)
		}
	}
	return out
}

// appendTrace appends one trace export as a JSONL line, the same format
// groverd's -trace-log writes.
func appendTrace(path string, exp telemetry.TraceExport) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	line, err := json.Marshal(exp)
	if err != nil {
		return err
	}
	line = append(line, '\n')
	_, err = f.Write(line)
	return err
}

// parseArgs decodes -arg specs into the arguments they declare; nothing is
// allocated.
func parseArgs(specs []string) ([]service.ArgSpec, error) {
	out := make([]service.ArgSpec, len(specs))
	for i, spec := range specs {
		kind, rest, _ := strings.Cut(spec, ":")
		switch kind {
		case "fbuf", "ibuf":
			if strings.HasSuffix(rest, ":seed") {
				return nil, fmt.Errorf("%q: :seed is no longer accepted: every buffer gets groverd's fill", spec)
			}
			n, err := strconv.Atoi(rest)
			if err != nil || n <= 0 {
				return nil, fmt.Errorf("bad %s size in %q", kind, spec)
			}
			// Clamped so that the byte size cannot wrap; the check refuses
			// it either way.
			out[i] = service.ArgSpec{Kind: "buffer", Size: min(n, math.MaxInt/4) * 4}
		case "local":
			n, err := strconv.Atoi(rest)
			if err != nil || n <= 0 {
				return nil, fmt.Errorf("bad local size in %q", spec)
			}
			out[i] = service.ArgSpec{Kind: "local", Size: n}
		case "int":
			v, err := strconv.ParseInt(rest, 0, 64)
			if err != nil {
				return nil, fmt.Errorf("bad int in %q", spec)
			}
			out[i] = service.ArgSpec{Kind: "int", Int: v}
		case "float":
			v, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				return nil, fmt.Errorf("bad float in %q", spec)
			}
			out[i] = service.ArgSpec{Kind: "float", Float: v}
		default:
			return nil, fmt.Errorf("unknown argument kind %q (want fbuf/ibuf/local/int/float)", kind)
		}
	}
	return out, nil
}
