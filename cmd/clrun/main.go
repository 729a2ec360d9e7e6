// Command clrun executes an OpenCL C kernel file on one of the simulated
// devices — a miniature host program for experimenting with kernels and
// with the Grover pass.
//
// Arguments are described positionally with -arg flags:
//
//	-arg fbuf:N        float buffer with N elements, zero filled
//	-arg fbuf:N:seed   float buffer with N deterministic pseudo-random values
//	-arg ibuf:N        int32 buffer with N elements
//	-arg local:BYTES   dynamically sized __local buffer
//	-arg int:V         int scalar
//	-arg float:V       float scalar
//
// Example (tiled transpose):
//
//	clrun -device SNB -kernel transpose -global 128,128 -local 16,16 \
//	      -arg fbuf:16384 -arg fbuf:16384:seed -arg int:128 -arg int:128 \
//	      -time -grover -dump 0:8 transpose.cl
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	igrover "grover/internal/grover"
	"grover/internal/telemetry"
	"grover/internal/vm"
	"grover/opencl"
)

type argList []string

func (a *argList) String() string     { return strings.Join(*a, " ") }
func (a *argList) Set(v string) error { *a = append(*a, v); return nil }

func main() {
	var args argList
	var (
		deviceName = flag.String("device", "SNB", "device (Fermi, Kepler, Tahiti, SNB, Nehalem, MIC)")
		kernel     = flag.String("kernel", "", "kernel name (default: first kernel in file)")
		globalStr  = flag.String("global", "1", "global size, comma separated (e.g. 128,128)")
		localStr   = flag.String("local", "1", "local size, comma separated")
		useGrover  = flag.Bool("grover", false, "run the Grover-transformed kernel as well and compare times")
		timed      = flag.Bool("time", false, "use the device cost model and report simulated time")
		dump       = flag.String("dump", "", "print buffer contents after the run: ARGINDEX:COUNT")
		backend    = flag.String("backend", "", "execution backend (interp, wgvec; default: $GROVER_BACKEND, else wgvec)")
		kprofile   = flag.Bool("kernel-profile", false, "attribute each launch's wall time and retire/traffic counters to its barrier-delimited regions")
		traceOut   = flag.String("trace-out", "", "append this run's telemetry trace (compile stages, launches) to a JSONL file")
	)
	flag.Var(&args, "arg", "kernel argument spec (repeatable, in declaration order)")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: clrun [flags] kernel.cl")
		flag.PrintDefaults()
		os.Exit(2)
	}
	if _, err := vm.ResolveBackend(*backend); err != nil {
		fmt.Fprintln(os.Stderr, "clrun:", err)
		os.Exit(2)
	}
	if err := run(flag.Arg(0), *deviceName, *kernel, *globalStr, *localStr, args, *useGrover, *timed, *kprofile, *backend, *dump, *traceOut); err != nil {
		fmt.Fprintln(os.Stderr, "clrun:", err)
		os.Exit(1)
	}
}

func run(file, deviceName, kernel, globalStr, localStr string, argSpecs []string,
	useGrover, timed, kprofile bool, backend, dump, traceOut string) error {
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
	if backend != "" {
		if err := ctx.SetBackend(backend); err != nil {
			return err
		}
	}
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
	nd, err := parseND(globalStr, localStr)
	if err != nil {
		return err
	}
	kargs, bufs, err := buildArgs(ctx, argSpecs)
	if err != nil {
		return err
	}
	// -dump is checked before anything runs: the count is outside input and
	// must be one the buffer holds.
	var dumpBuf *opencl.Buffer
	var dumpIdx, dumpCnt int
	if dump != "" {
		idxStr, cntStr, _ := strings.Cut(dump, ":")
		idx, err1 := strconv.Atoi(idxStr)
		cnt, err2 := strconv.Atoi(cntStr)
		if err1 != nil || err2 != nil || idx < 0 || idx >= len(kargs) {
			return fmt.Errorf("bad -dump spec %q", dump)
		}
		b, ok := bufs[idx]
		if !ok {
			return fmt.Errorf("-dump argument %d is not a buffer", idx)
		}
		if cnt < 0 || cnt > b.Size()/4 {
			return fmt.Errorf("bad -dump spec %q: argument %d holds %d values", dump, idx, b.Size()/4)
		}
		dumpBuf, dumpIdx, dumpCnt = b, idx, cnt
	}

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
	if dumpBuf != nil {
		fmt.Printf("arg %d: %v\n", dumpIdx, dumpBuf.ReadFloat32(dumpCnt))
	}
	if traceOut != "" {
		tr.Finish()
		if err := appendTrace(traceOut, tr.Export()); err != nil {
			return fmt.Errorf("trace-out: %w", err)
		}
	}
	return nil
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

func parseND(globalStr, localStr string) (opencl.NDRange, error) {
	var nd opencl.NDRange
	parse := func(s string, out *[3]int) error {
		parts := strings.Split(s, ",")
		if len(parts) > 3 {
			return fmt.Errorf("at most 3 dimensions, got %q", s)
		}
		for i, p := range parts {
			v, err := strconv.Atoi(strings.TrimSpace(p))
			if err != nil || v <= 0 {
				return fmt.Errorf("bad dimension %q", p)
			}
			out[i] = v
		}
		return nil
	}
	if err := parse(globalStr, &nd.Global); err != nil {
		return nd, err
	}
	if err := parse(localStr, &nd.Local); err != nil {
		return nd, err
	}
	return nd, nil
}

func buildArgs(ctx *opencl.Context, specs []string) ([]interface{}, map[int]*opencl.Buffer, error) {
	var out []interface{}
	bufs := map[int]*opencl.Buffer{}
	for i, spec := range specs {
		kind, rest, _ := strings.Cut(spec, ":")
		switch kind {
		case "fbuf":
			nStr, mode, _ := strings.Cut(rest, ":")
			n, err := strconv.Atoi(nStr)
			if err != nil || n <= 0 {
				return nil, nil, fmt.Errorf("bad fbuf size in %q", spec)
			}
			b := ctx.NewBuffer(n * 4)
			if mode == "seed" {
				vals := make([]float32, n)
				s := uint32(12345)
				for j := range vals {
					s = s*1664525 + 1013904223
					vals[j] = float32(s%1000) / 1000
				}
				b.WriteFloat32(vals)
			}
			bufs[i] = b
			out = append(out, b)
		case "ibuf":
			n, err := strconv.Atoi(rest)
			if err != nil || n <= 0 {
				return nil, nil, fmt.Errorf("bad ibuf size in %q", spec)
			}
			b := ctx.NewBuffer(n * 4)
			bufs[i] = b
			out = append(out, b)
		case "local":
			n, err := strconv.Atoi(rest)
			if err != nil || n <= 0 {
				return nil, nil, fmt.Errorf("bad local size in %q", spec)
			}
			out = append(out, opencl.LocalMem{Size: n})
		case "int":
			v, err := strconv.ParseInt(rest, 0, 64)
			if err != nil {
				return nil, nil, fmt.Errorf("bad int in %q", spec)
			}
			out = append(out, v)
		case "float":
			v, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				return nil, nil, fmt.Errorf("bad float in %q", spec)
			}
			out = append(out, v)
		default:
			return nil, nil, fmt.Errorf("unknown argument kind %q (want fbuf/ibuf/local/int/float)", kind)
		}
	}
	return out, bufs, nil
}
