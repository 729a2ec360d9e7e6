// Command groverc is the Grover compiler driver: it reads an OpenCL C
// kernel file, runs the local-memory-disabling pass, and prints the
// analysis report (the symbolic GL/LS/LL/nGL indices and the solved
// correspondence) plus, on request, the IR of both versions.
//
// Usage:
//
//	groverc [-kernel name] [-candidates a,b] [-ir] [-keep-barriers] [-lint] [-timings] file.cl
//	groverc -D TILE=16 -D N=1024 kernel.cl
//	groverc -rewrite 'stage-local(ls=64),hoist-addr' -ir kernel.cl
//	groverc -access -local 64,1,1 kernel.cl
//
// With -rewrite, an arbitrary rewrite plan (see the rewrite package's
// plan syntax) replaces the default Grover pass; the per-step report is
// printed instead of the Table III correspondence report.
//
// With -access, groverc prints each kernel's static memory-access
// summary — every global/local access with its affine offset, per-lane
// and per-loop-iteration strides, loops with trip estimates, and
// barriers — instead of transforming anything. -local supplies the
// work-group extents the summary assumes (default 64,1,1).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"grover/internal/analysis"
	"grover/internal/analysis/memaccess"
	igrover "grover/internal/grover"
	"grover/internal/rewrite"
	"grover/internal/telemetry"
	"grover/opencl"
)

type defineFlags map[string]string

func (d defineFlags) String() string { return "" }
func (d defineFlags) Set(v string) error {
	name, val, found := strings.Cut(v, "=")
	if !found {
		val = "1"
	}
	d[name] = val
	return nil
}

func main() {
	defines := defineFlags{}
	var (
		kernel       = flag.String("kernel", "", "kernel to transform (default: every kernel in the file)")
		candidates   = flag.String("candidates", "", "comma-separated __local variables to disable (default: all)")
		dumpIR       = flag.Bool("ir", false, "print the IR of the original and transformed kernels")
		keepBarriers = flag.Bool("keep-barriers", false, "do not remove barriers after disabling local memory")
		cloneAll     = flag.Bool("clone-all", false, "duplicate the whole GL tree per load (disable subexpression reuse)")
		strict       = flag.Bool("strict", false, "fail when any candidate is not reversible")
		lint         = flag.Bool("lint", false, "run the static analyzers before transforming and print their findings")
		timings      = flag.Bool("timings", false, "print per-stage compile pipeline timings to stderr")
		rewritePlan  = flag.String("rewrite", "", "apply a rewrite plan (e.g. 'grover', 'stage-local(ls=64),hoist-addr') instead of the Grover pass")
		accessDump   = flag.Bool("access", false, "print the static memory-access summary per kernel and exit")
		localSize    = flag.String("local", "", "work-group size x[,y[,z]] used by -access (default 64,1,1)")
	)
	flag.Var(defines, "D", "preprocessor define NAME[=VALUE] (repeatable)")
	flag.Parse()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: groverc [flags] kernel.cl")
		flag.PrintDefaults()
		os.Exit(2)
	}
	file := flag.Arg(0)
	src, err := os.ReadFile(file)
	if err != nil {
		fatal(err)
	}

	plat := opencl.NewPlatform()
	dev, err := plat.DeviceByName("SNB")
	if err != nil {
		fatal(err)
	}
	ctx := opencl.NewContext(dev)
	// With -timings every pipeline stage records a span on tctx; the
	// table is printed once all compiles and transforms are done.
	tctx := context.Background()
	if *timings {
		tctx, _ = telemetry.WithTrace(tctx)
	}
	prog, err := ctx.CompileProgramCtx(tctx, file, string(src), defines)
	if err != nil {
		fatal(err)
	}

	kernels := prog.KernelNames()
	if *kernel != "" {
		kernels = []string{*kernel}
	}
	if len(kernels) == 0 {
		fatal(fmt.Errorf("%s contains no kernels", file))
	}

	opts := igrover.Options{
		KeepBarriers: *keepBarriers,
		CloneAll:     *cloneAll,
		Strict:       *strict,
	}
	if *candidates != "" {
		opts.Candidates = strings.Split(*candidates, ",")
	}

	if *accessDump {
		wg := [3]int{}
		if *localSize != "" {
			if wg, err = parseLocal(*localSize); err != nil {
				fatal(err)
			}
		}
		for _, k := range kernels {
			fn := prog.Module().Kernel(k)
			if fn == nil {
				fatal(fmt.Errorf("%s: no kernel %q", file, k))
			}
			fmt.Print(memaccess.Summarize(fn, memaccess.Options{WorkGroup: wg}).String())
		}
		os.Exit(0)
	}

	exit := 0
	if *lint {
		// Lint the compiled module before transforming. The work-group
		// size is unknown here (it is a launch-time property), so bounds
		// intervals are unbounded; use groverlint -local for tight checks.
		mod, err := opencl.CompileModule(file, string(src), defines)
		if err != nil {
			fatal(err)
		}
		res := analysis.AnalyzeModule(mod, analysis.Options{})
		for _, f := range res.Findings {
			fmt.Fprintf(os.Stderr, "%s: %s: [%s] %s\n", f.Pos, f.Severity, f.Detector, f.Message)
		}
		if res.MaxSeverity() == analysis.SeverityError {
			exit = 1
		}
	}
	if *rewritePlan != "" {
		plan, err := rewrite.ParsePlan(*rewritePlan)
		if err != nil {
			fatal(err)
		}
		for _, k := range kernels {
			rp, rep, err := prog.WithRewritePlanCtx(tctx, k, plan)
			if err != nil {
				fmt.Fprintf(os.Stderr, "groverc: kernel %s: %v\n", k, err)
				exit = 1
				continue
			}
			fmt.Print(rep)
			if *dumpIR {
				fmt.Printf("\n--- original IR (%s) ---\n%s", k, prog.IR())
				fmt.Printf("\n--- rewritten IR (%s) ---\n%s", k, rp.IR())
			}
		}
		if tr := telemetry.FromContext(tctx); tr != nil {
			fmt.Fprint(os.Stderr, tr.Table())
		}
		os.Exit(exit)
	}
	for _, k := range kernels {
		noLM, rep, err := prog.WithLocalMemoryDisabledCtx(tctx, k, opts)
		if err == igrover.ErrNoCandidates {
			fmt.Printf("kernel %s: no local memory usage\n", k)
			continue
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "groverc: kernel %s: %v\n", k, err)
			exit = 1
			continue
		}
		fmt.Print(rep)
		if *dumpIR {
			fmt.Printf("\n--- original IR (%s) ---\n%s", k, prog.IR())
			fmt.Printf("\n--- transformed IR (%s) ---\n%s", k, noLM.IR())
		}
	}
	if tr := telemetry.FromContext(tctx); tr != nil {
		fmt.Fprint(os.Stderr, tr.Table())
	}
	os.Exit(exit)
}

// parseLocal parses "x", "x,y" or "x,y,z" into work-group extents;
// omitted trailing dimensions default to 1.
func parseLocal(s string) ([3]int, error) {
	wg := [3]int{1, 1, 1}
	parts := strings.Split(s, ",")
	if len(parts) > 3 {
		return wg, fmt.Errorf("-local %q: at most three dimensions", s)
	}
	for d, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || v <= 0 {
			return wg, fmt.Errorf("-local %q: dimension %d is not a positive integer", s, d)
		}
		wg[d] = v
	}
	return wg, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "groverc:", err)
	os.Exit(1)
}
