// Command groverc is the Grover compiler driver: it reads an OpenCL C
// kernel file, runs the local-memory-disabling pass, and prints the
// analysis report (the symbolic GL/LS/LL/nGL indices and the solved
// correspondence) plus, on request, the IR of both versions.
//
// Usage:
//
//	groverc [-kernel name] [-candidates a,b] [-ir] [-keep-barriers] [-timings] file.cl
//	groverc -D TILE=16 -D N=1024 kernel.cl
//	groverc -rewrite 'stage-local(ls=64),hoist-addr' -ir kernel.cl
//	groverc -access -local 64,1,1 kernel.cl
//
// The file is one groverd compile request and each kernel one transform
// request (POST /v1/compile, /v1/transform), run in process; the output
// is a view of their responses. Lint findings are groverlint's.
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
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"grover/internal/analysis/memaccess"
	igrover "grover/internal/grover"
	"grover/internal/service"
	"grover/internal/telemetry"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is groverc with its command line, output streams and exit status
// made explicit.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("groverc", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: groverc [flags] kernel.cl  (lint findings: groverlint kernel.cl)")
		fs.PrintDefaults()
	}
	defines := service.Defines{}
	var local service.Dims
	var (
		kernel       = fs.String("kernel", "", "kernel to transform (default: every kernel in the file)")
		candidates   = fs.String("candidates", "", "comma-separated __local variables to disable (default: all)")
		dumpIR       = fs.Bool("ir", false, "print the IR of the original and transformed kernels")
		keepBarriers = fs.Bool("keep-barriers", false, "do not remove barriers after disabling local memory")
		cloneAll     = fs.Bool("clone-all", false, "duplicate the whole GL tree per load (disable subexpression reuse)")
		strict       = fs.Bool("strict", false, "fail when any candidate is not reversible")
		timings      = fs.Bool("timings", false, "print per-stage compile pipeline timings to stderr")
		plan         = fs.String("rewrite", "", "apply a rewrite plan (e.g. 'grover', 'stage-local(ls=64),hoist-addr') instead of the Grover pass")
		accessDump   = fs.Bool("access", false, "print the static memory-access summary per kernel and exit")
	)
	fs.Var(defines, "D", "preprocessor define NAME[=VALUE] (repeatable)")
	fs.Var(&local, "local", "work-group size x[,y[,z]] used by -access (default 64,1,1)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "groverc:", err)
		return 1
	}
	file := fs.Arg(0)
	src, err := os.ReadFile(file)
	if err != nil {
		return fail(err)
	}

	// With -timings every call records its spans on ctx's trace; the table
	// is printed once all compiles and transforms are done.
	ctx := context.Background()
	if *timings {
		ctx, _ = telemetry.WithTrace(ctx)
	}
	srv := service.New(service.Config{Workers: 1})
	compile := &service.CompileRequest{Name: file, Source: string(src), Defines: defines, WantIR: *dumpIR}
	comp, err := srv.Compile(ctx, compile)
	if err != nil {
		return fail(err)
	}
	kernels := comp.Kernels
	if *kernel != "" {
		kernels = []string{*kernel}
	}
	if len(kernels) == 0 {
		return fail(fmt.Errorf("%s contains no kernels", file))
	}

	if *accessDump {
		mod, err := srv.Module(ctx, compile)
		if err != nil {
			return fail(err)
		}
		for _, k := range kernels {
			fn := mod.Kernel(k)
			if fn == nil {
				return fail(fmt.Errorf("%s: no kernel %q", file, k))
			}
			fmt.Fprint(stdout, memaccess.Summarize(fn, memaccess.Options{WorkGroup: local}).String())
		}
		return 0
	}

	exit := 0
	for _, k := range kernels {
		req := &service.TransformRequest{Name: file, Source: string(src), Defines: defines, Kernel: k, Plan: *plan, WantIR: *dumpIR,
			Options: service.OptionsSpec{KeepBarriers: *keepBarriers, CloneAll: *cloneAll, Strict: *strict}}
		if *candidates != "" {
			req.Options.Candidates = strings.Split(*candidates, ",")
		}
		resp, err := srv.Transform(ctx, req)
		if *plan == "" && errors.Is(err, igrover.ErrNoCandidates) {
			fmt.Fprintf(stdout, "kernel %s: no local memory usage\n", k)
			continue
		}
		if err != nil {
			fmt.Fprintf(stderr, "groverc: kernel %s: %v\n", k, err)
			exit = 1
			continue
		}
		label := "rewritten"
		if resp.Rewrite != nil {
			fmt.Fprint(stdout, resp.Rewrite.Text)
		} else {
			label = "transformed"
			fmt.Fprint(stdout, resp.Report.Text)
		}
		if *dumpIR {
			fmt.Fprintf(stdout, "\n--- original IR (%s) ---\n%s", k, comp.IR)
			fmt.Fprintf(stdout, "\n--- %s IR (%s) ---\n%s", label, k, resp.IR)
		}
	}
	if tr := telemetry.FromContext(ctx); tr != nil {
		fmt.Fprint(stderr, tr.Table())
	}
	return exit
}
