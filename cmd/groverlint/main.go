// Command groverlint runs the static analysis suite over OpenCL C kernel
// files: barrier divergence, local-memory races, local-array bounds, and
// the Grover rewrite-legality verdict for every __local buffer. With
// -access it also runs the performance detectors backed by the static
// access summary: uncoalesced global accesses, bank-conflicted local
// staging, and barriers that synchronize no cross-item communication.
//
// Usage:
//
//	groverlint [-json] [-kernel name] [-local x,y,z] [-Werror] file.cl...
//	groverlint -D TILE=16 kernel.cl
//	groverlint -corpus
//	groverlint -corpus -plan grover
//	groverlint -access -local 64 kernel.cl
//
// Each file is one groverd lint request (POST /v1/lint), run in process,
// and the output is a view of its response.
//
// With -plan, each kernel is first rewritten by the given rewrite plan
// (e.g. "grover" or "stage-local(ls=64),hoist-addr") and the analyzers
// run over the rewrite-produced IR — the check CI uses to prove rewrite
// plans introduce no new findings.
//
// The -local flag supplies the launch's work-group extents; without it
// the bounds intervals stay unbounded and the race prover cannot
// establish cross-work-item disjointness, so expect fewer (bounds) or
// more (race) findings. -corpus lints the 11 built-in benchmark
// applications at their default work-group sizes.
//
// Exit status: 0 clean, 1 when any error-severity finding was reported
// (or any finding at all with -Werror), 2 on usage or compile failure.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"grover/internal/analysis"
	"grover/internal/apps"
	"grover/internal/service"
	"grover/opencl"
)

func main() {
	defines := service.Defines{}
	var local service.Dims
	var (
		asJSON  = flag.Bool("json", false, "emit findings and legality verdicts as JSON")
		kernel  = flag.String("kernel", "", "restrict the report to one kernel")
		corpus  = flag.Bool("corpus", false, "lint the built-in benchmark applications instead of files")
		wError  = flag.Bool("Werror", false, "treat warnings as errors for the exit status")
		quietOK = flag.Bool("q", false, "suppress the per-file OK line and legality verdicts")
		plan    = flag.String("plan", "", "apply a rewrite plan to every kernel before analysis")
		access  = flag.Bool("access", false, "enable the access-pattern performance detectors (coalescing, bank conflicts, barrier communication)")
	)
	flag.Var(defines, "D", "preprocessor define NAME[=VALUE] (repeatable)")
	flag.Var(&local, "local", "work-group size as x[,y[,z]] (default: unknown)")
	flag.Parse()

	if *corpus != (flag.NArg() == 0) {
		fmt.Fprintln(os.Stderr, "usage: groverlint [flags] kernel.cl...  |  groverlint [flags] -corpus")
		flag.PrintDefaults()
		os.Exit(2)
	}

	l := &linter{srv: service.New(service.Config{Workers: 1}), json: *asJSON, werror: *wError, quiet: *quietOK}
	req := service.LintRequest{Kernel: *kernel, Plan: *plan, Access: *access}
	if *corpus {
		for _, app := range apps.All() {
			l.lintApp(req, app)
		}
	} else {
		for _, file := range flag.Args() {
			src, err := os.ReadFile(file)
			if err != nil {
				fmt.Fprintln(os.Stderr, "groverlint:", err)
				os.Exit(2)
			}
			req.Name, req.Source, req.Defines, req.Local = file, string(src), defines, local
			l.lint(req)
		}
	}
	os.Exit(l.exit)
}

type linter struct {
	srv    *service.Server
	json   bool
	werror bool
	quiet  bool
	exit   int
}

// jsonReport is the machine-readable per-file output.
type jsonReport struct {
	File string `json:"file"`
	*analysis.Result
}

// lintApp lints app at the work-group size of its default dataset.
func (l *linter) lintApp(req service.LintRequest, app *apps.App) {
	plat := opencl.NewPlatform()
	dev, err := plat.DeviceByName("SNB")
	if err != nil {
		l.fail(err)
		return
	}
	inst, err := app.Setup(opencl.NewContext(dev), 1)
	if err != nil {
		l.fail(fmt.Errorf("%s: setup: %w", app.ID, err))
		return
	}
	req.Name, req.Source, req.Defines, req.Local = app.ID+".cl", app.Source, app.Defines, inst.ND.Local
	l.lint(req)
}

// lint runs one lint request and reports its response.
func (l *linter) lint(req service.LintRequest) {
	resp, err := l.srv.Lint(context.Background(), &req)
	if err != nil {
		l.fail(fmt.Errorf("%s: %w", req.Name, err))
		return
	}
	res := &analysis.Result{Findings: resp.Findings, Legality: resp.Legality}
	if l.json {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(jsonReport{File: req.Name, Result: res}); err != nil {
			l.fail(err)
		}
	} else {
		for _, f := range res.Findings {
			rel := ""
			for _, p := range f.Related {
				rel += fmt.Sprintf(" (see %s)", p)
			}
			fmt.Printf("%s: %s: [%s] %s%s\n", f.Pos, f.Severity, f.Detector, f.Message, rel)
		}
		if !l.quiet {
			for _, v := range res.Legality {
				verdict := "rewritable"
				if !v.Rewritable {
					verdict = fmt.Sprintf("not rewritable [%s]: %s", v.Code, v.Detail)
				}
				fmt.Printf("%s: info: [grover-legality] __local %s in kernel %s (%d LS, %d LL): %s\n",
					v.Pos, v.Name, v.Kernel, v.NumLS, v.NumLL, verdict)
			}
			if len(res.Findings) == 0 {
				fmt.Printf("%s: OK\n", req.Name)
			}
		}
	}
	if resp.MaxSeverity == string(analysis.SeverityError) || (l.werror && len(res.Findings) > 0) {
		if l.exit < 1 {
			l.exit = 1
		}
	}
}

func (l *linter) fail(err error) {
	fmt.Fprintln(os.Stderr, "groverlint:", err)
	l.exit = 2
}
