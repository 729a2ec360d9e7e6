package grover_test

import (
	"crypto/sha256"
	"fmt"
	"os"
	"strings"
	"testing"

	"grover"
	"grover/internal/analysis"
	"grover/internal/analysis/memaccess"
	"grover/internal/apps"
	"grover/internal/ir"
	"grover/internal/rewrite"
	"grover/opencl"
)

// The generated kernels below are the flat, temporary-heavy shape that
// makes an optimizer pass with a per-value function scan quadratic. Each
// statement reads the private variables the one before it wrote.

// deadChainSource is a kernel of n private temporaries, each computed from
// the one before, none of which reaches a store: the whole chain is dead.
func deadChainSource(n int) string {
	var sb strings.Builder
	sb.WriteString("__kernel void k(__global int* out) {\n    int g = get_global_id(0);\n    int t0 = g;\n")
	for i := 1; i < n; i++ {
		fmt.Fprintf(&sb, "    int t%d = t%d * 3 + %d;\n", i, i-1, i)
	}
	sb.WriteString("    out[g] = g;\n}\n")
	return sb.String()
}

// duplicateExprSource is a kernel of n statements over four private
// variables, each of which computes the same subexpression twice and reads
// the variables the statements before it stored.
func duplicateExprSource(n int) string {
	var sb strings.Builder
	sb.WriteString("__kernel void k(__global int* out, int a) {\n    int g = get_global_id(0);\n")
	sb.WriteString("    int v0 = g, v1 = g + 1, v2 = g + 2, v3 = g + 3;\n")
	for i := 0; i < n; i++ {
		d, x, y := i%4, (i+1)%4, (i+2)%4
		fmt.Fprintf(&sb, "    v%d = (v%d * a + v%d) ^ ((v%d * a + v%d) >> %d);\n", d, x, y, x, y, i%7+1)
	}
	sb.WriteString("    out[g] = v0 + v1 + v2 + v3;\n}\n")
	return sb.String()
}

// ifChainSource is a kernel of n consecutive ifs, three or four blocks
// each, whose bodies hold a private temporary and a duplicated
// subexpression.
func ifChainSource(n int) string {
	var sb strings.Builder
	sb.WriteString("__kernel void k(__global int* out, int a) {\n    int g = get_global_id(0);\n    int acc = 0;\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "    if (g > %d && g < a + %d) { int t = g * a + %d; acc += t ^ (g * a + %d); }\n", i, i, i, i)
	}
	sb.WriteString("    out[g] = acc;\n}\n")
	return sb.String()
}

// stressKernels are the generated kernels at the sizes the identity golden
// and the scaling test use.
var stressKernels = []struct {
	name string
	src  string
}{
	{"dead-chain-4000", deadChainSource(4000)},
	{"duplicate-expr-4000", duplicateExprSource(4000)},
	{"if-chain-2000", ifChainSource(2000)},
}

// irKeyGolden holds one line per module: a name and the first 16 hex
// digits of the SHA-256 of its ir.Module.Key.
const irKeyGolden = "testdata/ir_keys.golden"

// TestIRIdentity pins the IR the front end, the Grover pass and every
// default rewrite plan produce, by the hash of each module's Key: for each
// app, the optimized module, WithLocalMemoryDisabled with the app's
// candidates (strict), and each DefaultPlanSpace plan's rewritten module;
// then the generated stress kernels. A change to the optimizer that is
// meant to be a pure speed-up must leave every line in place.
func TestIRIdentity(t *testing.T) {
	var got []string
	add := func(name string, m *ir.Module) {
		sum := sha256.Sum256([]byte(m.Key()))
		got = append(got, fmt.Sprintf("%s %x", name, sum[:8]))
	}
	dev := opencl.NewPlatform().Devices()[0]
	for _, app := range apps.All() {
		ctx := opencl.NewContext(dev)
		prog, err := ctx.CompileProgram(app.ID+".cl", app.Source, app.Defines)
		if err != nil {
			t.Fatalf("%s: %v", app.ID, err)
		}
		add(app.ID+" opt", prog.Module())
		noLM, _, err := prog.WithLocalMemoryDisabled(app.Kernel, grover.Options{Candidates: app.Candidates, Strict: true})
		if err != nil {
			t.Fatalf("%s: %v", app.ID, err)
		}
		add(app.ID+" disabled", noLM.Module())
		inst, err := app.Setup(ctx, 1)
		if err != nil {
			t.Fatalf("%s: %v", app.ID, err)
		}
		for _, ps := range grover.DefaultPlanSpace(inst.ND.Local) {
			plan, err := rewrite.ParsePlan(ps)
			if err != nil {
				t.Fatal(err)
			}
			rp, _, err := prog.WithRewritePlan(app.Kernel, plan)
			if err != nil {
				t.Fatalf("%s %s: %v", app.ID, ps, err)
			}
			add(app.ID+" "+plan.String(), rp.Module())
		}
	}
	for _, k := range stressKernels {
		m, err := opencl.CompileModule(k.name+".cl", k.src, nil)
		if err != nil {
			t.Fatalf("%s: %v", k.name, err)
		}
		add(k.name, m)
	}

	if !matchGolden(t, irKeyGolden, got) {
		t.Logf("the modules now hash to:\n%s", strings.Join(got, "\n"))
	}
}

// matchGolden compares got with the lines of a golden file and reports
// each line that differs; it returns whether they all matched.
func matchGolden(t *testing.T, path string, got []string) bool {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSpace(string(data)), "\n")
	if strings.Join(got, "\n") == strings.Join(want, "\n") {
		return true
	}
	for i := 0; i < len(got) || i < len(want); i++ {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(want) {
			w = want[i]
		}
		if g != w {
			t.Errorf("%s line %d: got %q, want %q", path, i+1, g, w)
		}
	}
	return false
}

// accessSummaryGolden holds, per kernel form, the static access summary
// and the lint findings with the access detectors on.
const accessSummaryGolden = "testdata/access_summary.golden"

// TestAccessSummaryIdentity pins what the static analyses conclude about
// each app kernel, with local memory and with it disabled, and about the
// generated stress kernels: memaccess's loops, trip counts, guard weights
// and access forms, and every AnalyzeKernel finding. A change to the CFG,
// dominance or loop facts those analyses share must leave every line in
// place.
func TestAccessSummaryIdentity(t *testing.T) {
	var got []string
	add := func(name string, fn *ir.Function, wg [3]int) {
		got = append(got, "== "+name)
		sum := memaccess.Summarize(fn, memaccess.Options{WorkGroup: wg}).String()
		got = append(got, strings.Split(strings.TrimSuffix(sum, "\n"), "\n")...)
		res := analysis.AnalyzeKernel(fn, analysis.Options{WorkGroupSize: wg, AccessChecks: true})
		for _, f := range res.Findings {
			got = append(got, fmt.Sprintf("  %s %s @%s: %s %v", f.Severity, f.Detector, f.Pos, f.Message, f.Related))
		}
	}
	dev := opencl.NewPlatform().Devices()[0]
	for _, app := range apps.All() {
		ctx := opencl.NewContext(dev)
		prog, err := ctx.CompileProgram(app.ID+".cl", app.Source, app.Defines)
		if err != nil {
			t.Fatalf("%s: %v", app.ID, err)
		}
		inst, err := app.Setup(ctx, 1)
		if err != nil {
			t.Fatalf("%s: %v", app.ID, err)
		}
		noLM, _, err := prog.WithLocalMemoryDisabled(app.Kernel, grover.Options{Candidates: app.Candidates, Strict: true})
		if err != nil {
			t.Fatalf("%s: %v", app.ID, err)
		}
		add(app.ID+" opt", prog.Module().Kernel(app.Kernel), inst.ND.Local)
		add(app.ID+" disabled", noLM.Module().Kernel(app.Kernel), inst.ND.Local)
	}
	for _, k := range stressKernels {
		m, err := opencl.CompileModule(k.name+".cl", k.src, nil)
		if err != nil {
			t.Fatalf("%s: %v", k.name, err)
		}
		add(k.name, m.Kernel("k"), [3]int{})
	}
	if _, err := os.Stat(accessSummaryGolden); os.IsNotExist(err) {
		if err := os.WriteFile(accessSummaryGolden, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("wrote %s: review it and commit it", accessSummaryGolden)
	}
	matchGolden(t, accessSummaryGolden, got)
}

// TestPlanSpacesParse: every plan the default and per-app plan spaces name
// parses, options included, for each app's launch geometry.
func TestPlanSpacesParse(t *testing.T) {
	ctx := opencl.NewContext(opencl.NewPlatform().Devices()[0])
	for _, app := range apps.All() {
		inst, err := app.Setup(ctx, 1)
		if err != nil {
			t.Fatalf("%s: %v", app.ID, err)
		}
		plans := append(grover.DefaultPlanSpace(inst.ND.Local), app.PlanSpace(inst.ND.Local)...)
		for _, ps := range plans {
			if _, err := rewrite.ParsePlan(ps); err != nil {
				t.Errorf("%s: %v", app.ID, err)
			}
		}
	}
}

// TestGroverPlanMatchesDisable: on every app, the grover rewrite plan pinned
// to the app's candidates and strict yields the module
// WithLocalMemoryDisabled does with the same options, by ir.Module.Key. The
// figures time the latter and a plan search the former, so a figure can
// become a plan search without moving a number.
func TestGroverPlanMatchesDisable(t *testing.T) {
	dev := opencl.NewPlatform().Devices()[0]
	for _, app := range apps.All() {
		prog, err := opencl.NewContext(dev).CompileProgram(app.ID+".cl", app.Source, app.Defines)
		if err != nil {
			t.Fatalf("%s: %v", app.ID, err)
		}
		ps := "grover"
		if len(app.Candidates) > 0 {
			ps = "grover(strict;cands=" + strings.Join(app.Candidates, "+") + ")"
		}
		rp, _, err := prog.WithRewritePlan(app.Kernel, rewrite.MustParsePlan(ps))
		if err != nil {
			t.Fatalf("%s %s: %v", app.ID, ps, err)
		}
		noLM, _, err := prog.WithLocalMemoryDisabled(app.Kernel, grover.Options{Candidates: app.Candidates, Strict: true})
		if err != nil {
			t.Fatalf("%s: %v", app.ID, err)
		}
		if rp.Module().Key() != noLM.Module().Key() {
			t.Errorf("%s: plan %s and WithLocalMemoryDisabled give different modules", app.ID, ps)
		}
	}
}
