package grover_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"grover/internal/apps"
	"grover/internal/enginetest"
	"grover/internal/rewrite"
	"grover/internal/vm"
	"grover/opencl"
)

// planDiffBackends are the backends every rewrite plan must agree on.
var planDiffBackends = enginetest.Engines()

// planSpace is the differential plan list for one app: the Grover
// direction pinned to the app's candidate set, address hoisting alone and
// combined, a phase-order variant, and — for 1D launches — the inverse
// stage-local direction plus the stage-local→grover round trip.
func planSpace(app *apps.App, local [3]int) []string {
	g := "grover"
	if len(app.Candidates) > 0 {
		g = fmt.Sprintf("grover(cands=%s)", strings.Join(app.Candidates, "+"))
	}
	plans := []string{
		g,
		g + ",hoist-addr",
		"hoist-addr",
		g + ",opt(passes=cse+load-forward+dse+peephole+dce)",
	}
	if local[0] > 1 && local[1] <= 1 && local[2] <= 1 {
		plans = append(plans,
			fmt.Sprintf("stage-local(ls=%d)", local[0]),
			fmt.Sprintf("stage-local(ls=%d),grover", local[0]))
	}
	return plans
}

// TestPlanDifferential runs every rewrite plan over every benchmark app
// and requires bit-identical global memory across the three execution
// backends, plus a pass of the app's host-reference check. This is the
// rewrite engine's semantics gate: a plan may change the instruction
// stream, never the result.
func TestPlanDifferential(t *testing.T) {
	sweep := apps.All()
	if testing.Short() {
		// One staging app (2D), one candidate-restricted matmul, and the
		// strided-gather app cover the distinct rewrite shapes.
		short := []string{"NVD-MT", "NVD-MM-A", "ROD-SC"}
		sweep = sweep[:0]
		for _, id := range short {
			a, err := apps.ByID(id)
			if err != nil {
				t.Fatal(err)
			}
			sweep = append(sweep, a)
		}
	}
	plat := opencl.NewPlatform()
	for _, app := range sweep {
		app := app
		t.Run(app.ID, func(t *testing.T) {
			dev, err := plat.DeviceByName("SNB")
			if err != nil {
				t.Fatal(err)
			}
			// One setup decides the launch geometry and the plan list; each
			// plan then re-runs setup so buffer contents start identical.
			ctx := opencl.NewContext(dev)
			inst, err := app.Setup(ctx, 1)
			if err != nil {
				t.Fatal(err)
			}
			for _, ps := range planSpace(app, inst.ND.Local) {
				ps := ps
				t.Run(ps, func(t *testing.T) { diffOnePlan(t, app, ps) })
			}
		})
	}
}

func diffOnePlan(t *testing.T, app *apps.App, planStr string) {
	plan, err := rewrite.ParsePlan(planStr)
	if err != nil {
		t.Fatal(err)
	}
	plat := opencl.NewPlatform()
	dev, err := plat.DeviceByName("SNB")
	if err != nil {
		t.Fatal(err)
	}
	ctx := opencl.NewContext(dev)
	prog, err := ctx.CompileProgram(app.ID+".cl", app.Source, app.Defines)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := app.Setup(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	rp, rep, err := prog.WithRewritePlan(app.Kernel, plan)
	if err != nil {
		// Inapplicable plans (e.g. grover on an app whose tile the rule
		// rejects) are outside this suite's scope; illegal ones are not.
		t.Skipf("plan not applicable: %v", err)
	}
	if !rep.Changed() {
		t.Skipf("plan is a no-op on %s", app.ID)
	}
	k, err := rp.Kernel(app.Kernel)
	if err != nil {
		t.Fatal(err)
	}
	mem := ctx.Mem()
	initial := append([]byte(nil), mem.Data...)
	var ref []byte
	for _, b := range planDiffBackends {
		copy(mem.Data[:len(initial)], initial)
		if err := ctx.SetBackend(b); err != nil {
			t.Fatal(err)
		}
		if _, err := ctx.NewQueue().EnqueueNDRange(k, inst.ND, inst.Args...); err != nil {
			t.Fatalf("launch on %s: %v", b, err)
		}
		if ref == nil {
			ref = append([]byte(nil), mem.Data...)
			// The reference backend also validates against the host
			// reference: bit-identical wrong answers are still wrong.
			if err := inst.Check(); err != nil {
				t.Fatalf("host check under plan %s: %v", rep.Plan, err)
			}
			continue
		}
		if !bytes.Equal(ref, mem.Data) {
			t.Fatalf("backend %s memory diverges from %s under plan %s",
				b, planDiffBackends[0], rep.Plan)
		}
	}
}

// TestPlanDifferentialBackendsExist pins the backend list this suite
// sweeps: if a backend is renamed or removed the differential test must
// be updated, not silently weakened.
func TestPlanDifferentialBackendsExist(t *testing.T) {
	have := map[string]bool{}
	for _, b := range vm.Backends() {
		have[b] = true
	}
	for _, b := range planDiffBackends {
		if !have[b] {
			t.Fatalf("backend %q not registered (have %v)", b, vm.Backends())
		}
	}
}
