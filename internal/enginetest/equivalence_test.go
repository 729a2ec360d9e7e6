// The engine equivalence suite. interp, the oracle, and wgvec, the engine
// every timing runs on, must agree on every distinct kernel the repo times:
// each benchmark app's base kernel, its Grover version, and every kernel
// its differential and default plan spaces rewrite it into. Agreement is
// byte-identical global memory, the app's host check on the oracle's
// memory, and identical device.Results on all six device models — which
// requires identical memory-trace streams.
package enginetest_test

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"grover"
	"grover/internal/apps"
	"grover/internal/device"
	"grover/internal/enginetest"
	igrover "grover/internal/grover"
	"grover/internal/rewrite"
	"grover/internal/vm"
	"grover/opencl"
)

// backends under comparison; the interpreter is the reference.
var backends = enginetest.Engines()

// fixture is one distinct kernel launch: a version of an app's program and
// the instance and initial memory it starts from.
type fixture struct {
	version string
	app     *apps.App
	prog    *opencl.Program
	inst    *apps.Instance
	mem     *vm.GlobalMem
	initial []byte
}

// appFixtures compiles every version of app, in a context of its own, and
// returns those whose (module key, kernel, NDRange, initial memory) seen
// has not met yet. It also returns how many versions it compiled.
func appFixtures(t *testing.T, app *apps.App, seen map[string]bool) ([]fixture, int) {
	t.Helper()
	ctx := opencl.NewContext(opencl.NewPlatform().Devices()[0])
	prog, err := ctx.CompileProgram(app.ID+".cl", app.Source, app.Defines)
	if err != nil {
		t.Fatalf("%s: compile: %v", app.ID, err)
	}
	inst, err := app.Setup(ctx, 1)
	if err != nil {
		t.Fatalf("%s: setup: %v", app.ID, err)
	}
	initial := append([]byte(nil), ctx.Mem().Data...)
	versions := []fixture{{version: "base", prog: prog}}
	nolm, _, err := prog.WithLocalMemoryDisabled(app.Kernel, igrover.Options{Candidates: app.Candidates})
	switch {
	case err == nil:
		versions = append(versions, fixture{version: "lm-disabled", prog: nolm})
	case errors.Is(err, igrover.ErrNoCandidates):
		// No local staging to disable; the other versions still run.
	default:
		t.Fatalf("%s: grover transform: %v", app.ID, err)
	}
	for _, ps := range append(app.PlanSpace(inst.ND.Local), grover.DefaultPlanSpace(inst.ND.Local)...) {
		plan, err := rewrite.ParsePlan(ps)
		if err != nil {
			t.Fatal(err)
		}
		if len(plan.Steps) == 0 {
			continue // the base version
		}
		// Every plan error fails: an illegal plan is what this suite is for.
		rp, rep, err := prog.WithRewritePlan(app.Kernel, plan)
		if err != nil {
			t.Errorf("%s: plan %s: %v", app.ID, ps, err)
			continue
		}
		if rep.Changed() {
			versions = append(versions, fixture{version: rep.Plan, prog: rp})
		}
	}

	mem := fmt.Sprintf("%x", sha256.Sum256(initial))
	var out []fixture
	for _, v := range versions {
		key := strings.Join([]string{v.prog.Module().Key(), app.Kernel, fmt.Sprint(inst.ND), mem}, "\x00")
		if seen[key] {
			continue
		}
		seen[key] = true
		v.app, v.inst, v.mem, v.initial = app, inst, ctx.Mem(), initial
		out = append(out, v)
	}
	return out, len(versions)
}

// TestEngineEquivalence runs each distinct fixture three times: interp
// traced on a set of all six device models, whose memory is the reference
// and must pass the app's host check; wgvec untraced; and wgvec traced on a
// fresh set of six, whose memory and every device.Result must equal the
// interpreter's.
func TestEngineEquivalence(t *testing.T) {
	sweep := apps.All()
	if testing.Short() {
		// One staging app (2D), one candidate-restricted matmul, and the
		// strided-gather app cover the distinct rewrite shapes. A set of six
		// costs one execution, so -short trims apps, not devices.
		sweep = sweep[:0]
		for _, id := range []string{"NVD-MT", "NVD-MM-A", "ROD-SC"} {
			a, err := apps.ByID(id)
			if err != nil {
				t.Fatal(err)
			}
			sweep = append(sweep, a)
		}
	}
	seen := map[string]bool{}
	programs := 0
	byApp := make([][]fixture, len(sweep))
	for i, app := range sweep {
		var n int
		byApp[i], n = appFixtures(t, app, seen)
		programs += n
	}
	t.Logf("%d distinct fixtures from %d (app, version) programs", len(seen), programs)

	for i, app := range sweep {
		fixtures := byApp[i]
		if len(fixtures) == 0 {
			continue
		}
		t.Run(app.ID, func(t *testing.T) {
			t.Parallel()
			for _, fx := range fixtures {
				t.Run(fx.version, func(t *testing.T) { runFixture(t, fx) })
			}
		})
	}
}

func runFixture(t *testing.T, fx fixture) {
	vargs, err := opencl.VMArgs(fx.inst.Args...)
	if err != nil {
		t.Fatalf("args: %v", err)
	}
	cfg := vm.Config{GlobalSize: fx.inst.ND.Global, LocalSize: fx.inst.ND.Local, Args: vargs}
	mem := fx.mem
	launch := func(engine string, opts *vm.LaunchOpts) {
		t.Helper()
		mem.Data = mem.Data[:len(fx.initial)]
		copy(mem.Data, fx.initial)
		cfg.Backend = engine
		if err := fx.prog.VM().Launch(fx.app.Kernel, cfg, mem, opts); err != nil {
			t.Fatalf("%s launch: %v", engine, err)
		}
	}
	profiles := device.All()
	traced := func(engine string) []device.Result {
		t.Helper()
		set, err := device.NewSet(profiles)
		if err != nil {
			t.Fatal(err)
		}
		launch(engine, set.Opts())
		res := make([]device.Result, len(profiles))
		for i := range res {
			res[i] = set.Result(i)
		}
		return res
	}

	want := traced(backends[0])
	ref := append([]byte(nil), mem.Data...)
	// Bit-identical wrong answers are still wrong.
	if err := fx.inst.Check(); err != nil {
		t.Fatalf("%s result: %v", backends[0], err)
	}
	for _, engine := range backends[1:] {
		launch(engine, nil)
		if !bytes.Equal(mem.Data, ref) {
			t.Fatalf("global memory differs between %s and %s", backends[0], engine)
		}
		got := traced(engine)
		if !bytes.Equal(mem.Data, ref) {
			t.Fatalf("global memory of a traced launch differs between %s and %s", backends[0], engine)
		}
		for i, prof := range profiles {
			if !reflect.DeepEqual(want[i], got[i]) {
				t.Errorf("%s: device counters differ\n %s: %+v\n %s: %+v",
					prof.Name, backends[0], want[i], engine, got[i])
			}
		}
	}
}
