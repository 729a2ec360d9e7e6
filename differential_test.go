package grover_test

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"grover"
	"grover/internal/apps"
	"grover/internal/device"
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

// setDiffEngines are the engines the shared pass is checked on: one that
// hands the device models a barrier region at a time and one that reports
// every access.
var setDiffEngines = []string{"wgvec", "interp"}

// deviceLaunch times one kernel and returns one result per device.
type deviceLaunch func(*opencl.Kernel) ([]device.Result, error)

// ownQueue launches on ctx's own device through a profiling queue — a
// device set of one. What a set must report, of one or of six, is
// internal/device's business (the per-access reference model fed the
// per-core streams of a recorded launch).
func ownQueue(t *testing.T, ctx *opencl.Context, nd opencl.NDRange, args []interface{}) deviceLaunch {
	q, err := ctx.NewProfilingQueue()
	if err != nil {
		t.Fatal(err)
	}
	return func(k *opencl.Kernel) ([]device.Result, error) {
		evt, err := q.EnqueueNDRange(k, nd, args...)
		if err != nil {
			return nil, err
		}
		return []device.Result{evt.Stats}, nil
	}
}

// sharedQueue launches once for all of devs through a set queue.
func sharedQueue(t *testing.T, ctx *opencl.Context, devs []*opencl.Device, nd opencl.NDRange, args []interface{}) deviceLaunch {
	q, err := ctx.NewProfilingQueueSet(devs...)
	if err != nil {
		t.Fatal(err)
	}
	return func(k *opencl.Kernel) ([]device.Result, error) {
		evts, err := q.EnqueueNDRange(k, nd, args...)
		if err != nil {
			return nil, err
		}
		res := make([]device.Result, len(evts))
		for i, e := range evts {
			res[i] = e.Stats
		}
		return res, nil
	}
}

// planStats runs app's default plan space one launch after the other on
// the same buffers as an autotune does, and returns each executed plan's
// device counters.
func planStats(t *testing.T, ctx *opencl.Context, app *apps.App, engine string,
	queue func(*opencl.Context, *apps.Instance) deviceLaunch) map[string][]device.Result {
	t.Helper()
	if err := ctx.SetBackend(engine); err != nil {
		t.Fatal(err)
	}
	prog, err := ctx.CompileProgram(app.ID+".cl", app.Source, app.Defines)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := app.Setup(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	launch := queue(ctx, inst)
	out := map[string][]device.Result{}
	for _, ps := range grover.DefaultPlanSpace(inst.ND.Local) {
		plan, err := rewrite.ParsePlan(ps)
		if err != nil {
			t.Fatal(err)
		}
		p := prog
		if len(plan.Steps) > 0 {
			rp, rep, err := prog.WithRewritePlan(app.Kernel, plan)
			if err != nil || !rep.Changed() {
				continue
			}
			p = rp
		}
		k, err := p.Kernel(app.Kernel)
		if err != nil {
			t.Fatal(err)
		}
		res, err := launch(k)
		if err != nil {
			t.Fatalf("%s on %s: %v", plan, engine, err)
		}
		out[plan.String()] = res
	}
	return out
}

// TestSetDifferential is the shared pass's gate: one execution per plan
// charged to all six device models (opencl.SetQueue) must report, for every
// app, plan and device, exactly the counters of that device's own sequence
// of launches on a fresh context — cycles, instructions, accesses,
// transactions, every cache level, DRAM traffic and time. The six own
// sequences run on wgvec; that a device's counters do not depend on the
// engine is the engine suites' business (internal/device, internal/bcode).
func TestSetDifferential(t *testing.T) {
	devs := opencl.NewPlatform().Devices()
	ran := map[string]string{}
	for _, app := range apps.All() {
		app := app
		// The default plan space does not look at an app's candidate set, so
		// NVD-MM-A, -B and -AB are one program, plan list and launch here.
		same, dup := ran[app.Source+"\x00"+app.Kernel]
		ran[app.Source+"\x00"+app.Kernel] = app.ID
		t.Run(app.ID, func(t *testing.T) {
			if dup {
				t.Skipf("same program, plans and launch as %s", same)
			}
			if testing.Short() && strings.HasPrefix(app.ID, "NVD-MM") {
				t.Skip("the matmul is a third of the suite's time; AMD-MM covers the pattern in -short runs")
			}
			t.Parallel()
			own := make([]map[string][]device.Result, len(devs))
			for i, dev := range devs {
				own[i] = planStats(t, opencl.NewContext(dev), app, "wgvec",
					func(ctx *opencl.Context, inst *apps.Instance) deviceLaunch {
						return ownQueue(t, ctx, inst.ND, inst.Args)
					})
			}
			if len(own[0]) < 2 {
				t.Fatalf("only %d plans executed", len(own[0]))
			}
			for _, engine := range setDiffEngines {
				shared := planStats(t, opencl.NewContext(devs[0]), app, engine,
					func(ctx *opencl.Context, inst *apps.Instance) deviceLaunch {
						return sharedQueue(t, ctx, devs, inst.ND, inst.Args)
					})
				for i, dev := range devs {
					if len(own[i]) != len(shared) {
						t.Fatalf("%s executed %d plans, the shared pass on %s %d", dev.Name(), len(own[i]), engine, len(shared))
					}
					for plan, res := range own[i] {
						if !reflect.DeepEqual(res[0], shared[plan][i]) {
							t.Errorf("%s, plan %s, shared pass on %s:\n own    %+v\n shared %+v",
								dev.Name(), plan, engine, res[0], shared[plan][i])
						}
					}
				}
			}
		})
	}
}

// TestSetDifferentialFewGroups launches fewer work-groups than some devices
// have cores (MIC has 60, Tahiti 32, Fermi 16), so most simulated workers
// never get a group.
func TestSetDifferentialFewGroups(t *testing.T) {
	devs := opencl.NewPlatform().Devices()
	for _, n := range []int{16, 32, 64} { // 1, 4 and 16 groups of 16×16
		nd := opencl.NDRange{Global: [3]int{n, n, 1}, Local: [3]int{16, 16, 1}}
		for _, engine := range setDiffEngines {
			run := func(dev *opencl.Device, queue func(*opencl.Context, []interface{}) deviceLaunch) []device.Result {
				ctx := opencl.NewContext(dev)
				if err := ctx.SetBackend(engine); err != nil {
					t.Fatal(err)
				}
				prog, err := ctx.CompileProgram("transpose.cl", transposeSrc, nil)
				if err != nil {
					t.Fatal(err)
				}
				k, err := prog.Kernel("transpose")
				if err != nil {
					t.Fatal(err)
				}
				out, in := ctx.NewBuffer(n*n*4), ctx.NewBuffer(n*n*4)
				res, err := queue(ctx, []interface{}{out, in, int32(n), int32(n)})(k)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			shared := run(devs[0], func(ctx *opencl.Context, args []interface{}) deviceLaunch {
				return sharedQueue(t, ctx, devs, nd, args)
			})
			for i, dev := range devs {
				own := run(dev, func(ctx *opencl.Context, args []interface{}) deviceLaunch {
					return ownQueue(t, ctx, nd, args)
				})
				if !reflect.DeepEqual(own[0], shared[i]) {
					t.Errorf("%s, %d×%d on %s:\n own    %+v\n shared %+v", dev.Name(), n, n, engine, own[0], shared[i])
				}
			}
		}
	}
}

// TestTuneSetOwnSequences: Tune runs the whole device set in one context
// from one execution per plan, and every device must still get exactly the
// search it would perform alone: the default plan space timed in plan order
// on a context and profiling queue of its own (ownQueue) — the same plans
// applied, the same timings, the same winner.
func TestTuneSetOwnSequences(t *testing.T) {
	app, err := apps.ByID("AMD-SS") // data-dependent early exits, seven plans
	if err != nil {
		t.Fatal(err)
	}
	mod, err := opencl.CompileModule(app.ID+".cl", app.Source, app.Defines)
	if err != nil {
		t.Fatal(err)
	}
	devs := opencl.NewPlatform().Devices()
	scratch, err := app.Setup(opencl.NewContext(devs[0]), 1)
	if err != nil {
		t.Fatal(err)
	}
	plans := grover.DefaultPlanSpace(scratch.ND.Local)

	fills := 0
	set := grover.Tune(context.Background(), devs, app.Kernel, grover.LaunchSpec{
		Program: func(ctx *opencl.Context) (*opencl.Program, error) {
			return ctx.NewProgramFromIR(app.ID+".cl", mod)
		},
		ND: scratch.ND, Plans: plans,
		Args: func(ctx *opencl.Context) ([]interface{}, error) {
			fills++
			inst, err := app.Setup(ctx, 1)
			if err != nil {
				return nil, err
			}
			return inst.Args, nil
		},
	})

	sets := map[*grover.LaunchSet]bool{}
	for i, dev := range devs {
		if set[i].Err != nil {
			t.Fatalf("%s: %v", dev.Name(), set[i].Err)
		}
		sets[set[i].Set] = true

		own := planStats(t, opencl.NewContext(dev), app, "wgvec",
			func(ctx *opencl.Context, inst *apps.Instance) deviceLaunch {
				return ownQueue(t, ctx, inst.ND, inst.Args)
			})

		got := set[i].Result
		if len(got.PlanSearch) != len(plans) {
			t.Fatalf("%s: %d plans in the set's search, want %d", dev.Name(), len(got.PlanSearch), len(plans))
		}
		best, bestMS, baseMS := "", 0.0, 0.0
		for j, g := range got.PlanSearch {
			res, ran := own[g.Plan]
			ms := 0.0
			if ran {
				ms = res[0].TimeMS
				if best == "" || ms < bestMS {
					best, bestMS = g.Plan, ms
				}
				if g.Plan == rewrite.BasePlanName {
					baseMS = ms
				}
			}
			if g.Plan != plans[j] || g.Applied != ran || g.MS != ms || g.Err != "" {
				t.Errorf("%s, plan %s: in the set %+v; on its own ran %v, %v ms",
					dev.Name(), plans[j], g, ran, ms)
			}
		}
		if got.Plan != best || got.TransformedMS != bestMS || got.OriginalMS != baseMS {
			t.Errorf("%s: set verdict %s; on its own plan %s, base %v ms, best %v ms",
				dev.Name(), got, best, baseMS, bestMS)
		}
	}
	if len(sets) != 1 {
		t.Errorf("the six results name %d launch sets, want 1", len(sets))
	}
	if fills != 1 {
		t.Errorf("Args built %d argument lists, want 1", fills)
	}
}
