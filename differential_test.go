package grover_test

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"

	"grover"
	"grover/internal/apps"
	"grover/internal/device"
	"grover/internal/rewrite"
	"grover/opencl"
)

// TestPlanDifferential is the rewrite engine's semantics gate: every plan
// of every app's plan space must apply (an error fails, whatever it is),
// change the kernel, and leave global memory byte-identical to the base
// kernel's, which must pass the app's host check. A plan may change the
// instruction stream, never the result. It runs on the default engine; that
// the interpreter computes the same memory and device counters for each of
// these programs is internal/enginetest's equivalence suite.
func TestPlanDifferential(t *testing.T) {
	sweep := apps.All()
	if testing.Short() {
		// One staging app (2D), one candidate-restricted matmul, and the
		// strided-gather app cover the distinct rewrite shapes.
		sweep = sweep[:0]
		for _, id := range []string{"NVD-MT", "NVD-MM-A", "ROD-SC"} {
			a, err := apps.ByID(id)
			if err != nil {
				t.Fatal(err)
			}
			sweep = append(sweep, a)
		}
	}
	dev := opencl.NewPlatform().Devices()[0]
	for _, app := range sweep {
		app := app
		t.Run(app.ID, func(t *testing.T) {
			t.Parallel()
			ctx := opencl.NewContext(dev)
			prog, err := ctx.CompileProgram(app.ID+".cl", app.Source, app.Defines)
			if err != nil {
				t.Fatal(err)
			}
			inst, err := app.Setup(ctx, 1)
			if err != nil {
				t.Fatal(err)
			}
			mem := ctx.Mem()
			initial := append([]byte(nil), mem.Data...)
			run := func(p *opencl.Program) []byte {
				t.Helper()
				k, err := p.Kernel(app.Kernel)
				if err != nil {
					t.Fatal(err)
				}
				mem.Data = mem.Data[:len(initial)]
				copy(mem.Data, initial)
				if _, err := ctx.NewQueue().EnqueueNDRange(k, inst.ND, inst.Args...); err != nil {
					t.Fatal(err)
				}
				return append([]byte(nil), mem.Data...)
			}
			ref := run(prog)
			if err := inst.Check(); err != nil {
				t.Fatalf("base kernel: %v", err)
			}
			for _, ps := range app.PlanSpace(inst.ND.Local) {
				t.Run(ps, func(t *testing.T) {
					plan, err := rewrite.ParsePlan(ps)
					if err != nil {
						t.Fatal(err)
					}
					rp, rep, err := prog.WithRewritePlan(app.Kernel, plan)
					if err != nil {
						t.Fatal(err)
					}
					if !rep.Changed() {
						t.Fatalf("plan is a no-op on %s", app.ID)
					}
					if got := run(rp); !bytes.Equal(got, ref) {
						t.Fatalf("global memory under plan %s differs from the base kernel's", rep.Plan)
					}
				})
			}
		})
	}
}

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
func planStats(t *testing.T, ctx *opencl.Context, app *apps.App,
	queue func(*opencl.Context, *apps.Instance) deviceLaunch) map[string][]device.Result {
	t.Helper()
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
			t.Fatalf("%s: %v", plan, err)
		}
		out[plan.String()] = res
	}
	return out
}

// TestSetDifferential is the shared pass's gate: one execution per plan
// charged to all six device models (opencl.SetQueue) must report, for every
// app, plan and device, exactly the counters of that device's own sequence
// of launches on a fresh context — cycles, instructions, accesses,
// transactions, every cache level, DRAM traffic and time. The own
// sequences and the shared pass run on the engine, the interpreter under
// -tags oracle; that the interpreter on a set of six reports what wgvec
// does is internal/enginetest's equivalence suite.
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
				own[i] = planStats(t, opencl.NewContext(dev), app,
					func(ctx *opencl.Context, inst *apps.Instance) deviceLaunch {
						return ownQueue(t, ctx, inst.ND, inst.Args)
					})
			}
			if len(own[0]) < 2 {
				t.Fatalf("only %d plans executed", len(own[0]))
			}
			shared := planStats(t, opencl.NewContext(devs[0]), app,
				func(ctx *opencl.Context, inst *apps.Instance) deviceLaunch {
					return sharedQueue(t, ctx, devs, inst.ND, inst.Args)
				})
			for i, dev := range devs {
				if len(own[i]) != len(shared) {
					t.Fatalf("%s executed %d plans, the shared pass %d", dev.Name(), len(own[i]), len(shared))
				}
				for plan, res := range own[i] {
					if !reflect.DeepEqual(res[0], shared[plan][i]) {
						t.Errorf("%s, plan %s:\n own    %+v\n shared %+v", dev.Name(), plan, res[0], shared[plan][i])
					}
				}
			}
		})
	}
}

// TestSetDifferentialFewGroups launches fewer work-groups than some devices
// have cores (MIC has 60, Tahiti 32, Fermi 16), so most simulated workers
// never get a group. It runs on the engine, the interpreter under -tags
// oracle.
func TestSetDifferentialFewGroups(t *testing.T) {
	devs := opencl.NewPlatform().Devices()
	for _, n := range []int{16, 32, 64} { // 1, 4 and 16 groups of 16×16
		nd := opencl.NDRange{Global: [3]int{n, n, 1}, Local: [3]int{16, 16, 1}}
		run := func(dev *opencl.Device, queue func(*opencl.Context, []interface{}) deviceLaunch) []device.Result {
			ctx := opencl.NewContext(dev)
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
				t.Errorf("%s, %d×%d:\n own    %+v\n shared %+v", dev.Name(), n, n, own[0], shared[i])
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

		own := planStats(t, opencl.NewContext(dev), app,
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
