package grover_test

import (
	"context"
	"reflect"
	"slices"
	"strings"
	"testing"

	"grover"
	"grover/internal/apps"
	"grover/internal/telemetry"
	"grover/opencl"
)

// The tests below hold a plan search's memo — every plan starts from the
// memory Args built, so a plan whose kernel an earlier plan ran takes that
// plan's timings instead of executing — to what executing would have given.

// tuneSpans runs Tune under a trace and returns the results and the
// tune:<plan> spans, in plan order.
func tuneSpans(devs []*opencl.Device, kernel string, spec grover.LaunchSpec) ([]grover.DeviceTuneResult, []telemetry.SpanJSON) {
	ctx, tr := telemetry.WithTrace(context.Background())
	results := grover.Tune(ctx, devs, kernel, spec)
	var tunes []telemetry.SpanJSON
	for _, sp := range tr.JSON() {
		if strings.HasPrefix(sp.Name, "tune:") {
			tunes = append(tunes, sp)
		}
	}
	return results, tunes
}

// patternTranspose is transposeSpec with a patterned input, so every
// launch writes the output buffer.
func patternTranspose(plans ...string) grover.LaunchSpec {
	spec := transposeSpec(64)
	spec.Plans = plans
	spec.Args = func(ctx *opencl.Context) ([]interface{}, error) {
		out, in := ctx.NewBuffer(64*64*4), ctx.NewBuffer(64*64*4)
		in.WriteFloat32(opencl.Pattern(64*64, 1))
		return []interface{}{out, in, int32(64), int32(64)}, nil
	}
	return spec
}

// TestPlanMemoReuses: "grover,hoist-addr" rewrites the transpose into the
// kernel "grover" already ran on the memory that is still there, so it
// does not execute, and every device's timings equal those of searches in
// which each plan executes.
func TestPlanMemoReuses(t *testing.T) {
	devs := opencl.NewPlatform().Devices()
	set, tunes := tuneSpans(devs, "transpose", patternTranspose("grover", "grover,hoist-addr"))
	if set[0].Err != nil {
		t.Fatal(set[0].Err)
	}
	applied := 0
	for _, p := range set[0].Result.PlanSearch {
		if p.Applied {
			applied++
		}
	}
	if applied != 3 || set[0].Set.Launches != applied-1 {
		t.Errorf("%d plans applied, %d executions; want 3 and 2", applied, set[0].Set.Launches)
	}
	if last := tunes[len(tunes)-1]; last.Name != "tune:grover,hoist-addr" || last.Attrs["reused"] != "grover" {
		t.Errorf("last tune span %s reused %q, want grover,hoist-addr reusing grover", last.Name, last.Attrs["reused"])
	}
	for _, plan := range []string{"grover", "grover,hoist-addr"} {
		alone := grover.Tune(context.Background(), devs, "transpose", patternTranspose(plan))
		for i, r := range alone {
			if r.Err != nil {
				t.Fatal(r.Err)
			}
			for _, want := range r.Result.PlanSearch {
				for _, got := range set[i].Result.PlanSearch {
					if got.Plan == want.Plan && (!got.Applied || got.MS != want.MS) {
						t.Errorf("%s, plan %s: %v ms in the search, %v ms executed", r.Device, got.Plan, got.MS, want.MS)
					}
				}
			}
		}
	}
}

// bumpSrc's trip count reads what the kernel writes, so a run on the
// memory an earlier run left takes longer than one on the memory it
// started from.
const bumpSrc = `__kernel void bump(__global int* a, __global float* out, __global float* b) {
    int i = get_global_id(0);
    float s = 0.0f;
    for (int j = 0; j < a[i]; j++) s += b[j * get_global_size(0) + i];
    out[i] = s;
    a[i] += 1;
}`

const bumpN = 256

// bumpSpec searches plans for bump, with a patterned trip count and
// operand; bufs, when non-nil, receives the buffers Args builds.
func bumpSpec(bufs *[]*opencl.Buffer, plans ...string) grover.LaunchSpec {
	return grover.LaunchSpec{
		Program: func(ctx *opencl.Context) (*opencl.Program, error) { return ctx.CompileProgram("bump.cl", bumpSrc, nil) },
		ND:      opencl.NDRange{Global: [3]int{bumpN, 1, 1}, Local: [3]int{64, 1, 1}},
		Plans:   plans,
		Args: func(ctx *opencl.Context) ([]interface{}, error) {
			a, out, b := ctx.NewBuffer(bumpN*4), ctx.NewBuffer(bumpN*4), ctx.NewBuffer(8*bumpN*4)
			trips := make([]int32, bumpN)
			for i := range trips {
				trips[i] = int32(i % 3)
			}
			a.WriteInt32(trips)
			b.WriteFloat32(opencl.Pattern(8*bumpN, 1))
			if bufs != nil {
				*bufs = []*opencl.Buffer{a, out, b}
			}
			return []interface{}{a, out, b}, nil
		},
	}
}

// TestPlanMemoStartsFromArgs: bump writes what it reads, yet base listed
// twice executes once, because each plan starts from the memory Args
// built; both times are those of a search that lists base once.
func TestPlanMemoStartsFromArgs(t *testing.T) {
	devs := opencl.NewPlatform().Devices()
	twice := grover.Tune(context.Background(), devs, "bump", bumpSpec(nil, "base", "base"))
	once := grover.Tune(context.Background(), devs, "bump", bumpSpec(nil, "base"))
	for i, r := range twice {
		if r.Err != nil || once[i].Err != nil {
			t.Fatal(r.Err, once[i].Err)
		}
		ps, want := r.Result.PlanSearch, once[i].Result.PlanSearch[0].MS
		if r.Set.Launches != 1 || !ps[0].Applied || !ps[1].Applied || ps[0].MS != want || ps[1].MS != want {
			t.Errorf("%s: %d executions, base twice at %v and %v ms; want one execution and %v ms twice",
				r.Device, r.Set.Launches, ps[0].MS, ps[1].MS, want)
		}
	}
}

// planMS maps each plan of a device's search to its outcome.
func planMS(r grover.DeviceTuneResult) map[string]grover.PlanTiming {
	m := map[string]grover.PlanTiming{}
	for _, p := range r.Result.PlanSearch {
		p.Report, p.Profile = nil, nil
		m[p.Plan] = p
	}
	return m
}

// TestPlanSearchOrder: a plan's timings depend on its kernel and the
// memory the search started with, not on the plans before it, so a plan
// space searched forwards and backwards gives every plan the same times
// on every device.
func TestPlanSearchOrder(t *testing.T) {
	devs := opencl.NewPlatform().Devices()
	type search struct {
		name, kernel string
		spec         grover.LaunchSpec
	}
	cases := []search{{"bump", "bump", bumpSpec(nil, "base", "hoist-addr")}}
	for _, id := range []string{"AMD-MM", "NVD-MT", "ROD-SC"} {
		app, err := apps.ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		mod, err := opencl.CompileModule(app.ID+".cl", app.Source, app.Defines)
		if err != nil {
			t.Fatal(err)
		}
		scratch, err := app.Setup(opencl.NewContext(devs[0]), 1)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, search{id, app.Kernel, grover.LaunchSpec{
			Program: func(ctx *opencl.Context) (*opencl.Program, error) {
				return ctx.NewProgramFromIR(app.ID+".cl", mod)
			},
			ND:    scratch.ND,
			Plans: grover.DefaultPlanSpace(scratch.ND.Local),
			Args: func(ctx *opencl.Context) ([]interface{}, error) {
				inst, err := app.Setup(ctx, 1)
				if err != nil {
					return nil, err
				}
				return inst.Args, nil
			},
		}})
	}
	for _, c := range cases {
		fwd := grover.Tune(context.Background(), devs, c.kernel, c.spec)
		c.spec.Plans = slices.Clone(c.spec.Plans)
		slices.Reverse(c.spec.Plans)
		bwd := grover.Tune(context.Background(), devs, c.kernel, c.spec)
		for i, r := range fwd {
			if r.Err != nil || bwd[i].Err != nil {
				t.Fatalf("%s on %s: %v, %v", c.name, r.Device, r.Err, bwd[i].Err)
			}
			if got, want := planMS(bwd[i]), planMS(r); !reflect.DeepEqual(got, want) {
				t.Errorf("%s on %s: reversed search %+v, forward %+v", c.name, r.Device, got, want)
			}
		}
	}
}

// TestPlanMemoRestoresArgs: the buffers Args built hold their initial
// bytes when Tune returns — after a search whose plans all wrote them, and
// after one whose launch wrote part of its output and then failed.
func TestPlanMemoRestoresArgs(t *testing.T) {
	devs := opencl.NewPlatform().Devices()
	var bufs []*opencl.Buffer
	spec := bumpSpec(&bufs, grover.DefaultPlanSpace([3]int{64, 1, 1})...)
	if r := grover.Tune(context.Background(), devs, "bump", spec)[0]; r.Err != nil {
		t.Fatal(r.Err)
	}
	for i, v := range bufs[0].ReadInt32(bumpN) {
		if v != int32(i%3) {
			t.Fatalf("a[%d] = %d after Tune, want %d", i, v, i%3)
		}
	}
	for i, v := range bufs[1].ReadFloat32(bumpN) {
		if v != 0 {
			t.Fatalf("out[%d] = %v after Tune, want 0", i, v)
		}
	}
	if !slices.Equal(bufs[2].ReadFloat32(8*bumpN), opencl.Pattern(8*bumpN, 1)) {
		t.Error("b changed after Tune")
	}

	// The last work-group stores out of bounds after the others stored.
	const partSrc = `__kernel void part(__global float* out) {
    int i = get_global_id(0);
    out[i] = 1.0f;
    if (get_group_id(0) == get_num_groups(0) - 1) out[i + (1 << 28)] = 1.0f;
}`
	var out *opencl.Buffer
	r := grover.Tune(context.Background(), devs, "part", grover.LaunchSpec{
		Program: func(ctx *opencl.Context) (*opencl.Program, error) { return ctx.CompileProgram("part.cl", partSrc, nil) },
		ND:      opencl.NDRange{Global: [3]int{bumpN, 1, 1}, Local: [3]int{64, 1, 1}},
		Plans:   []string{"base"},
		Args: func(ctx *opencl.Context) ([]interface{}, error) {
			out = ctx.NewBuffer(bumpN * 4)
			return []interface{}{out}, nil
		},
	})[0]
	if r.Err == nil {
		t.Fatal("a kernel that stores out of bounds tuned")
	}
	for i, v := range out.ReadFloat32(bumpN) {
		if v != 0 {
			t.Fatalf("out[%d] = %v after a failed search, want 0", i, v)
		}
	}
}

// TestPlanMemoSkipsErrors: a plan whose launch fails is not memoized, even
// when the failed launch left memory as it found it.
func TestPlanMemoSkipsErrors(t *testing.T) {
	const src = `__kernel void oob(__global float* out, __global float* in) {
    out[get_global_id(0)] = in[get_global_id(0) + (1 << 28)];
}`
	const n = 256
	results, tunes := tuneSpans(opencl.NewPlatform().Devices(), "oob", grover.LaunchSpec{
		Program: func(ctx *opencl.Context) (*opencl.Program, error) { return ctx.CompileProgram("oob.cl", src, nil) },
		ND:      opencl.NDRange{Global: [3]int{n, 1, 1}, Local: [3]int{64, 1, 1}},
		Plans:   []string{"base", "base"},
		Args: func(ctx *opencl.Context) ([]interface{}, error) {
			return []interface{}{ctx.NewBuffer(n * 4), ctx.NewBuffer(n * 4)}, nil
		},
	})
	for _, r := range results {
		if r.Err == nil {
			t.Errorf("%s: a kernel that reads out of bounds tuned", r.Device)
		}
	}
	if len(tunes) != 2 {
		t.Fatalf("%d tune spans, want 2", len(tunes))
	}
	for _, sp := range tunes {
		if r, ok := sp.Attrs["reused"]; ok {
			t.Errorf("%s reused %s, whose launch failed", sp.Name, r)
		}
	}
}
