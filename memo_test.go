package grover_test

import (
	"context"
	"strings"
	"testing"

	"grover"
	"grover/internal/telemetry"
	"grover/opencl"
)

// The tests below hold a plan search's memo — a plan whose kernel an
// earlier plan ran on memory it left unchanged takes that plan's timings
// instead of executing — to what executing would have given.

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

// patternTranspose is transposeSpec with a patterned input, so the first
// launch changes the output buffer and every later one leaves it be.
func patternTranspose(plans ...string) grover.LaunchSpec {
	spec := transposeSpec(64, 1)
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

// TestPlanMemoGuardsMemory: the kernel's trip count reads what it writes,
// so a second run of the same kernel sees other memory and takes longer:
// both runs must execute.
func TestPlanMemoGuardsMemory(t *testing.T) {
	const src = `__kernel void bump(__global int* a, __global float* out, __global float* b) {
    int i = get_global_id(0);
    float s = 0.0f;
    for (int j = 0; j < a[i]; j++) s += b[j * get_global_size(0) + i];
    out[i] = s;
    a[i] += 1;
}`
	const n = 256
	spec := grover.LaunchSpec{
		Program: func(ctx *opencl.Context) (*opencl.Program, error) { return ctx.CompileProgram("bump.cl", src, nil) },
		ND:      opencl.NDRange{Global: [3]int{n, 1, 1}, Local: [3]int{64, 1, 1}},
		Plans:   []string{"base", "base"},
		Args: func(ctx *opencl.Context) ([]interface{}, error) {
			// a starts at 0: the first run loops no time, the second once.
			return []interface{}{ctx.NewBuffer(n * 4), ctx.NewBuffer(n * 4), ctx.NewBuffer(n * 4)}, nil
		},
	}
	for _, r := range grover.Tune(context.Background(), opencl.NewPlatform().Devices(), "bump", spec) {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		ps := r.Result.PlanSearch
		if r.Set.Launches != 2 || !ps[0].Applied || !ps[1].Applied || ps[0].MS == ps[1].MS {
			t.Errorf("%s: %d executions, base twice at %v and %v ms; want two executions and two times",
				r.Device, r.Set.Launches, ps[0].MS, ps[1].MS)
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
