package grover_test

import (
	"errors"
	"strings"
	"testing"

	"grover"
	"grover/internal/telemetry"
	"grover/opencl"
)

// The classic two-version tune is the plan search over base and the grover
// step its Options spell. The tests below pin what it does where the
// two-version comparison and a plan search once differed.

// reduceSrc uses local memory as read/write temporal storage, which the
// pass refuses (paper §VI-D): a candidate it cannot transform.
const reduceSrc = `
__kernel void reduce(__global float* in, __global float* out) {
    __local float sm[64];
    int lx = get_local_id(0);
    sm[lx] = in[get_global_id(0)];
    barrier(CLK_LOCAL_MEM_FENCE);
    for (int s = 32; s > 0; s >>= 1) {
        if (lx < s) sm[lx] += sm[lx + s];
        barrier(CLK_LOCAL_MEM_FENCE);
    }
    if (lx == 0) out[get_group_id(0)] = sm[0];
}
`

func reduceSpec(opts grover.Options) grover.LaunchSpec {
	const n = 256
	return grover.LaunchSpec{
		Program: func(ctx *opencl.Context) (*opencl.Program, error) {
			return ctx.CompileProgram("reduce.cl", reduceSrc, nil)
		},
		Options: opts,
		ND:      opencl.NDRange{Global: [3]int{n, 1, 1}, Local: [3]int{64, 1, 1}},
		Args: func(ctx *opencl.Context) ([]interface{}, error) {
			in := ctx.NewBuffer(n * 4)
			in.WriteFloat32(opencl.Pattern(n, 1))
			return []interface{}{in, ctx.NewBuffer(n / 64 * 4)}, nil
		},
	}
}

func spanNames(tunes []telemetry.SpanJSON) string {
	names := make([]string, len(tunes))
	for i, sp := range tunes {
		names[i] = sp.Name
	}
	return strings.Join(names, " ")
}

// TestVersionsUntransformed: a kernel the pass leaves as it is gets timed
// like any plan — two equal non-zero times, np = 1, base keeps the tie —
// and the verdict carries the pass's report of why.
func TestVersionsUntransformed(t *testing.T) {
	devs := opencl.NewPlatform().Devices()
	results, tunes := tuneSpans(devs, "reduce", reduceSpec(grover.Options{}))
	if got := spanNames(tunes); got != "tune:base tune:grover" {
		t.Errorf("tune spans %q, want tune:base tune:grover", got)
	}
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.Device, r.Err)
		}
		res := r.Result
		if res.UseTransformed || res.OriginalMS <= 0 || res.TransformedMS != res.OriginalMS || res.Speedup != 1 {
			t.Errorf("%s: %s, want two equal non-zero times and local memory kept", r.Device, res)
		}
		if res.Report == nil || res.Report.Transformed() || len(res.Report.Candidates) != 1 ||
			res.Report.Candidates[0].Reason == "" {
			t.Errorf("%s: report %v, want the one refused candidate and its reason", r.Device, res.Report)
		}
		if res.Plan != "" || res.PlanSearch != nil || res.Rewrite != nil {
			t.Errorf("%s: plan-search fields set on a two-version verdict: %q %v %v",
				r.Device, res.Plan, res.PlanSearch, res.Rewrite)
		}
	}
}

// TestVersionsStrict: a Strict rejection fails the tune with the pass's
// error, which comes after base has run.
func TestVersionsStrict(t *testing.T) {
	devs := opencl.NewPlatform().Devices()[:2]
	results, tunes := tuneSpans(devs, "reduce", reduceSpec(grover.Options{Strict: true}))
	for _, r := range results {
		var nr *grover.ErrNotReversible
		if r.Result != nil || !errors.As(r.Err, &nr) || nr.Candidate != "sm" {
			t.Errorf("%s: result %v, err %v; want the pass's rejection of sm", r.Device, r.Result, r.Err)
		}
	}
	if got := spanNames(tunes); got != "tune:base tune:grover(strict)" {
		t.Errorf("tune spans %q, want tune:base tune:grover(strict)", got)
	}
}

// TestVersionsLaunchError: a version that fails to launch fails the tune
// with the launch's error.
func TestVersionsLaunchError(t *testing.T) {
	const src = `__kernel void oob(__global float* out, __global float* in) {
    __local float t[64];
    int l = get_local_id(0);
    t[l] = in[get_global_id(0) + (1 << 28)];
    barrier(CLK_LOCAL_MEM_FENCE);
    out[get_global_id(0)] = t[l];
}`
	const n = 256
	results, _ := tuneSpans(opencl.NewPlatform().Devices()[:2], "oob", grover.LaunchSpec{
		Program: func(ctx *opencl.Context) (*opencl.Program, error) { return ctx.CompileProgram("oob.cl", src, nil) },
		ND:      opencl.NDRange{Global: [3]int{n, 1, 1}, Local: [3]int{64, 1, 1}},
		Args: func(ctx *opencl.Context) ([]interface{}, error) {
			return []interface{}{ctx.NewBuffer(n * 4), ctx.NewBuffer(n * 4)}, nil
		},
	})
	for _, r := range results {
		if r.Err == nil || !strings.Contains(r.Err.Error(), "timing base") {
			t.Errorf("%s: err %v, want base's launch error", r.Device, r.Err)
		}
	}
}

// TestCandidateNames: a candidate must be a C identifier. A name holding a
// separator would select nothing, share a cache key with the names it
// spells, or end the grover step's options.
func TestCandidateNames(t *testing.T) {
	_, prog := setup(t, "SNB")
	for _, name := range []string{"tile,tile", "tile+tile", "tile;strict", "tile)", "1tile", ""} {
		opts := grover.Options{Candidates: []string{name}}
		if _, _, err := grover.Disable(prog, "transpose", opts); err == nil || !strings.Contains(err.Error(), "not a C identifier") {
			t.Errorf("Disable with candidate %q: err %v, want a name error", name, err)
		}
		spec := transposeSpec(64)
		spec.Options = opts
		if r := tuneOn(t, "SNB", "transpose", spec); r.Err == nil || !strings.Contains(r.Err.Error(), "not a C identifier") {
			t.Errorf("Tune with candidate %q: err %v, want a name error", name, r.Err)
		}
	}
	if _, rep, err := grover.Disable(prog, "transpose", grover.Options{Candidates: []string{"tile", "_t2"}}); err != nil || !rep.Transformed() {
		t.Errorf("identifiers tile and _t2: %v, transformed %v", err, rep != nil && rep.Transformed())
	}
}
