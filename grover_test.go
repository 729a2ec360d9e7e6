package grover_test

import (
	"context"
	"strings"
	"testing"

	"grover"
	"grover/opencl"
)

const transposeSrc = `
#define TILE 16
__kernel void transpose(__global float* odata, __global float* idata,
                        int width, int height) {
    __local float tile[TILE][TILE+1];
    int lx = get_local_id(0);
    int ly = get_local_id(1);
    int wx = get_group_id(0);
    int wy = get_group_id(1);
    tile[ly][lx] = idata[(wy*TILE + ly)*width + wx*TILE + lx];
    barrier(CLK_LOCAL_MEM_FENCE);
    odata[(wx*TILE + ly)*height + wy*TILE + lx] = tile[lx][ly];
}
`

func setup(t *testing.T, deviceName string) (*opencl.Context, *opencl.Program) {
	t.Helper()
	plat := opencl.NewPlatform()
	dev, err := plat.DeviceByName(deviceName)
	if err != nil {
		t.Fatal(err)
	}
	ctx := opencl.NewContext(dev)
	prog, err := ctx.CompileProgram("mt.cl", transposeSrc, nil)
	if err != nil {
		t.Fatal(err)
	}
	return ctx, prog
}

func TestDisable(t *testing.T) {
	_, prog := setup(t, "SNB")
	noLM, rep, err := grover.Disable(prog, "transpose", grover.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Transformed() {
		t.Fatal("not transformed")
	}
	if noLM == nil {
		t.Fatal("nil transformed program")
	}
	// The report carries the paper's Table III content.
	s := rep.String()
	for _, frag := range []string{"GL", "LS", "LL", "nGL", "lx := ly"} {
		if !strings.Contains(s, frag) {
			t.Errorf("report missing %q:\n%s", frag, s)
		}
	}
}

// transposeSpec is the two-version tune of an n×n tiled transpose.
func transposeSpec(n int) grover.LaunchSpec {
	return grover.LaunchSpec{
		Program: func(ctx *opencl.Context) (*opencl.Program, error) {
			return ctx.CompileProgram("mt.cl", transposeSrc, nil)
		},
		ND: opencl.NDRange{Global: [3]int{n, n, 1}, Local: [3]int{16, 16, 1}},
		Args: func(ctx *opencl.Context) ([]interface{}, error) {
			out := ctx.NewBuffer(n * n * 4)
			in := ctx.NewBuffer(n * n * 4)
			return []interface{}{out, in, int32(n), int32(n)}, nil
		},
	}
}

// tuneOn tunes on the one named device: a set of one.
func tuneOn(t *testing.T, deviceName, kernel string, spec grover.LaunchSpec) grover.DeviceTuneResult {
	t.Helper()
	dev, err := opencl.NewPlatform().DeviceByName(deviceName)
	if err != nil {
		t.Fatal(err)
	}
	return grover.Tune(context.Background(), []*opencl.Device{dev}, kernel, spec)[0]
}

func TestAutoTunePrefersNoLMOnCPU(t *testing.T) {
	r := tuneOn(t, "SNB", "transpose", transposeSpec(64))
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	res := r.Result
	if !res.UseTransformed {
		t.Errorf("on SNB the transpose should win without local memory: %s", res)
	}
	if res.Speedup <= 1 {
		t.Errorf("speedup = %.2f, want > 1", res.Speedup)
	}
	if res.Kernel == nil {
		t.Fatal("no winning kernel")
	}
	if r.Set.Launches != 2 {
		t.Errorf("%d executions, want one of each version", r.Set.Launches)
	}
}

func TestAutoTunePrefersLMOnGPU(t *testing.T) {
	r := tuneOn(t, "Kepler", "transpose", transposeSpec(64))
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if r.Result.UseTransformed {
		t.Errorf("on Kepler the transpose should keep local memory: %s", r.Result)
	}
	// The verdict carries the pass's report whichever version won.
	if r.Result.Report == nil || !r.Result.Report.Transformed() {
		t.Errorf("Kepler: report %v, want the transformed candidate's", r.Result.Report)
	}
}

// TestAutoTuneNoCandidates: a kernel without local memory has no second
// version; the tune fails before anything launches.
func TestAutoTuneNoCandidates(t *testing.T) {
	results, tunes := tuneSpans(opencl.NewPlatform().Devices()[:1], "k", grover.LaunchSpec{
		Program: func(ctx *opencl.Context) (*opencl.Program, error) {
			return ctx.CompileProgram("k.cl",
				`__kernel void k(__global float* a) { a[get_global_id(0)] = 1.0f; }`, nil)
		},
	})
	if results[0].Err != grover.ErrNoCandidates {
		t.Errorf("err = %v, want ErrNoCandidates", results[0].Err)
	}
	if len(tunes) != 0 {
		t.Errorf("tune spans %v, want none: nothing may launch", tunes)
	}
}

// TestTuneFailures: what stops a tune before anything runs is reported in
// every device's slot, and no devices means nothing is built at all.
func TestTuneFailures(t *testing.T) {
	devs := opencl.NewPlatform().Devices()
	built := 0
	spec := transposeSpec(64)
	program := spec.Program
	spec.Program = func(ctx *opencl.Context) (*opencl.Program, error) {
		built++
		return program(ctx)
	}
	for _, tc := range []struct {
		name   string
		devs   []*opencl.Device
		kernel string
		plans  []string
		built  int
		errs   int
	}{
		{"no devices", nil, "transpose", nil, 0, 0},
		{"no devices, plan search", devs[:0], "transpose", []string{"grover"}, 0, 0},
		{"unknown kernel", devs[:2], "nope", nil, 1, 2},
		{"unknown kernel, plan search", devs[:2], "nope", []string{"grover"}, 1, 2},
	} {
		built = 0
		spec.Plans = tc.plans
		results := grover.Tune(context.Background(), tc.devs, tc.kernel, spec)
		if len(results) != len(tc.devs) {
			t.Errorf("%s: %d results for %d devices", tc.name, len(results), len(tc.devs))
		}
		errs := 0
		for _, r := range results {
			if r.Err != nil && r.Result == nil {
				errs++
			}
		}
		if built != tc.built || errs != tc.errs {
			t.Errorf("%s: %d programs built and %d devices failed, want %d and %d",
				tc.name, built, errs, tc.built, tc.errs)
		}
	}
}

func TestDisableSelectedCandidate(t *testing.T) {
	src := `
#define S 8
__kernel void mm(__global float* C, __global float* A, __global float* B, int N) {
    __local float As[S][S];
    __local float Bs[S][S];
    int lx = get_local_id(0);
    int ly = get_local_id(1);
    int gx = get_global_id(0);
    int gy = get_global_id(1);
    float acc = 0.0f;
    for (int t = 0; t < N/S; t++) {
        As[ly][lx] = A[gy*N + t*S + lx];
        Bs[ly][lx] = B[(t*S+ly)*N + gx];
        barrier(CLK_LOCAL_MEM_FENCE);
        for (int k = 0; k < S; k++) acc += As[ly][k] * Bs[k][lx];
        barrier(CLK_LOCAL_MEM_FENCE);
    }
    C[gy*N + gx] = acc;
}
`
	plat := opencl.NewPlatform()
	dev, _ := plat.DeviceByName("SNB")
	ctx := opencl.NewContext(dev)
	prog, err := ctx.CompileProgram("mm.cl", src, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, rep, err := grover.Disable(prog, "mm", grover.Options{Candidates: []string{"Bs"}})
	if err != nil {
		t.Fatal(err)
	}
	var as, bs bool
	for _, c := range rep.Candidates {
		switch c.Name {
		case "As":
			as = c.Transformed
		case "Bs":
			bs = c.Transformed
		}
	}
	if as || !bs {
		t.Errorf("candidate selection wrong: As=%v Bs=%v", as, bs)
	}
}

// TestTuneAllDevices exercises the six-device set: one compile, one argument
// fill, one execution per kernel version charged to every device's cost
// model, and the paper's Fig. 2 shape — the tiled transpose keeps local
// memory on the NVIDIA-style GPUs and drops it on the cache-only CPUs.
func TestTuneAllDevices(t *testing.T) {
	mod, err := opencl.CompileModule("mt.cl", transposeSrc, nil)
	if err != nil {
		t.Fatal(err)
	}
	spec := transposeSpec(64)
	spec.Program = func(ctx *opencl.Context) (*opencl.Program, error) {
		return ctx.NewProgramFromIR("mt.cl", mod)
	}
	built, args := 0, spec.Args
	spec.Args = func(ctx *opencl.Context) ([]interface{}, error) {
		built++
		return args(ctx)
	}
	results := grover.Tune(context.Background(), opencl.NewPlatform().Devices(), "transpose", spec)
	want := []string{"Fermi", "Kepler", "Tahiti", "SNB", "Nehalem", "MIC"}
	if len(results) != len(want) {
		t.Fatalf("got %d results, want %d", len(results), len(want))
	}
	if built != 1 {
		t.Errorf("Args was called %d times, want once for the whole set", built)
	}
	for i, r := range results {
		if r.Device != want[i] {
			t.Errorf("result %d device = %s, want %s", i, r.Device, want[i])
		}
		if r.Err != nil {
			t.Errorf("%s: %v", r.Device, r.Err)
			continue
		}
		if r.Set != results[0].Set || r.Set.Launches != 2 {
			t.Errorf("%s: launch set %+v, want the one all six share, with one execution per version", r.Device, r.Set)
		}
		if r.Result == nil || r.Result.OriginalMS <= 0 || r.Result.TransformedMS <= 0 {
			t.Errorf("%s: missing timings: %+v", r.Device, r.Result)
			continue
		}
		// The verdict must be consistent with the timings.
		if r.Result.UseTransformed != (r.Result.TransformedMS < r.Result.OriginalMS) {
			t.Errorf("%s: verdict inconsistent with timings: %s", r.Device, r.Result)
		}
	}
	byName := map[string]*grover.TuneResult{}
	for _, r := range results {
		byName[r.Device] = r.Result
	}
	if byName["Kepler"] != nil && byName["Kepler"].UseTransformed {
		t.Error("Kepler should keep local memory for the transpose")
	}
	if byName["SNB"] != nil && !byName["SNB"].UseTransformed {
		t.Error("SNB should disable local memory for the transpose")
	}
}
