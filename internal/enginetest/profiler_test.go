package enginetest_test

import (
	"strings"
	"testing"

	"grover/internal/vm"
	"grover/opencl"
)

// TestProfilerParity profiles the same launch on every backend and
// asserts the region structure and retire/traffic counters are
// backend-invariant, and that the profiled retire count matches the
// traced retire count (the profiler reuses the tracer's accounting).
func TestProfilerParity(t *testing.T) {
	const src = `__kernel void k(__global int* o) {
	__local int tile[8];
	int l = get_local_id(0);
	int g = get_global_id(0);
	tile[l] = g * 2 + 1;
	barrier(CLK_LOCAL_MEM_FENCE);
	o[g] = tile[(l + 1) % 8] + tile[(l + 7) % 8];
}`
	testProfilerParity(t, src, 2)
}

// TestProfilerParityDivergent repeats the parity check with divergent
// control flow and a data-dependent loop, so regions are accounted under
// mask splits.
func TestProfilerParityDivergent(t *testing.T) {
	const src = `__kernel void k(__global int* o) {
	__local int tile[8];
	int l = get_local_id(0);
	int g = get_global_id(0);
	int acc = 0;
	if (l % 2 == 0) {
		for (int i = 0; i < l + 1; i++) { acc += i * g; }
	} else {
		acc = g * 3;
	}
	tile[l] = acc;
	barrier(CLK_LOCAL_MEM_FENCE);
	o[g] = tile[7 - l];
}`
	testProfilerParity(t, src, 2)
}

func testProfilerParity(t *testing.T, src string, wantRegions int) {
	plat := opencl.NewPlatform()
	ctx := opencl.NewContext(plat.Devices()[0])
	prog, err := ctx.CompileProgram("prof", src, nil)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	o := ctx.NewBuffer(4 * 16)
	vargs, err := opencl.VMArgs(o)
	if err != nil {
		t.Fatalf("args: %v", err)
	}

	reports := make([]*vm.ProfileReport, len(backends))
	for bi, backend := range backends {
		prof := vm.NewProfiler()
		cfg := vm.Config{GlobalSize: [3]int{16, 1, 1}, LocalSize: [3]int{8, 1, 1}, Backend: backend, Args: vargs}
		opts := &vm.LaunchOpts{Workers: 1, Profiler: prof}
		if err := prog.VM().Launch("k", cfg, ctx.Mem(), opts); err != nil {
			t.Fatalf("%s: %v", backend, err)
		}
		rep := prof.Report()
		if rep == nil {
			t.Fatalf("%s: nil profile report", backend)
		}
		if rep.Backend != backend {
			t.Errorf("%s: report labeled backend %q", backend, rep.Backend)
		}
		if rep.Kernel != "k" {
			t.Errorf("%s: report labeled kernel %q", backend, rep.Kernel)
		}
		if rep.Launches != 1 {
			t.Errorf("%s: launches = %d, want 1", backend, rep.Launches)
		}
		reports[bi] = rep
	}

	ref := reports[0]
	if len(ref.Regions) != wantRegions {
		t.Fatalf("interp: regions = %d, want %d (one barrier round + one exit round): %+v", len(ref.Regions), wantRegions, ref.Regions)
	}
	if ref.Regions[0].Barriers != ref.Regions[0].Groups {
		t.Errorf("interp: round 0 should end at a barrier for every group: %+v", ref.Regions[0])
	}
	if ref.Regions[1].Barriers != 0 {
		t.Errorf("interp: round 1 should be the exit round: %+v", ref.Regions[1])
	}
	if ref.Regions[0].Groups != 2 {
		t.Errorf("interp: round 0 groups = %d, want 2", ref.Regions[0].Groups)
	}
	if ref.Retired == 0 || ref.Loads == 0 || ref.Stores == 0 {
		t.Errorf("interp: empty counters: %+v", ref)
	}
	for bi := 1; bi < len(backends); bi++ {
		rep := reports[bi]
		if len(rep.Regions) != len(ref.Regions) {
			t.Errorf("%s: %d regions, interp has %d", backends[bi], len(rep.Regions), len(ref.Regions))
			continue
		}
		for i, r := range rep.Regions {
			rr := ref.Regions[i]
			if r.Retired != rr.Retired || r.Loads != rr.Loads || r.Stores != rr.Stores ||
				r.Groups != rr.Groups || r.Barriers != rr.Barriers {
				t.Errorf("%s: region %d counters differ from interp:\n  interp: %+v\n  %s: %+v",
					backends[bi], i, rr, backends[bi], r)
			}
		}
	}

	// The profiled retire total must equal what a tracer observes.
	tr := &countTracer{}
	cfg := vm.Config{GlobalSize: [3]int{16, 1, 1}, LocalSize: [3]int{8, 1, 1}, Backend: vm.BackendInterp, Args: vargs}
	opts := &vm.LaunchOpts{Workers: 1, TracerFor: func(int) vm.Tracer { return tr }}
	if err := prog.VM().Launch("k", cfg, ctx.Mem(), opts); err != nil {
		t.Fatalf("traced launch: %v", err)
	}
	if tr.n != ref.Retired {
		t.Errorf("profiled retired %d != traced retired %d", ref.Retired, tr.n)
	}

	// The text rendering names every region.
	text := ref.Text()
	if !strings.Contains(text, "round 0") || !strings.Contains(text, "round 1 → exit") {
		t.Errorf("text report missing region rows:\n%s", text)
	}
}

// TestProfilerWithTracer asserts profiling composes with tracing (wgvec
// shares per-lane retire counters between the two consumers).
func TestProfilerWithTracer(t *testing.T) {
	const src = `__kernel void k(__global int* o) {
	__local int tile[4];
	int l = get_local_id(0);
	tile[l] = l;
	barrier(CLK_LOCAL_MEM_FENCE);
	o[get_global_id(0)] = tile[3 - l];
}`
	plat := opencl.NewPlatform()
	for _, backend := range backends {
		ctx := opencl.NewContext(plat.Devices()[0])
		prog, err := ctx.CompileProgram("proftr", src, nil)
		if err != nil {
			t.Fatalf("compile: %v", err)
		}
		o := ctx.NewBuffer(4 * 4)
		vargs, err := opencl.VMArgs(o)
		if err != nil {
			t.Fatalf("args: %v", err)
		}
		prof := vm.NewProfiler()
		tr := &countTracer{}
		cfg := vm.Config{GlobalSize: [3]int{4, 1, 1}, LocalSize: [3]int{4, 1, 1}, Backend: backend, Args: vargs}
		opts := &vm.LaunchOpts{Workers: 1, TracerFor: func(int) vm.Tracer { return tr }, Profiler: prof}
		if err := prog.VM().Launch("k", cfg, ctx.Mem(), opts); err != nil {
			t.Fatalf("%s: %v", backend, err)
		}
		rep := prof.Report()
		if rep == nil {
			t.Fatalf("%s: nil report under tracing", backend)
		}
		if rep.Retired != tr.n {
			t.Errorf("%s: profiled retired %d != traced retired %d", backend, rep.Retired, tr.n)
		}
	}
}
