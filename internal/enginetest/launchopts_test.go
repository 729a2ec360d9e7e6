package enginetest_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"grover/internal/device"
	"grover/internal/vm"
	"grover/opencl"
)

// TestNilLaunchOptsIsZeroValue: a nil *vm.LaunchOpts — what every
// functional launch of the host API passes — is the zero LaunchOpts, so it
// runs on GOMAXPROCS workers, and since work-groups are independent it
// leaves the memory one worker leaves. On every engine; run under -race,
// which is what would see two groups of one launch touch the same state.
func TestNilLaunchOptsIsZeroValue(t *testing.T) {
	// More workers than one even where the host has a single processor.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const gx, gy, lx, ly = 32, 6, 8, 2 // 12 work-groups
	ctx := opencl.NewContext(opencl.NewPlatform().Devices()[0])
	prog, err := ctx.CompileProgram("stage", stageSrc, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	input := make([]float32, gx*gy)
	for i := range input {
		input[i] = float32(rng.NormFloat64())
	}
	in, out := ctx.NewBuffer(gx*gy*4), ctx.NewBuffer(gx*gy*4)
	in.WriteFloat32(input)
	vargs, err := opencl.VMArgs(out, in, opencl.LocalMem{Size: lx * ly * 4}, int32(gx*gy), float32(0.25))
	if err != nil {
		t.Fatal(err)
	}
	mem := ctx.Mem()
	initial := append([]byte(nil), mem.Data...)
	for _, backend := range backends {
		cfg := vm.Config{GlobalSize: [3]int{gx, gy, 1}, LocalSize: [3]int{lx, ly, 1}, Args: vargs, Backend: backend}
		var want []byte
		for _, tc := range []struct {
			name string
			opts *vm.LaunchOpts
		}{{"one worker", &vm.LaunchOpts{Workers: 1}}, {"zero value", &vm.LaunchOpts{}}, {"nil", nil}} {
			copy(mem.Data, initial)
			if err := prog.VM().Launch("stage", cfg, mem, tc.opts); err != nil {
				t.Fatalf("%s, %s: %v", backend, tc.name, err)
			}
			if want == nil {
				want = append([]byte(nil), mem.Data...)
				if bytes.Equal(want, initial) {
					t.Fatalf("%s: the launch wrote nothing", backend)
				}
			} else if !bytes.Equal(mem.Data, want) {
				t.Errorf("%s: %s options leave other memory than one worker", backend, tc.name)
			}
		}
	}
}

// failSrc holds one kernel per way a launch fails inside a work-group. Each
// fails in work-group 1 only, so the failing group, and with it the error,
// is the same however groups are dealt to workers. Every kernel takes an
// output buffer and a dynamic __local buffer of 6 bytes: room for d[0], not
// for d[1].
const failSrc = `
int pick(int big) { return get_group_id(0) == 1 ? big : 0; }

__kernel void oob_global(__global float* o, __local float* d) {
    o[get_global_id(0) + pick(1 << 26)] = 1.0f;
}

__kernel void oob_local(__global float* o, __local float* d) {
    __local float t[16];
    int l = get_local_id(0);
    t[l + pick(1024)] = 1.0f;
    barrier(CLK_LOCAL_MEM_FENCE);
    o[get_global_id(0)] = t[l];
}

__kernel void oob_private(__global float* o, __local float* d) {
    float p[4];
    int l = get_local_id(0);
    p[l & 3] = (float)l;
    o[get_global_id(0)] = p[(l & 3) + pick(1 << 20)];
}

__kernel void overrun_load(__global float* o, __local float* d) {
    if (get_local_id(0) == 0) d[0] = 1.0f;
    barrier(CLK_LOCAL_MEM_FENCE);
    o[get_global_id(0)] = d[pick(1)];
}

__kernel void overrun_store(__global float* o, __local float* d) {
    d[pick(1)] = 1.0f;
    barrier(CLK_LOCAL_MEM_FENCE);
    o[get_global_id(0)] = d[0];
}

__kernel void diverge_barriers(__global float* o, __local float* d) {
    if (pick(1) && get_local_id(0) < 8) {
        barrier(CLK_LOCAL_MEM_FENCE);
        o[get_global_id(0)] = 1.0f;
    } else {
        barrier(CLK_LOCAL_MEM_FENCE);
        o[get_global_id(0)] = 2.0f;
    }
}

__kernel void diverge_exit(__global float* o, __local float* d) {
    if (pick(1) && get_local_id(0) < 8) barrier(CLK_LOCAL_MEM_FENCE);
    o[get_global_id(0)] = 1.0f;
}
`

// watchTracer forwards to a device.Set's tracer and records the group
// begins and aborts the engine reports to it.
type watchTracer struct {
	vm.Tracer
	events []string
}

func (w *watchTracer) GroupBegin(group [3]int, linear int) {
	w.events = append(w.events, fmt.Sprint("begin ", linear))
	w.Tracer.GroupBegin(group, linear)
}

func (w *watchTracer) AccessBatch(b *vm.AccessBatch) { w.Tracer.(vm.BatchTracer).AccessBatch(b) }

func (w *watchTracer) GroupAbort() {
	w.events = append(w.events, "abort")
	vm.AbortGroup(w.Tracer)
}

// TestGeometryNegativeDimIsAnError is the launch contract for launches that
// fail: every engine, untraced and traced on a device.Set of all six models,
// fails each launch below through vm.Program.Launch with the same error
// text. A negative global or local dimension passes the divisibility check
// (-32 % 16 and 32 % -16 are both 0), so vm.Config.Normalized refuses it
// with an error naming the dimension, before any work-group runs. A launch
// that fails inside a work-group aborts the failing worker's group on its
// tracer, and that worker begins no group after it.
func TestGeometryNegativeDimIsAnError(t *testing.T) {
	// More workers than one even where the host has a single processor, so
	// the failing worker has a group left to not begin.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	ctx := opencl.NewContext(opencl.NewPlatform().Devices()[0])
	prog, err := ctx.CompileProgram("fail", failSrc, nil)
	if err != nil {
		t.Fatal(err)
	}
	out := ctx.NewBuffer(256 * 4)
	vargs, err := opencl.VMArgs(out, opencl.LocalMem{Size: 6})
	if err != nil {
		t.Fatal(err)
	}
	const failing = 1 // the work-group failSrc's kernels fail in
	for _, tc := range []struct {
		kernel        string
		global, local [3]int
		args          []vm.Arg
		want          string
	}{
		{"no_such_kernel", [3]int{128}, [3]int{16}, vargs, `no kernel "no_such_kernel"`},
		{"oob_global", [3]int{128}, [3]int{16}, vargs[:1], "expects 2 args, got 1"},
		{"oob_global", [3]int{120}, [3]int{16}, vargs, "not divisible by local size 16 in dim 0"},
		{"oob_global", [3]int{-32, 32, 1}, [3]int{16, 16, 1}, vargs, "negative size in dim 0"},
		{"oob_global", [3]int{32, 32, 1}, [3]int{16, -16, 1}, vargs, "negative size in dim 1"},
		{"oob_global", [3]int{32, 32, -1}, [3]int{16, 16, 0}, vargs, "negative size in dim 2"},
		{"oob_global", [3]int{128}, [3]int{16}, vargs, "group (1,0,0): work-item 0: vm: global access at"},
		{"oob_local", [3]int{128}, [3]int{16}, vargs, "group (1,0,0): work-item 0: vm: local access at 4096 out of bounds (70)"},
		{"oob_private", [3]int{128}, [3]int{16}, vargs, "group (1,0,0): work-item 0: vm: private access at"},
		{"overrun_load", [3]int{128}, [3]int{16}, vargs, "group (1,0,0): work-item 0: vm: load of 4 bytes at 4 overruns arena (6)"},
		{"overrun_store", [3]int{128}, [3]int{16}, vargs, "group (1,0,0): work-item 0: vm: store of 4 bytes at 4 overruns arena (6)"},
		{"diverge_barriers", [3]int{128}, [3]int{16}, vargs, "group (1,0,0): barrier divergence: work-items reached different barriers"},
		{"diverge_exit", [3]int{128}, [3]int{16}, vargs, "group (1,0,0): barrier divergence: 8 work-items at a barrier while 8 finished"},
	} {
		name := fmt.Sprintf("%s global %v local %v, %d args", tc.kernel, tc.global, tc.local, len(tc.args))
		var first string
		for _, backend := range backends {
			cfg := vm.Config{GlobalSize: tc.global, LocalSize: tc.local, Args: tc.args, Backend: backend}
			set, err := device.NewSet(device.All())
			if err != nil {
				t.Fatal(err)
			}
			opts := set.Opts()
			watches := make([]*watchTracer, opts.Workers)
			for w := range watches {
				watches[w] = &watchTracer{Tracer: opts.TracerFor(w)}
			}
			opts.TracerFor = func(w int) vm.Tracer { return watches[w] }
			for _, run := range []struct {
				how  string
				opts *vm.LaunchOpts
			}{{"untraced", nil}, {"traced", opts}} {
				err := prog.VM().Launch(tc.kernel, cfg, ctx.Mem(), run.opts)
				if err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Errorf("%s on %s, %s: %v, want an error containing %q", name, backend, run.how, err, tc.want)
					continue
				}
				if first == "" {
					first = err.Error()
				} else if err.Error() != first {
					t.Errorf("%s on %s, %s: error %q, want the same as the first engine's %q", name, backend, run.how, err, first)
				}
			}
			// Only work-group 1 fails, on the worker round-robin deals it to.
			for w, watch := range watches {
				ev := strings.Join(watch.events, ", ")
				aborted := slices.Contains(watch.events, "abort")
				switch {
				case !strings.Contains(tc.want, "group ("):
					if len(watch.events) != 0 {
						t.Errorf("%s on %s: worker %d saw %s, want no group", name, backend, w, ev)
					}
				case w == failing%len(watches):
					if !aborted || watch.events[len(watch.events)-1] != "abort" || watch.events[len(watch.events)-2] != fmt.Sprint("begin ", failing) {
						t.Errorf("%s on %s: failing worker %d saw %s, want group %d begun and aborted, and no group after", name, backend, w, ev, failing)
					}
				case aborted:
					t.Errorf("%s on %s: worker %d saw %s, want no abort", name, backend, w, ev)
				}
			}
		}
	}
}
