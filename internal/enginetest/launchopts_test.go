package enginetest_test

import (
	"bytes"
	"math/rand"
	"runtime"
	"testing"

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
