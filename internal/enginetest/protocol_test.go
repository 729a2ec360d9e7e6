package enginetest_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"grover/internal/ir"
	"grover/internal/vm"
	"grover/opencl"
)

// accessLog is a vm.AccessTracer that writes down every call.
type accessLog struct{ calls []string }

func (l *accessLog) GroupBegin(_ [3]int, linear int) { l.log("begin %d", linear) }
func (l *accessLog) Access(in *ir.Instr, wi int, addr uint64, size int, store bool) {
	l.log("wi%d %p %d %d %v", wi, in, addr, size, store)
}
func (l *accessLog) Instrs(wi int, n int64) { l.log("wi%d retired %d", wi, n) }
func (l *accessLog) Barrier(n int)          { l.log("barrier %d", n) }
func (l *accessLog) GroupEnd()              { l.log("end") }
func (l *accessLog) log(format string, a ...any) {
	l.calls = append(l.calls, fmt.Sprintf(format, a...))
}

// batchLog is a vm.BatchTracer that writes down the protocol calls, and
// each batch as the accesses it replays to.
type batchLog struct {
	calls    []string
	accesses accessLog
}

func (l *batchLog) GroupBegin(_ [3]int, linear int) {
	l.calls = append(l.calls, fmt.Sprint("begin ", linear))
	l.accesses.GroupBegin([3]int{}, linear)
}
func (l *batchLog) AccessBatch(b *vm.AccessBatch) {
	l.calls = append(l.calls, "batch")
	b.Replay(&l.accesses)
}
func (l *batchLog) Barrier(n int) {
	l.calls = append(l.calls, fmt.Sprint("barrier ", n))
	l.accesses.Barrier(n)
}
func (l *batchLog) GroupEnd() {
	l.calls = append(l.calls, "end")
	l.accesses.GroupEnd()
}

// TestRoundProtocol: a kernel of three barrier rounds, the first with a
// divergent region, reaches a batch tracer on every engine as GroupBegin,
// then one AccessBatch per round with a Barrier between rounds, then
// GroupEnd; and reaches a per-access tracer as one stream on every engine —
// the stream the batches replay to.
func TestRoundProtocol(t *testing.T) {
	const src = `
__kernel void rounds(__global float* out, __global float* in, __local float* tile) {
    int l = get_local_id(0);
    int g = get_global_id(0);
    float v = in[g];
    if (l % 3 == 0) {
        v = v * 2.0f + in[(g + 5) % 64];
    }
    tile[l] = v;
    barrier(CLK_LOCAL_MEM_FENCE);
    v += tile[(l + 1) % 16];
    barrier(CLK_LOCAL_MEM_FENCE);
    out[g] = v;
}
`
	ctx := opencl.NewContext(opencl.NewPlatform().Devices()[0])
	prog, err := ctx.CompileProgram("rounds.cl", src, nil)
	if err != nil {
		t.Fatal(err)
	}
	vargs, err := opencl.VMArgs(ctx.NewBuffer(64*4), ctx.NewBuffer(64*4), opencl.LocalMem{Size: 16 * 4})
	if err != nil {
		t.Fatal(err)
	}
	const groups = 4
	var want []string
	for g := 0; g < groups; g++ {
		want = append(want, fmt.Sprint("begin ", g), "batch", "barrier 16", "batch", "barrier 16", "batch", "end")
	}
	var stream []string
	for _, backend := range backends {
		cfg := vm.Config{GlobalSize: [3]int{16 * groups}, LocalSize: [3]int{16}, Args: vargs, Backend: backend}
		batches, accesses := &batchLog{}, &accessLog{}
		for _, tr := range []vm.Tracer{batches, accesses} {
			opts := &vm.LaunchOpts{Workers: 1, TracerFor: func(int) vm.Tracer { return tr }}
			if err := prog.VM().Launch("rounds", cfg, ctx.Mem(), opts); err != nil {
				t.Fatalf("%s: %v", backend, err)
			}
		}
		if !slices.Equal(batches.calls, want) {
			t.Errorf("%s: batch tracer saw\n%s\nwant\n%s", backend, strings.Join(batches.calls, ", "), strings.Join(want, ", "))
		}
		if !slices.Equal(batches.accesses.calls, accesses.calls) {
			t.Errorf("%s: the batches replay to another stream than the per-access tracer's", backend)
		}
		if stream == nil {
			stream = accesses.calls
		} else if !slices.Equal(accesses.calls, stream) {
			t.Errorf("%s: per-access stream differs from %s's", backend, backends[0])
		}
	}
}
