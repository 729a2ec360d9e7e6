package wgvec_test

import (
	"errors"
	"sync"
	"testing"

	"grover/internal/clc"
	"grover/internal/ir"
	"grover/internal/lower"
	"grover/internal/vm"
	"grover/internal/wgvec"
)

// sumTracer folds everything it is told into order-independent sums.
type sumTracer struct {
	groups, accesses, barriers int64
	addrSum                    uint64
	retired                    int64
	perAccessCalls             int64
}

func (s *sumTracer) GroupBegin([3]int, int) { s.groups++ }
func (s *sumTracer) Access(_ *ir.Instr, _ int, addr uint64, size int, _ bool) {
	s.perAccessCalls++
	s.accesses++
	s.addrSum += addr * uint64(size)
}
func (s *sumTracer) Barrier(int)           { s.barriers++ }
func (s *sumTracer) Instrs(_ int, n int64) { s.retired += n }
func (s *sumTracer) GroupEnd()             {}

// batchSumTracer also takes batches, and must then never see a
// per-access call.
type batchSumTracer struct {
	sumTracer
	privateOps int64
}

func (s *batchSumTracer) AccessBatch(b *vm.AccessBatch) {
	// The sums do not depend on order, so the columns need no merging with
	// the records — but they do need reading: most accesses are in them.
	// A private op is one access per item at the op's own address and has
	// no column; the others take the columns in order.
	n, col := len(b.Items), 0
	for _, op := range b.Ops {
		if b.Instrs[op.Instr] == nil {
			panic("op without an instruction")
		}
		if op.Private {
			s.privateOps++
			s.accesses += int64(n)
			s.addrSum += uint64(n) * op.Addr * uint64(op.Size)
			continue
		}
		for _, addr := range b.Cols[col*n : (col+1)*n] {
			s.accesses++
			s.addrSum += addr * uint64(op.Size)
		}
		col++
	}
	if col != b.NumCols() {
		panic("columns left over")
	}
	for wi, recs := range b.Items {
		for _, r := range recs {
			if b.Instrs[r.Instr] == nil {
				panic("record without an instruction")
			}
			s.accesses++
			s.addrSum += r.Addr * uint64(r.Size)
		}
		s.retired += b.Retired[wi]
	}
}

// TestConcurrentTracedLaunches launches one machine from several
// goroutines at once — as an all-device autotune does — with batch and
// per-access tracers attached, so the vm's pooled trace batches are borrowed
// and returned concurrently. Every launch must see the same stream. Run
// under -race.
func TestConcurrentTracedLaunches(t *testing.T) {
	f, err := clc.Parse("t.cl", `
__kernel void k(__global float* out, __global float* in, __local float* tmp) {
    int l = get_local_id(0);
    int g = get_global_id(0);
    float acc = 0.0f;
    for (int i = 0; i <= l % 4; i++) {
        acc += in[(g + i) % 512];
    }
    tmp[l] = acc;
    barrier(CLK_LOCAL_MEM_FENCE);
    out[g] = tmp[(l + 1) % 16] + acc;
}
`, nil)
	if err != nil {
		t.Fatal(err)
	}
	mod, err := lower.Module(f)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := vm.Prepare(mod)
	if err != nil {
		t.Fatal(err)
	}

	const workers = 4
	launch := func(batches bool) (sumTracer, error) {
		g := vm.NewGlobalMem(1 << 16)
		out, in := g.Alloc(512*4), g.Alloc(512*4)
		cfg := vm.Config{
			GlobalSize: [3]int{512, 1, 1}, LocalSize: [3]int{16, 1, 1}, Backend: wgvec.Name,
			Args: []vm.Arg{vm.BufArg(out), vm.BufArg(in), vm.LocalArg(16 * 4)},
		}
		plain := make([]sumTracer, workers)
		batch := make([]batchSumTracer, workers)
		opts := &vm.LaunchOpts{Workers: workers, TracerFor: func(w int) vm.Tracer {
			if batches {
				return &batch[w]
			}
			return &plain[w]
		}}
		if err := prog.Launch("k", cfg, g, opts); err != nil {
			return sumTracer{}, err
		}
		var total sumTracer
		var privateOps int64
		for w := 0; w < workers; w++ {
			s := plain[w]
			if batches {
				s = batch[w].sumTracer
				privateOps += batch[w].privateOps
			}
			total.groups += s.groups
			total.accesses += s.accesses
			total.barriers += s.barriers
			total.addrSum += s.addrSum
			total.retired += s.retired
			total.perAccessCalls += s.perAccessCalls
		}
		if batches && privateOps == 0 {
			// acc and i are variables in registers.
			return total, errors.New("no private op in any batch")
		}
		return total, nil
	}

	want, err := launch(false)
	if err != nil {
		t.Fatal(err)
	}
	if want.groups != 32 || want.barriers != 32 || want.accesses == 0 || want.retired == 0 {
		t.Fatalf("implausible reference stream: %+v", want)
	}
	wantBatched := want
	wantBatched.perAccessCalls = 0

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(batches bool) {
			defer wg.Done()
			for rep := 0; rep < 5; rep++ {
				got, err := launch(batches)
				if err != nil {
					t.Error(err)
					return
				}
				w := want
				if batches {
					w = wantBatched
				}
				if got != w {
					t.Errorf("batches=%v: got %+v, want %+v", batches, got, w)
				}
			}
		}(i%2 == 0)
	}
	wg.Wait()
}
