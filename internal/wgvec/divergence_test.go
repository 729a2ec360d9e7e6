// Divergence-stress fixtures for the lockstep backend: kernels chosen
// to force mask partitioning, reconvergence, and uniform-branch barrier
// placement. Every kernel must produce bit-identical memory, retire the
// same instruction count and report the same per-access stream on the
// interpreter and on wgvec.
package wgvec_test

import (
	"bytes"
	"encoding/binary"
	"testing"
	"unsafe"

	"grover/internal/enginetest"
	"grover/internal/ir"
	"grover/internal/vm"
	"grover/internal/wgvec"
	"grover/opencl"
)

var backends = enginetest.Engines()

// nestedSrc: both loop trip counts depend on the work-item id, so lanes
// leave the inner and outer loops at different iterations and must
// reconverge at each loop exit.
const nestedSrc = `
__kernel void nested(__global int* out, int n) {
    int g = get_global_id(0);
    int acc = 0;
    for (int i = 0; i < (g % 4) + 1; i++) {
        for (int j = 0; j < ((i + g) % 3) + 1; j++) {
            acc += i * 10 + j + 1;
        }
    }
    out[g] = acc;
}
`

// breakSrc: divergent continue and break, plus a divergent early return.
const breakSrc = `
__kernel void breaker(__global int* out, int n) {
    int g = get_global_id(0);
    if (g >= n) {
        return;
    }
    int acc = 0;
    for (int i = 0; i < 16; i++) {
        if (((i + g) % 5) == 0) {
            continue;
        }
        if (i > (g % 7) + 6) {
            break;
        }
        acc += i + 1;
    }
    out[g] = acc;
}
`

// ubarSrc: a barrier pair inside a branch on a uniform kernel argument —
// legal because every work-item takes the same arm. Exercises wgvec's
// all-lanes-agree inline continuation around barrier suspension.
const ubarSrc = `
__kernel void ubar(__global float* out, __global float* in,
                   __local float* tile, int mode) {
    int l = get_local_id(0);
    int ls = get_local_size(0);
    int g = get_global_id(0);
    float v = in[g];
    if (mode > 0) {
        tile[l] = v;
        barrier(CLK_LOCAL_MEM_FENCE);
        v += tile[(l + 1) % ls];
        barrier(CLK_LOCAL_MEM_FENCE);
    }
    out[g] = v;
}
`

// diamondSrc: a divergent if/else diamond feeding a local-memory
// exchange, so reconvergence must be complete before the barrier.
const diamondSrc = `
__kernel void diamond(__global float* out, __global float* in,
                      __local float* tile, int n) {
    int l = get_local_id(0);
    int ls = get_local_size(0);
    int g = get_global_id(0);
    float v;
    if ((g % 2) == 0) {
        v = in[g] * 2.0f;
    } else {
        v = in[g] + 3.0f;
    }
    tile[l] = v;
    barrier(CLK_LOCAL_MEM_FENCE);
    out[g] = tile[ls - 1 - l];
}
`

// privSrc: regression for uniform loads/stores of private variables. The
// loop counter and accumulator live at statically uniform private
// addresses, but private storage is per-lane: a second work-group must
// not observe the first group's accumulator.
const privSrc = `
__kernel void priv(__global float* out, __global float* in,
                   __local float* dyn, int n) {
    int l = get_local_id(0);
    int ls = get_local_size(0);
    int g = get_global_id(0);
    dyn[l] = in[g % n];
    barrier(CLK_LOCAL_MEM_FENCE);
    float acc = 0.0f;
    for (int i = 0; i < ls; i++) {
        acc += dyn[(l + i) % ls];
    }
    out[g % n] = acc + (float)l;
}
`

// divWriteSrc: a variable written under a divergent branch — a store under
// a partial mask — and read after the lanes reconverge.
const divWriteSrc = `
__kernel void divwrite(__global int* out, int n) {
    int g = get_global_id(0);
    int v = 7;
    float w = 0.5f;
    if ((g % 3) == 0) {
        v = g * 2;
        if ((g % 2) == 0) {
            w = w + (float)v;
        }
    } else {
        w = 2.0f;
    }
    out[g] = v + (int)(w * 4.0f);
}
`

// loopExitSrc: variables written in a loop the lanes leave at different
// iterations; each lane must keep what its own last iteration wrote.
const loopExitSrc = `
__kernel void loopexit(__global int* out, int n) {
    int g = get_global_id(0);
    int last = -1;
    long sum = 0;
    for (int i = 0; i < (g % 5) + 1; i++) {
        last = i * g;
        sum += last;
    }
    out[g] = last + (int)sum;
}
`

// kindsSrc: a variable of every scalar kind, given values outside its range
// (300 into a uchar, -1 into a uint, 0.1 into a float) before and inside a
// loop of divergent trip count, so every kind's store conversion runs under
// a full and under a partial mask.
const kindsSrc = `
__kernel void kinds(__global int* out, int n) {
    int g = get_global_id(0);
    bool b = g + 2;
    char c = 200 + g;
    uchar uc = 300 + g;
    short s = 40000 + g;
    ushort us = 70000 + g;
    uint u = -1 - g;
    long l = (long)g * 3000000000;
    float f = 0.1;
    double d = 0.1 + g;
    for (int i = 0; i < (g % 3) + 1; i++) {
        b = !b;
        c += 100;
        uc += 200;
        s += 30000;
        us += 60000;
        u -= 3000000000u;
        l *= 3;
        f += 0.1;
        d += 0.1;
    }
    out[g * 10 + 0] = b;
    out[g * 10 + 1] = c;
    out[g * 10 + 2] = uc;
    out[g * 10 + 3] = s;
    out[g * 10 + 4] = us;
    out[g * 10 + 5] = (int)(u >> 3);
    out[g * 10 + 6] = (int)(l >> 7);
    out[g * 10 + 7] = (int)(f * 1000000.0f);
    out[g * 10 + 8] = (int)(d * 1000000.0);
    out[g * 10 + 9] = (f == 0.1) + 2 * (d == (0.1 + g));
}
`

// unwrittenSrc: variables read before anything is written to them. In a
// launch's first group on a worker they read as zero on both engines: fresh
// private stacks are zero and so are fresh register columns.
const unwrittenSrc = `
__kernel void unwritten(__global int* out, int n) {
    int g = get_global_id(0);
    int v;
    float w;
    if (g >= n) {
        v = 5;
        w = 2.0f;
    }
    out[g] = v * 3 + (int)w + 1;
}
`

// streamTracer counts retired instructions and folds the whole per-access
// stream, instruction identity included, into one hash.
type streamTracer struct {
	retired int64
	h       uint64
}

func (t *streamTracer) mix(vals ...uint64) {
	for _, v := range vals {
		t.h ^= v
		t.h *= 1099511628211
	}
}

func (t *streamTracer) GroupBegin(group [3]int, linear int) { t.mix(1, uint64(linear)) }
func (t *streamTracer) Access(in *ir.Instr, wi int, addr uint64, size int, store bool) {
	var st uint64
	if store {
		st = 1
	}
	t.mix(2, uint64(uintptr(unsafe.Pointer(in))), uint64(wi), addr, uint64(size), st)
}
func (t *streamTracer) Barrier(wiCount int) { t.mix(3, uint64(wiCount)) }
func (t *streamTracer) Instrs(wi int, n int64) {
	t.retired += n
	t.mix(4, uint64(wi), uint64(n))
}
func (t *streamTracer) GroupEnd() { t.mix(5) }

type fixture struct {
	name, src, kernel string
	global, local     [3]int
	scalar            int64 // trailing int argument (n or mode)
	dynBytes          int   // dynamic __local size; 0 = no __local argument
	floats            bool  // float in/out buffers instead of one int buffer
	// check, when set, looks at each engine's memory on its own.
	check func(t *testing.T, backend string, mem []byte)
}

func runFixture(t *testing.T, fx fixture) {
	t.Helper()
	plat := opencl.NewPlatform()
	// One program for every engine — the stream hash tells instructions
	// apart by pointer — and a context each for its memory.
	prog, err := opencl.NewContext(plat.Devices()[0]).CompileProgram(fx.name, fx.src, nil)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	var wantMem []byte
	var want streamTracer
	for bi, backend := range backends {
		ctx := opencl.NewContext(plat.Devices()[0])
		var args []interface{}
		if fx.floats {
			out := ctx.NewBuffer(4 * 256)
			in := ctx.NewBuffer(4 * 256)
			vals := make([]float32, 256)
			for i := range vals {
				vals[i] = float32(i%13) + 0.5
			}
			in.WriteFloat32(vals)
			args = []interface{}{out, in}
		} else {
			args = []interface{}{ctx.NewBuffer(4 * 256)}
		}
		if fx.dynBytes > 0 {
			args = append(args, opencl.LocalMem{Size: fx.dynBytes})
		}
		args = append(args, fx.scalar)
		vargs, err := opencl.VMArgs(args...)
		if err != nil {
			t.Fatalf("args: %v", err)
		}
		tr := &streamTracer{}
		cfg := vm.Config{GlobalSize: fx.global, LocalSize: fx.local, Backend: backend, Args: vargs}
		opts := &vm.LaunchOpts{Workers: 1, TracerFor: func(int) vm.Tracer { return tr }}
		if err := prog.VM().Launch(fx.kernel, cfg, ctx.Mem(), opts); err != nil {
			t.Fatalf("%s: %v", backend, err)
		}
		if fx.check != nil {
			fx.check(t, backend, ctx.Mem().Data)
		}
		if bi == 0 {
			wantMem = append([]byte(nil), ctx.Mem().Data...)
			want = *tr
			continue
		}
		if !bytes.Equal(ctx.Mem().Data, wantMem) {
			t.Errorf("%s: memory differs from interpreter", backend)
		}
		if tr.retired != want.retired {
			t.Errorf("%s: retired %d instructions, interpreter retired %d", backend, tr.retired, want.retired)
		}
		if tr.h != want.h {
			t.Errorf("%s: per-access stream hashes to %#x, the interpreter's to %#x", backend, tr.h, want.h)
		}
	}
}

func TestDivergenceFixtures(t *testing.T) {
	fixtures := []fixture{
		{name: "nested", src: nestedSrc, kernel: "nested",
			global: [3]int{64, 1, 1}, local: [3]int{16, 1, 1}, scalar: 64},
		{name: "break", src: breakSrc, kernel: "breaker",
			global: [3]int{64, 1, 1}, local: [3]int{16, 1, 1}, scalar: 50},
		{name: "ubar-on", src: ubarSrc, kernel: "ubar",
			global: [3]int{64, 1, 1}, local: [3]int{8, 1, 1}, scalar: 1,
			dynBytes: 4 * 8, floats: true},
		{name: "ubar-off", src: ubarSrc, kernel: "ubar",
			global: [3]int{64, 1, 1}, local: [3]int{8, 1, 1}, scalar: 0,
			dynBytes: 4 * 8, floats: true},
		{name: "diamond", src: diamondSrc, kernel: "diamond",
			global: [3]int{64, 1, 1}, local: [3]int{8, 1, 1}, scalar: 64,
			dynBytes: 4 * 8, floats: true},
		{name: "priv", src: privSrc, kernel: "priv",
			global: [3]int{32, 2, 1}, local: [3]int{8, 1, 1}, scalar: 60,
			dynBytes: 4 * 8, floats: true},
		{name: "divwrite", src: divWriteSrc, kernel: "divwrite",
			global: [3]int{64, 1, 1}, local: [3]int{16, 1, 1}, scalar: 64},
		{name: "loopexit", src: loopExitSrc, kernel: "loopexit",
			global: [3]int{64, 1, 1}, local: [3]int{16, 1, 1}, scalar: 64},
		{name: "kinds", src: kindsSrc, kernel: "kinds",
			global: [3]int{24, 1, 1}, local: [3]int{8, 1, 1}, scalar: 24},
		// One group: what a later group finds in a variable nobody wrote
		// is whatever the one before left there.
		{name: "unwritten", src: unwrittenSrc, kernel: "unwritten",
			global: [3]int{16, 1, 1}, local: [3]int{16, 1, 1}, scalar: 64,
			check: func(t *testing.T, backend string, mem []byte) {
				for g := 0; g < 16; g++ {
					if v := int32(binary.LittleEndian.Uint32(mem[4*g:])); v != 1 {
						t.Errorf("%s: out[%d] = %d, want 1: unwritten variables read as zero", backend, g, v)
					}
				}
			}},
	}
	for _, fx := range fixtures {
		fx := fx
		t.Run(fx.name, func(t *testing.T) {
			t.Parallel()
			runFixture(t, fx)
		})
	}
}

// outStores counts what reaches a batch tracer of the stores to one buffer
// (addresses lo to hi): ops with a column, and records.
type outStores struct {
	lo, hi    uint64
	ops, recs int
}

func (t *outStores) GroupBegin([3]int, int) {}
func (t *outStores) Barrier(int)            {}
func (t *outStores) GroupEnd()              {}
func (t *outStores) AccessBatch(b *vm.AccessBatch) {
	in := func(addr uint64) bool { return addr >= t.lo && addr < t.hi }
	n, col := len(b.Items), 0
	for _, op := range b.Ops {
		if op.Private {
			continue
		}
		if op.Store && in(b.Cols[col*n]) {
			t.ops++
		}
		col++
	}
	for _, recs := range b.Items {
		for _, r := range recs {
			if r.Store && in(r.Addr) {
				t.recs++
			}
		}
	}
}

// TestLanesReconvergeAfterDivergentIf: the lanes that take a divergent
// `if` wait at its join for the others, so the store after it runs under
// the full mask and is traced as one op with a column per group, not a
// record per lane.
func TestLanesReconvergeAfterDivergentIf(t *testing.T) {
	prog, err := opencl.NewContext(opencl.NewPlatform().Devices()[0]).CompileProgram("rejoin.cl", `
__kernel void rejoin(__global int* out, __global int* in) {
    int g = get_global_id(0);
    if (get_local_id(0) < 5)
        in[g] = 0;
    out[g] = g;
}
`, nil)
	if err != nil {
		t.Fatal(err)
	}
	g := vm.NewGlobalMem(1 << 12)
	out, in := g.Alloc(32*4), g.Alloc(32*4)
	tr := &outStores{lo: out.Addr(), hi: out.Addr() + 32*4}
	cfg := vm.Config{GlobalSize: [3]int{32, 1, 1}, LocalSize: [3]int{16, 1, 1}, Backend: wgvec.Name,
		Args: []vm.Arg{vm.BufArg(out), vm.BufArg(in)}}
	if err := prog.VM().Launch("rejoin", cfg, g, &vm.LaunchOpts{Workers: 1, TracerFor: func(int) vm.Tracer { return tr }}); err != nil {
		t.Fatal(err)
	}
	if tr.ops != 2 || tr.recs != 0 {
		t.Errorf("stores to out: %d ops and %d records, want one op per group (2) and no record", tr.ops, tr.recs)
	}
}
