package enginetest_test

import (
	"encoding/binary"
	"fmt"
	"math"
	"strings"
	"testing"

	"grover/internal/enginetest"
	"grover/internal/vm"
	"grover/opencl"
)

// imageKind is an element kind as C's rules give it, written here without
// clc or vm: its width, whether it is a float, and for an integer whether
// it is signed.
type imageKind struct {
	size            int
	float, unsigned bool
}

var imageKinds = map[string]imageKind{
	"char": {1, false, false}, "uchar": {1, false, true},
	"short": {2, false, false}, "ushort": {2, false, true},
	"int": {4, false, false}, "uint": {4, false, true},
	"long": {8, false, false}, "ulong": {8, false, true},
	"float": {4, true, false}, "double": {8, true, false},
}

// wrap converts x to the integer kind: modulo 2^width, a signed kind in
// two's complement. It is what a store leaves in memory and what a load
// reads back, sign- or zero-extended.
func (k imageKind) wrap(x int64) int64 {
	if k.size == 8 {
		return x
	}
	shift := 64 - 8*uint(k.size)
	if k.unsigned {
		return int64(uint64(x) << shift >> shift)
	}
	return x << shift >> shift
}

// round converts x to the float kind: a float rounds to 32 bits.
func (k imageKind) round(x float64) float64 {
	if k.size == 4 {
		return float64(float32(x))
	}
	return x
}

// put writes i (an integer kind) or f (a float kind) at b, k.size bytes
// in little-endian order.
func (k imageKind) put(b []byte, i int64, f float64) {
	var le [8]byte
	switch {
	case k.float && k.size == 4:
		binary.LittleEndian.PutUint32(le[:], math.Float32bits(float32(f)))
	case k.float:
		binary.LittleEndian.PutUint64(le[:], math.Float64bits(f))
	default:
		binary.LittleEndian.PutUint64(le[:], uint64(i))
	}
	copy(b, le[:k.size])
}

// get reads the value at b: an integer wrapped to the kind, or a float.
func (k imageKind) get(b []byte) (int64, float64) {
	var le [8]byte
	copy(le[:], b[:k.size])
	bits := binary.LittleEndian.Uint64(le[:])
	switch {
	case k.float && k.size == 4:
		return 0, float64(math.Float32frombits(uint32(bits)))
	case k.float:
		return 0, math.Float64frombits(bits)
	}
	return k.wrap(int64(bits)), 0
}

// Operands every kind is tried on: each integer kind takes them wrapped to
// its width, so each has values at and past its sign bit and its maximum;
// the floats include values a float cannot hold exactly.
var (
	imageInts = []int64{0, 1, -1, 126, 127, 128, 255, 256, -128, -129, 32767, 32768, 65535,
		65536, math.MaxInt32, 1 << 31, math.MaxUint32, 1 << 32, math.MaxInt64, math.MinInt64,
		0x0123456789abcdef, -0x0123456789abcdef}
	imageFloats = []float64{0, -0.5, 0.1, 1.5, 1 << 24, -(1<<24 + 1), 1 << 53, math.MaxFloat32,
		1e-45, 5e-324, -1e30, 1e300}
)

const imageSrc = `
%[1]s get(__local %[1]s* p) { return *p; }
void put(__global %[1]s* q, %[1]s x) { *q = x; }

__kernel void image(__global %[1]s* in, __global %[1]s* out, __global %[2]s* wide, __local %[1]s* tmp) {
    int i = get_global_id(0);
    int l = get_local_id(0);
    int n = get_local_size(0);
    int g = get_global_size(0);
    %[1]s v = in[i];
    tmp[n - 1 - l] = v + (%[1]s)(%[3]s);
    barrier(CLK_LOCAL_MEM_FENCE);
    put(out + i, get(tmp + l));
    out[g + i] = in[0];
%[4]s    if (l %% 3 == 1) {
        out[2 * g + i] = v;
    }
}
`

// TestMemoryImage checks how both engines lay every scalar kind, and
// vectors of some, out in memory, against values the test computes from
// C's rules: each work-item loads an element of its kind from __global
// (fused address, in[i]), adds a constant — an integer wraps to its kind,
// a float rounds — and stores it to __local (fused); after a barrier it
// reads a neighbour's back from __local and stores it to __global, both
// through a pointer a function is given (unfused). Then it copies in[0],
// a uniform load under a full mask, and loads its element and in[0] again
// to store them widened to long or double, so that a load's sign or zero
// extension shows: a store writes only the kind's width, whatever the
// register held. Last, every third work-item stores its own element, a
// divergent store that must leave the other slots alone. The widening
// comes before the divergent store because lanes that branched apart run
// the rest of the kernel under partial masks, where nothing is uniform.
func TestMemoryImage(t *testing.T) {
	const local, groups = 12, 2
	const items = local * groups
	for _, typ := range []string{"char", "uchar", "short", "ushort", "int", "uint", "long", "ulong",
		"float", "double", "char4", "short2", "int4", "float4", "double2"} {
		name, lanes := typ, 1
		if c := strings.IndexAny(typ, "24"); c > 0 {
			name, lanes = typ[:c], int(typ[c]-'0')
		}
		k := imageKinds[name]
		wideType, add := "long", "100"
		if k.float {
			wideType, add = "double", "3.0"
		}
		var widen strings.Builder
		for j := 0; j < lanes; j++ {
			sel := ""
			if lanes > 1 {
				sel = fmt.Sprintf(".s%d", j)
			}
			fmt.Fprintf(&widen, "    wide[%[1]d * i + %[2]d] = (%[3]s)in[i]%[4]s;\n", lanes, j, wideType, sel)
			fmt.Fprintf(&widen, "    wide[%[1]d * (g + i) + %[2]d] = (%[3]s)in[0]%[4]s;\n", lanes, j, wideType, sel)
		}
		src := fmt.Sprintf(imageSrc, typ, wideType, add, widen.String())

		// The input: element e holds operand e, wrapped or rounded to the
		// kind.
		elems := items * lanes
		inInt, inFlt := make([]int64, elems), make([]float64, elems)
		in := make([]byte, elems*k.size)
		for e := range inInt {
			inInt[e] = k.wrap(imageInts[e%len(imageInts)])
			inFlt[e] = k.round(imageFloats[e%len(imageFloats)])
			k.put(in[e*k.size:], inInt[e], inFlt[e])
		}
		// What C says each element of out holds (sentinel: untouched) and
		// what each of wide holds.
		const sentinel = 0x5a
		wantOut := make([]byte, 3*elems*k.size)
		for b := range wantOut {
			wantOut[b] = sentinel
		}
		wantWide := make([]byte, 2*elems*8)
		wk := imageKinds[wideType]
		for i := 0; i < items; i++ {
			l, grp := i%local, i/local
			from := grp*local + local - 1 - l // whose element tmp[l] holds
			for j := 0; j < lanes; j++ {
				e, s := i*lanes+j, from*lanes+j
				k.put(wantOut[e*k.size:], k.wrap(inInt[s]+100), k.round(inFlt[s]+3))
				k.put(wantOut[(elems+e)*k.size:], inInt[j], inFlt[j])
				if l%3 == 1 {
					k.put(wantOut[(2*elems+e)*k.size:], inInt[e], inFlt[e])
				}
				wk.put(wantWide[e*8:], inInt[e], inFlt[e])
				wk.put(wantWide[(elems+e)*8:], inInt[j], inFlt[j])
			}
		}

		for _, engine := range enginetest.Engines() {
			mem := vm.NewGlobalMem(1 << 12)
			inBuf, outBuf, wideBuf := mem.Alloc(len(in)), mem.Alloc(len(wantOut)), mem.Alloc(len(wantWide))
			inBuf.WriteBytes(in)
			for b := range outBuf.Bytes() {
				outBuf.Bytes()[b] = sentinel
			}
			err := launchImage(t, src, "image", engine, items, local, mem, vm.BufArg(inBuf), vm.BufArg(outBuf),
				vm.BufArg(wideBuf), vm.LocalArg(local*lanes*k.size))
			if err != nil {
				t.Fatalf("%s on %s: %v", typ, engine, err)
			}
			checkImage(t, typ+" out", engine, k, outBuf.Bytes(), wantOut)
			checkImage(t, typ+" wide", engine, wk, wideBuf.Bytes(), wantWide)
		}
	}
}

// checkImage reports every element of got that is not want's, decoded as
// kind k.
func checkImage(t *testing.T, what, engine string, k imageKind, got, want []byte) {
	t.Helper()
	bad := 0
	for e := 0; e < len(want)/k.size; e++ {
		g, w := got[e*k.size:(e+1)*k.size], want[e*k.size:(e+1)*k.size]
		if string(g) == string(w) {
			continue
		}
		if bad++; bad > 5 {
			t.Errorf("%s on %s: more elements differ", what, engine)
			return
		}
		gi, gf := k.get(g)
		wi, wf := k.get(w)
		t.Errorf("%s on %s: element %d is % x (%d, %g), want % x (%d, %g)", what, engine, e, g, gi, gf, w, wi, wf)
	}
}

// TestMemoryImageBounds: a narrow load past the end of global memory and a
// vector store that starts inside a __local arena and runs off its end
// give one error on both engines, naming the work-item and the element
// that is out of bounds.
func TestMemoryImageBounds(t *testing.T) {
	const src = `
__kernel void load_past(__global ushort* in, __global ushort* out, int k) {
    int i = get_global_id(0);
    out[i] = in[i + k];
}
__kernel void store_across(__global float4* in, __local float* tmp) {
    int l = get_local_id(0);
    *(__local float4*)(tmp + 4 * l + 2 * (l == 3)) = in[l];
}
`
	const local = 4
	for _, tc := range []struct {
		kernel string
		args   func(*vm.GlobalMem) []vm.Arg
		want   string
	}{
		// Work-item 3 loads 2 bytes at the arena's end.
		{"load_past", func(mem *vm.GlobalMem) []vm.Arg {
			in, out := mem.Alloc(local*2), mem.Alloc(local*2)
			end := int(out.Off) + out.Size
			return []vm.Arg{vm.BufArg(in), vm.BufArg(out), vm.IntArg(int64(end/2 - 3))}
		}, "work-item 3: vm: global access at"},
		// Work-item 3's float4 starts at byte 56 of a 64-byte arena: its
		// first two elements fit, the third is out of bounds.
		{"store_across", func(mem *vm.GlobalMem) []vm.Arg {
			return []vm.Arg{vm.BufArg(mem.Alloc(local * 16)), vm.LocalArg(local * 16)}
		}, "work-item 3: vm: local access at 64 out of bounds (64)"},
	} {
		var first string
		for _, engine := range enginetest.Engines() {
			mem := vm.NewGlobalMem(1 << 10)
			err := launchImage(t, src, tc.kernel, engine, local, local, mem, tc.args(mem)...)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("%s on %s: error %v, want one containing %q", tc.kernel, engine, err, tc.want)
			}
			if first == "" {
				first = err.Error()
			} else if err.Error() != first {
				t.Errorf("%s: %s says %q, the interpreter %q", tc.kernel, engine, err, first)
			}
		}
	}
}

// launchImage compiles src as the repo does and runs kernel on engine over
// items work-items in groups of local, in mem.
func launchImage(t *testing.T, src, kernel, engine string, items, local int, mem *vm.GlobalMem, args ...vm.Arg) error {
	t.Helper()
	mod, err := opencl.CompileModule("image.cl", src, nil)
	if err != nil {
		t.Fatalf("compile: %v\n%s", err, src)
	}
	prog, err := vm.Prepare(mod)
	if err != nil {
		t.Fatal(err)
	}
	cfg := vm.Config{GlobalSize: [3]int{items, 1, 1}, LocalSize: [3]int{local, 1, 1}, Backend: engine, Args: args}
	return prog.Launch(kernel, cfg, mem, nil)
}
