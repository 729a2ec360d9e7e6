package wgvec

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"grover/internal/clc"
	"grover/internal/vm"
)

// The straight loops a full mask runs (fullOp, and the full-mask loops of
// addrPass, loadCol and slotOp) against the mask loops they stand in for:
// over random columns seeded with NaN, ±Inf, −0, float32 rounding edges
// and int32 wrap, a full mask must give every lane what a mask of that lane
// alone gives it, and a mask one lane short must leave that lane's
// destination as it was.

// laneFloats are float register values a lane loop must carry bit for bit.
var laneFloats = []float64{
	0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), 1, -1, 0.1,
	math.MaxFloat32, -math.MaxFloat32,
	0x1.ffffffp127,                // halfway past the greatest float32: rounds to +Inf
	1 + 0x1p-24,                   // halfway between two float32s: rounds to even, 1
	1 + 0x1p-23 + 0x1p-24,         // halfway: rounds to even, up
	16777217,                      // 2^24 + 1
	0x1p-149, 0x1p-150, -0x1p-150, // the least subnormal float32, and half of it
	math.SmallestNonzeroFloat64, math.MaxFloat64,
}

// laneInts are integer register values, around the edges of int32 and
// int64 arithmetic.
var laneInts = []int64{
	0, 1, -1, 2, math.MaxInt32, math.MinInt32, math.MaxInt32 + 1, math.MaxUint32,
	1 << 32, math.MinInt64, math.MaxInt64, -math.MaxInt32,
}

func laneFloat(r *rand.Rand) float64 {
	switch r.Intn(3) {
	case 0:
		return laneFloats[r.Intn(len(laneFloats))]
	case 1:
		return float64(float32(r.NormFloat64() * 1e3))
	}
	return r.NormFloat64() * math.Pow(2, float64(r.Intn(200)-100))
}

func laneInt(r *rand.Rand) int64 {
	switch r.Intn(3) {
	case 0:
		return laneInts[r.Intn(len(laneInts))]
	case 1:
		return int64(int32(r.Uint32()))
	}
	return int64(r.Uint64())
}

// laneFrame is a random register file of n lanes: 4 int and 4 float
// registers and 4 float vector registers of ld lanes each.
func laneFrame(r *rand.Rand, n, ld int) *colFrame {
	refs := make([]ref, ld)
	for i := range refs {
		refs[i] = ref{Bank: bankFlt, Idx: int32(i % 4)}
	}
	bf := &bfunc{NInt: 4, NFlt: 4, VecFLens: []int{ld, ld, ld, ld}, Aux: []aux{{Refs: refs}}}
	fr := &colFrame{bf: bf, n: n}
	fr.ri = growCols[int64](nil, bf.NInt, n)
	fr.rf = growCols[float64](nil, bf.NFlt, n)
	fr.vf = growVecCols[float64](nil, bf.VecFLens, n)
	for _, col := range fr.ri {
		for l := range col {
			col[l] = laneInt(r)
		}
	}
	for _, cols := range [][][]float64{fr.rf, fr.vf} {
		for _, col := range cols {
			for l := range col {
				col[l] = laneFloat(r)
			}
		}
	}
	return fr
}

// clone copies the frame's register file.
func (fr *colFrame) clone() *colFrame {
	c := *fr
	c.ri = cloneCols(fr.ri)
	c.rf = cloneCols(fr.rf)
	c.vf = cloneCols(fr.vf)
	return &c
}

func cloneCols[T int64 | float64](cols [][]T) [][]T {
	out := make([][]T, len(cols))
	for i, col := range cols {
		out[i] = slices.Clone(col)
	}
	return out
}

// sameBits reports whether two frames hold the same bits in every
// register, and the first register and lane where they differ.
func sameBits(a, b *colFrame) (bool, string) {
	for r := range a.ri {
		for l := range a.ri[r] {
			if a.ri[r][l] != b.ri[r][l] {
				return false, fmt.Sprintf("ri[%d][%d]: %d, %d", r, l, a.ri[r][l], b.ri[r][l])
			}
		}
	}
	for bank, cols := range [][2][][]float64{{a.rf, b.rf}, {a.vf, b.vf}} {
		for r := range cols[0] {
			for l := range cols[0][r] {
				x, y := cols[0][r][l], cols[1][r][l]
				if math.Float64bits(x) != math.Float64bits(y) {
					return false, fmt.Sprintf("%s[%d][%d]: %v, %v", []string{"rf", "vf"}[bank], r, l, x, y)
				}
			}
		}
	}
	return true, ""
}

// laneGroup is a group state of n lanes over a global arena of mem.
func laneGroup(n int, mem []byte) *groupState {
	g := &groupState{gmem: mem, n: n, addrs: make([]uint64, n), priv: make([][]byte, n)}
	for l := range g.priv {
		g.priv[l] = make([]byte, 64)
	}
	return g
}

// oneShort is every lane but skip.
func oneShort(n, skip int) []int32 {
	var mask []int32
	for l := 0; l < n; l++ {
		if l != skip {
			mask = append(mask, int32(l))
		}
	}
	return mask
}

// checkLaneLoops runs one instruction three ways on copies of fr — under
// the full mask, lane by lane under masks of one lane, and under a mask
// that leaves lane skip out — with run, and fails t unless the first two
// agree on every register and the third leaves lane skip's destination,
// as dest reads it, as it was.
func checkLaneLoops(t *testing.T, what string, fr *colFrame, skip int, run func(fr *colFrame, mask []int32) error, dest func(fr *colFrame, lane int) []uint64) {
	t.Helper()
	n := fr.n
	full, lanes, short := fr.clone(), fr.clone(), fr.clone()
	all := make([]int32, n)
	for l := range all {
		all[l] = int32(l)
	}
	errFull := run(full, all)
	var errLanes error
	for l := range all {
		if err := run(lanes, all[l:l+1]); err != nil && errLanes == nil {
			errLanes = err
		}
	}
	if fmt.Sprint(errFull) != fmt.Sprint(errLanes) {
		t.Fatalf("%s: full mask fails with %v, lane by lane with %v", what, errFull, errLanes)
	}
	if errFull != nil {
		return
	}
	if ok, diff := sameBits(full, lanes); !ok {
		t.Fatalf("%s: full mask and lane-by-lane masks differ at %s", what, diff)
	}
	if err := run(short, oneShort(n, skip)); err != nil {
		t.Fatalf("%s: mask one lane short: %v", what, err)
	}
	if before, after := dest(fr, skip), dest(short, skip); !slices.Equal(before, after) {
		t.Fatalf("%s: lane %d is out of the mask, but its destination went from %x to %x", what, skip, before, after)
	}
}

// intDest and so on read one lane's destination register.
func intDest(reg int32) func(*colFrame, int) []uint64 {
	return func(fr *colFrame, l int) []uint64 { return []uint64{uint64(fr.ri[reg][l])} }
}

func fltDest(reg int32) func(*colFrame, int) []uint64 {
	return func(fr *colFrame, l int) []uint64 { return []uint64{math.Float64bits(fr.rf[reg][l])} }
}

func vecDest(reg int32) func(*colFrame, int) []uint64 {
	return func(fr *colFrame, l int) []uint64 {
		ld := fr.bf.VecFLens[reg]
		var out []uint64
		for _, v := range fr.vf[reg][l*ld : (l+1)*ld] {
			out = append(out, math.Float64bits(v))
		}
		return out
	}
}

// TestFullOpMatchesMaskLoop: every op of fullOp's table, operands drawn at
// random and sometimes the destination itself.
func TestFullOpMatchesMaskLoop(t *testing.T) {
	r := rand.New(rand.NewSource(53))
	table := []struct {
		op   opcode
		kind clc.ScalarKind
		dest func(int32) func(*colFrame, int) []uint64
	}{
		{opMovI, clc.KLong, intDest},
		{opAddI32, clc.KInt, intDest},
		{opAddF32, clc.KFloat, fltDest},
		{opSubF32, clc.KFloat, fltDest},
		{opMulF32, clc.KFloat, fltDest},
		{opVAddF, clc.KFloat, vecDest},
		{opVMulF, clc.KFloat, vecDest},
		{opBuildF, clc.KFloat, vecDest},
	}
	for _, n := range []int{2, 33, 256} {
		for _, ld := range []int{2, 3, 4} {
			for _, tc := range table {
				for i := 0; i < 20; i++ {
					fr := laneFrame(r, n, ld)
					g := laneGroup(n, nil)
					in := &inst{Op: tc.op, Kind: uint8(tc.kind), A: int32(r.Intn(4)), B: int32(r.Intn(4)), C: int32(r.Intn(4))}
					if !fr.clone().fullOp(in, n) {
						t.Fatalf("op %d is not in fullOp's table", tc.op)
					}
					what := fmt.Sprintf("op %d, %d lanes of %d, a=%d b=%d c=%d", tc.op, n, ld, in.A, in.B, in.C)
					checkLaneLoops(t, what, fr, r.Intn(n), func(fr *colFrame, mask []int32) error {
						return g.execOp(fr, in, mask, 0)
					}, tc.dest(in.A))
				}
			}
		}
	}
	// Off the table: an op fullOp does not cover.
	fr := laneFrame(r, 4, 4)
	if in := (inst{Op: opAddI, Kind: uint8(clc.KLong)}); fr.fullOp(&in, 4) {
		t.Errorf("op %d ran as a full-mask loop", in.Op)
	}
	// opVAddF and opVMulF round to float32, so a double vector's add and
	// multiply compile to the generic op.
	prog := prepare(t, "dadd", `__kernel void dadd(__global double4* a) {
    int i = get_global_id(0);
    a[i] = a[i] + a[i] * a[i];
}
`)
	m, err := Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	generic := 0
	for _, in := range m.funcs[prog.Module.Funcs[0]].Code {
		switch in.Op {
		case opVAddF, opVMulF:
			t.Errorf("a double4 operator compiled to the float32 op %d", in.Op)
		case opVBinF:
			generic++
		}
	}
	if generic != 2 {
		t.Errorf("a double4 add and multiply compiled to %d generic ops, want 2", generic)
	}
}

// TestFullMaskMemoryLoopsMatchMaskLoop: the fused address pass, traced and
// untraced, the float load (an out-of-bounds lane included) and the slot
// stores that normalize.
func TestFullMaskMemoryLoopsMatchMaskLoop(t *testing.T) {
	r := rand.New(rand.NewSource(5353))
	const words = 1024
	mem := make([]byte, 4*words)
	for i := 0; i < words; i++ {
		binary.LittleEndian.PutUint32(mem[4*i:], math.Float32bits(float32(laneFloat(r))))
	}
	for _, n := range []int{2, 33, 256} {
		for i := 0; i < 20; i++ {
			fr := laneFrame(r, n, 4)
			g := laneGroup(n, mem)
			skip := r.Intn(n)

			// Fused addresses: base + idx·imm with int64 wrap.
			for _, traced := range []bool{false, true} {
				in := &inst{Op: opLdX, Kind: uint8(clc.KFloat), N: 4, A: 0, B: 1, C: 2, Imm: int64(r.Intn(9)) - 4}
				checkLaneLoops(t, fmt.Sprintf("address pass, traced %v", traced), fr, skip, func(fr *colFrame, mask []int32) error {
					if traced {
						g.trace = &vm.AccessBatch{}
						g.trace.Reset(n)
					}
					addrs := g.addrPass(fr, in, mask, true, false)
					if traced && len(mask) == n {
						addrs = g.trace.Cols
					}
					if traced && len(mask) < n {
						for _, l := range mask {
							addrs[l] = g.trace.Items[l][0].Addr
						}
					}
					g.trace = nil
					// The destination is the address itself.
					for _, l := range mask {
						fr.ri[3][l] = int64(addrs[l])
					}
					return nil
				}, intDest(3))
			}

			// Float loads through fused global addresses, one lane now and
			// then out of bounds.
			base := int64(vm.MakeAddr(clc.ASGlobal, 0))
			for l := 0; l < n; l++ {
				fr.ri[1][l] = base
				fr.ri[2][l] = int64(r.Intn(words))
			}
			if r.Intn(4) == 0 {
				fr.ri[2][r.Intn(n)] = words + int64(r.Intn(4))
			}
			ld := &inst{Op: opLdX, Kind: uint8(clc.KFloat), N: 4, A: int32(r.Intn(4)), B: 1, C: 2, Imm: 4}
			checkLaneLoops(t, "float load", fr, skip, func(fr *colFrame, mask []int32) error {
				return g.loadCol(fr, ld, mask, true, false)
			}, fltDest(ld.A))

			// Slot stores that round or normalize: a float, and every
			// integer kind below long.
			st := &inst{Op: opSlotSt, Kind: uint8(clc.KFloat), N: 4, A: int32(r.Intn(4)), B: int32(r.Intn(4))}
			checkLaneLoops(t, "float slot store", fr, skip, func(fr *colFrame, mask []int32) error {
				g.slotOp(fr, st, mask)
				return nil
			}, fltDest(st.B))
			for _, k := range []clc.ScalarKind{clc.KBool, clc.KChar, clc.KUChar, clc.KShort, clc.KUShort, clc.KInt, clc.KUInt} {
				st := &inst{Op: opSlotSt, Kind: uint8(k), N: int32(k.Size()), A: int32(r.Intn(4)), B: int32(r.Intn(4))}
				checkLaneLoops(t, fmt.Sprintf("%s slot store", k), fr, skip, func(fr *colFrame, mask []int32) error {
					g.slotOp(fr, st, mask)
					return nil
				}, intDest(st.B))
			}
		}
	}
}

// laneLoopSrc is a matmul's inner loop; the work-item whose local index is
// skip returns first, so with skip in range the loop runs under a mask one
// lane short.
const laneLoopSrc = `
__kernel void mm(__global const float* a, __global const float* b, __global float* c, int n, int skip) {
    int col = get_global_id(0);
    int row = get_global_id(1);
    if (get_local_id(1) * get_local_size(0) + get_local_id(0) == skip) {
        return;
    }
    float sum = 0.0f;
    for (int k = 0; k < n; k++) {
        sum += a[row * n + k] * b[k * n + col];
    }
    c[row * n + col] = sum;
}
`

// BenchmarkLaneLoops runs a 64×64 matmul in 16×16 work-groups on wgvec,
// untraced: every work-item of a group (the full mask) and every one but
// the last (a mask one lane short, the mask loops).
func BenchmarkLaneLoops(b *testing.B) {
	const n = 64
	prog := prepare(b, "lanes", laneLoopSrc)
	mem := vm.NewGlobalMem(3 * 4 * n * n)
	var bufs [3]*vm.Buffer
	for i := range bufs {
		bufs[i] = mem.Alloc(4 * n * n)
	}
	for i := 0; i < n*n; i++ {
		binary.LittleEndian.PutUint32(bufs[0].Bytes()[4*i:], math.Float32bits(float32(i%7)+0.5))
		binary.LittleEndian.PutUint32(bufs[1].Bytes()[4*i:], math.Float32bits(float32(i%5)-1.5))
	}
	for _, tc := range []struct {
		name string
		skip int64
	}{{"full", -1}, {"one-short", 255}} {
		cfg := vm.Config{GlobalSize: [3]int{n, n, 1}, LocalSize: [3]int{16, 16, 1}, Backend: Name,
			Args: []vm.Arg{vm.BufArg(bufs[0]), vm.BufArg(bufs[1]), vm.BufArg(bufs[2]), vm.IntArg(n), vm.IntArg(tc.skip)}}
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := prog.Launch("mm", cfg, mem, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
