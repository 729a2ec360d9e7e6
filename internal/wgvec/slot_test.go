package wgvec_test

import (
	"encoding/binary"
	"math"
	"testing"

	"grover/internal/bcode"
	"grover/internal/clc"
	"grover/internal/ir"
	"grover/internal/vm"
)

// TestSlotStoreRoundTrip: a value stored to a variable that lives in a
// register reads back as it does through memory, kind by kind. Compiled
// source converts a value to the variable's type before it stores it, so
// only hand-built IR gets a value outside the type's range as far as the
// store: constants typed as the variable but not normalized to it. Every
// work-item stores a under a full mask, the odd ones then b under a partial
// one, and all read the variable back once they have reconverged.
func TestSlotStoreRoundTrip(t *testing.T) {
	f32 := func(x float64) float64 { return float64(float32(x)) }
	ints := []struct {
		typ          *clc.ScalarType
		a, b         int64
		wantA, wantB int64
	}{
		// A bool is stored as a byte: 256 reads back 0, not "true".
		{clc.TypeBool, 256, 3, 0, 3},
		{clc.TypeChar, 200, -129, -56, 127},
		{clc.TypeUChar, 300, -1, 44, 255},
		{clc.TypeShort, 40000, 1<<16 + 7, -25536, 7},
		{clc.TypeUShort, 70000, -1, 4464, 65535},
		{clc.TypeInt, 1<<32 | 5, 1 << 31, 5, math.MinInt32},
		{clc.TypeUInt, -1, 1 << 32, math.MaxUint32, 0},
		{clc.TypeLong, -7, 1 << 40, -7, 1 << 40},
		{clc.TypeULong, -1, 5, -1, 5},
	}
	floats := []struct {
		typ          *clc.ScalarType
		a, b         float64
		wantA, wantB float64
	}{
		{clc.TypeFloat, 0.1, 1e40, f32(0.1), math.Inf(1)},
		{clc.TypeDouble, 0.1, 1e40, 0.1, 1e40},
	}
	// A float variable written as an int is no slot — its accesses do not
	// all move its own kind — and keeps going through memory, where the
	// bits are reinterpreted.
	const punA, punB, wantPunA, wantPunB = 0x3f800000, 0x40000000, 1.0, 2.0
	nI, nF := len(ints), len(floats)+1

	pos := clc.Pos{}
	fn := &ir.Function{Name: "k", IsKernel: true, Ret: clc.TypeVoid}
	iout := &ir.Param{Name_: "iout", Typ: &clc.PointerType{Elem: clc.TypeLong, Space: clc.ASGlobal}, Index: 0}
	fout := &ir.Param{Name_: "fout", Typ: &clc.PointerType{Elem: clc.TypeDouble, Space: clc.ASGlobal}, Index: 1}
	fn.Params = []*ir.Param{iout, fout}
	b := ir.NewBuilder(fn)
	odd, join := fn.NewBlock("odd"), fn.NewBlock("join")

	var vars []*ir.Instr
	var as, bs []ir.Value
	for _, c := range ints {
		vars = append(vars, b.Alloca(c.typ, clc.ASPrivate, c.typ.String(), pos))
		as = append(as, &ir.ConstInt{Val: c.a, Typ: c.typ})
		bs = append(bs, &ir.ConstInt{Val: c.b, Typ: c.typ})
	}
	for _, c := range floats {
		vars = append(vars, b.Alloca(c.typ, clc.ASPrivate, c.typ.String(), pos))
		as = append(as, &ir.ConstFloat{Val: c.a, Typ: c.typ})
		bs = append(bs, &ir.ConstFloat{Val: c.b, Typ: c.typ})
	}
	vars = append(vars, b.Alloca(clc.TypeFloat, clc.ASPrivate, "punned", pos))
	as, bs = append(as, ir.IntConst(punA)), append(bs, ir.IntConst(punB))

	lid := b.Convert(b.WorkItem("get_local_id", ir.IntConst(0), pos), clc.TypeLong, pos)
	for i, v := range vars {
		b.Store(v, as[i], pos)
	}
	b.CondBr(b.Bin(ir.OpAnd, clc.TypeLong, lid, ir.LongConst(1), pos), odd, join, pos)
	b.SetBlock(odd)
	for i, v := range vars {
		b.Store(v, bs[i], pos)
	}
	b.Br(join, pos)
	b.SetBlock(join)
	for i, v := range vars {
		out, typ, row, col := ir.Value(iout), clc.Type(clc.TypeLong), nI, i
		if i >= nI {
			out, typ, row, col = fout, clc.TypeDouble, nF, i-nI
		}
		idx := b.Bin(ir.OpAdd, clc.TypeLong, b.Bin(ir.OpMul, clc.TypeLong, lid, ir.LongConst(int64(row)), pos), ir.LongConst(int64(col)), pos)
		b.Store(b.Index(out, idx, pos), b.Convert(b.Load(v, pos), typ, pos), pos)
	}
	b.Ret(nil, pos)

	prog, err := vm.Prepare(&ir.Module{Name: "t", Funcs: []*ir.Function{fn}})
	if err != nil {
		t.Fatal(err)
	}
	m, err := bcode.Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	slotStores, memStores := 0, 0
	for _, inst := range m.Func(fn).Code {
		switch inst.Op {
		case bcode.OpSlotStI, bcode.OpSlotStF:
			slotStores++
		case bcode.OpStI32:
			memStores++
		}
	}
	if want := 2 * (nI + len(floats)); slotStores != want || memStores != 2 {
		t.Fatalf("%d slot stores and %d int stores through memory, want %d and the punned variable's 2", slotStores, memStores, want)
	}

	const n = 8
	for _, backend := range backends {
		g := vm.NewGlobalMem(1 << 12)
		ibuf, fbuf := g.Alloc(n*nI*8), g.Alloc(n*nF*8)
		cfg := vm.Config{
			GlobalSize: [3]int{n, 1, 1}, LocalSize: [3]int{n, 1, 1}, Backend: backend,
			Args: []vm.Arg{vm.BufArg(ibuf), vm.BufArg(fbuf)},
		}
		if err := prog.Launch("k", cfg, g, nil); err != nil {
			t.Fatalf("%s: %v", backend, err)
		}
		for wi := 0; wi < n; wi++ {
			for i, c := range ints {
				want := c.wantA
				if wi%2 == 1 {
					want = c.wantB
				}
				if got := int64(binary.LittleEndian.Uint64(ibuf.Bytes()[(wi*nI+i)*8:])); got != want {
					t.Errorf("%s: work-item %d reads its %s back as %d, want %d", backend, wi, c.typ, got, want)
				}
			}
			for i := 0; i < nF; i++ {
				name, want := "punned float", wantPunA
				switch {
				case i < len(floats) && wi%2 == 1:
					name, want = floats[i].typ.String(), floats[i].wantB
				case i < len(floats):
					name, want = floats[i].typ.String(), floats[i].wantA
				case wi%2 == 1:
					want = wantPunB
				}
				if got := math.Float64frombits(binary.LittleEndian.Uint64(fbuf.Bytes()[(wi*nF+i)*8:])); got != want {
					t.Errorf("%s: work-item %d reads its %s back as %v, want %v", backend, wi, name, got, want)
				}
			}
		}
	}
}
