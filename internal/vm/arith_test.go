package vm

import (
	"math"
	"testing"
	"testing/quick"

	"grover/internal/clc"
	"grover/internal/ir"
)

// intBin is the interpreter's scalar integer path in binArith: the IR
// opcode mapped to its clc operator, carried out by clc.IntBin.
func intBin(op ir.Op, k clc.ScalarKind, a, b int64) (int64, error) {
	return clc.IntBin(op.Scalar(), k, a, b)
}

// TestIntBinMatchesGoInt32 property-checks the interpreter's 32-bit signed
// arithmetic against Go's int32 semantics.
func TestIntBinMatchesGoInt32(t *testing.T) {
	check := func(a, b int32) bool {
		ops := []struct {
			op   ir.Op
			want func(x, y int32) (int32, bool)
		}{
			{ir.OpAdd, func(x, y int32) (int32, bool) { return x + y, true }},
			{ir.OpSub, func(x, y int32) (int32, bool) { return x - y, true }},
			{ir.OpMul, func(x, y int32) (int32, bool) { return x * y, true }},
			{ir.OpAnd, func(x, y int32) (int32, bool) { return x & y, true }},
			{ir.OpOr, func(x, y int32) (int32, bool) { return x | y, true }},
			{ir.OpXor, func(x, y int32) (int32, bool) { return x ^ y, true }},
			{ir.OpDiv, func(x, y int32) (int32, bool) {
				if y == 0 || (x == math.MinInt32 && y == -1) {
					return 0, false
				}
				return x / y, true
			}},
			{ir.OpRem, func(x, y int32) (int32, bool) {
				if y == 0 || (x == math.MinInt32 && y == -1) {
					return 0, false
				}
				return x % y, true
			}},
		}
		for _, o := range ops {
			want, defined := o.want(a, b)
			if !defined {
				continue
			}
			got, err := intBin(o.op, clc.KInt, int64(a), int64(b))
			if err != nil {
				return false
			}
			if int32(got) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestIntBinUnsigned property-checks unsigned division/shift semantics.
func TestIntBinUnsigned(t *testing.T) {
	check := func(a, b uint32) bool {
		if b == 0 {
			b = 1
		}
		d, err := intBin(ir.OpDiv, clc.KUInt, int64(a), int64(b))
		if err != nil || uint32(d) != a/b {
			return false
		}
		r, err := intBin(ir.OpRem, clc.KUInt, int64(a), int64(b))
		if err != nil || uint32(r) != a%b {
			return false
		}
		sh := b & 31
		s, err := intBin(ir.OpShr, clc.KUInt, int64(a), int64(sh))
		if err != nil || uint32(s) != a>>sh {
			return false
		}
		l, err := intBin(ir.OpShl, clc.KUInt, int64(a), int64(sh))
		if err != nil || uint32(l) != a<<sh {
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestNormIntWidths checks truncation per kind, as the interpreter's
// unary and conversion instructions apply it.
func TestNormIntWidths(t *testing.T) {
	cases := []struct {
		k    clc.ScalarKind
		in   int64
		want int64
	}{
		{clc.KChar, 200, -56},
		{clc.KUChar, 200, 200},
		{clc.KUChar, 256, 0},
		{clc.KShort, 40000, -25536},
		{clc.KUShort, 40000, 40000},
		{clc.KInt, 1 << 35, 0},
		{clc.KUInt, -1, int64(uint32(0xFFFFFFFF))},
		{clc.KLong, -5, -5},
		{clc.KBool, 7, 1},
		{clc.KBool, 0, 0},
	}
	for _, c := range cases {
		if got := clc.NormInt(c.in, c.k); got != c.want {
			t.Errorf("NormInt(%d, %s) = %d, want %d", c.in, c.k, got, c.want)
		}
	}
}
