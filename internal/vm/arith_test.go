package vm

import (
	"math"
	"testing"
	"testing/quick"

	"grover/internal/clc"
	"grover/internal/ir"
)

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

// TestFloatBinRoundsToFloat32 checks single-precision rounding.
func TestFloatBinRoundsToFloat32(t *testing.T) {
	check := func(a, b float32) bool {
		fa, fb := float64(a), float64(b)
		cases := []struct {
			op   ir.Op
			want float32
		}{
			{ir.OpAdd, a + b},
			{ir.OpSub, a - b},
			{ir.OpMul, a * b},
		}
		for _, c := range cases {
			got, err := floatBin(c.op, clc.KFloat, fa, fb)
			if err != nil {
				return false
			}
			g := float32(got)
			if g != c.want && !(isNaN32(g) && isNaN32(c.want)) {
				return false
			}
		}
		// Division: IEEE, no traps.
		got, err := floatBin(ir.OpDiv, clc.KFloat, fa, fb)
		if err != nil {
			return false
		}
		w := a / b
		return float32(got) == w || (isNaN32(float32(got)) && isNaN32(w))
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func isNaN32(f float32) bool { return f != f }

// TestConvertScalarProperties checks key conversion identities.
func TestConvertScalarProperties(t *testing.T) {
	check := func(x int32) bool {
		// int → float → int round trip is exact for |x| < 2^24.
		if x > -(1<<24) && x < (1<<24) {
			f := convertScalar(rv{i: int64(x)}, clc.KInt, clc.KFloat)
			back := convertScalar(f, clc.KFloat, clc.KInt)
			if int32(back.i) != x {
				return false
			}
		}
		// int → char truncates like Go.
		c := convertScalar(rv{i: int64(x)}, clc.KInt, clc.KChar)
		if int8(c.i) != int8(x) || c.i != int64(int8(x)) {
			return false
		}
		// int → uint reinterprets low 32 bits.
		u := convertScalar(rv{i: int64(x)}, clc.KInt, clc.KUInt)
		return uint32(u.i) == uint32(x) && u.i == int64(uint32(x))
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
	// NaN → int is defined as 0 in this VM.
	if v := convertScalar(rv{f: math.NaN()}, clc.KFloat, clc.KInt); v.i != 0 {
		t.Errorf("NaN→int = %d, want 0", v.i)
	}
}

// TestNormIntWidths checks truncation per kind.
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
		if got := normInt(c.in, c.k); got != c.want {
			t.Errorf("normInt(%d, %s) = %d, want %d", c.in, c.k, got, c.want)
		}
	}
}

// TestAddrEncoding round-trips address space tags.
func TestAddrEncoding(t *testing.T) {
	check := func(off uint32) bool {
		for _, sp := range []clc.AddrSpace{clc.ASPrivate, clc.ASGlobal, clc.ASLocal} {
			a := MakeAddr(sp, uint64(off))
			gotSp, gotOff := SplitAddr(a)
			if gotOff != uint64(off) {
				return false
			}
			wantSp := sp
			if gotSp != wantSp {
				return false
			}
		}
		// Constant space maps onto global.
		a := MakeAddr(clc.ASConstant, uint64(off))
		sp, _ := SplitAddr(a)
		return sp == clc.ASGlobal
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestMemScalarRoundTrip round-trips every scalar kind through memory.
func TestMemScalarRoundTrip(t *testing.T) {
	m := &memView{global: make([]byte, 64)}
	addr := MakeAddr(clc.ASGlobal, 8)
	intKinds := []clc.ScalarKind{clc.KChar, clc.KUChar, clc.KShort, clc.KUShort,
		clc.KInt, clc.KUInt, clc.KLong, clc.KULong}
	for _, k := range intKinds {
		want := normInt(-123456789, k)
		if err := m.storeScalar(addr, k, rv{i: want}); err != nil {
			t.Fatalf("%s store: %v", k, err)
		}
		got, err := m.loadScalar(addr, k)
		if err != nil {
			t.Fatalf("%s load: %v", k, err)
		}
		if got.i != want {
			t.Errorf("%s round trip: %d != %d", k, got.i, want)
		}
	}
	for _, k := range []clc.ScalarKind{clc.KFloat, clc.KDouble} {
		want := 3.14159
		if k == clc.KFloat {
			want = float64(float32(want))
		}
		if err := m.storeScalar(addr, k, rv{f: want}); err != nil {
			t.Fatal(err)
		}
		got, err := m.loadScalar(addr, k)
		if err != nil {
			t.Fatal(err)
		}
		if got.f != want {
			t.Errorf("%s round trip: %g != %g", k, got.f, want)
		}
	}
}

// TestMemBoundsChecked verifies out-of-range accesses error out.
func TestMemBoundsChecked(t *testing.T) {
	m := &memView{global: make([]byte, 16), local: make([]byte, 8), private: make([]byte, 8)}
	if _, err := m.loadScalar(MakeAddr(clc.ASGlobal, 20), clc.KInt); err == nil {
		t.Error("global OOB load accepted")
	}
	if err := m.storeScalar(MakeAddr(clc.ASLocal, 8), clc.KInt, rv{}); err == nil {
		t.Error("local OOB store accepted")
	}
	if _, err := m.loadScalar(MakeAddr(clc.ASPrivate, 6), clc.KInt); err == nil {
		t.Error("private partially-OOB load accepted")
	}
}

// TestFloatToIntSaturates pins the one float→integer rule both engines
// call, row by row from OpenCL 1.2 §6.2.3.3 (out-of-range behavior and
// saturated conversions): NaN converts to 0, and a value outside the
// destination's range becomes the nearest representable value. A ulong is
// held in its int64 bit pattern.
func TestFloatToIntSaturates(t *testing.T) {
	const two31, two63 = 1 << 31, 1 << 63
	inf, nan := math.Inf(1), math.NaN()
	type row struct {
		f    float64
		k    clc.ScalarKind
		want int64
	}
	var rows []row
	for _, k := range []clc.ScalarKind{clc.KChar, clc.KUChar, clc.KShort, clc.KUShort, clc.KInt, clc.KUInt, clc.KLong, clc.KULong} {
		rows = append(rows, row{nan, k, 0}, row{-nan, k, 0})
	}
	rows = append(rows,
		// +Inf is every kind's maximum, -Inf its minimum.
		row{inf, clc.KChar, 127}, row{-inf, clc.KChar, -128},
		row{inf, clc.KUChar, 255}, row{-inf, clc.KUChar, 0},
		row{inf, clc.KShort, 32767}, row{-inf, clc.KShort, -32768},
		row{inf, clc.KUShort, 65535}, row{-inf, clc.KUShort, 0},
		row{inf, clc.KInt, 2147483647}, row{-inf, clc.KInt, -2147483648},
		row{inf, clc.KUInt, 4294967295}, row{-inf, clc.KUInt, 0},
		row{inf, clc.KLong, math.MaxInt64}, row{-inf, clc.KLong, math.MinInt64},
		row{inf, clc.KULong, -1}, row{-inf, clc.KULong, 0},
		// ±2³¹: one past INT_MAX saturates, INT_MIN itself is in range.
		row{two31, clc.KInt, 2147483647}, row{-two31, clc.KInt, -2147483648},
		row{two31, clc.KUInt, 2147483648}, row{-two31, clc.KUInt, 0},
		row{two31, clc.KLong, two31}, row{two31, clc.KShort, 32767},
		row{-two31, clc.KChar, -128},
		// 2⁶³: one past LONG_MAX, and in range for ulong.
		row{two63, clc.KLong, math.MaxInt64}, row{-two63, clc.KLong, math.MinInt64},
		row{two63, clc.KULong, math.MinInt64}, row{2 * two63, clc.KULong, -1},
		// −1.0 is below every unsigned kind's range.
		row{-1, clc.KUChar, 0}, row{-1, clc.KUShort, 0}, row{-1, clc.KUInt, 0}, row{-1, clc.KULong, 0},
		// In range, a conversion rounds toward zero (§6.2.3.2's default).
		row{-2.7, clc.KInt, -2}, row{2.7, clc.KUChar, 2}, row{-0.5, clc.KUInt, 0}, row{255.9, clc.KUChar, 255},
	)
	for _, r := range rows {
		if got := FloatToInt(r.f, r.k); got != r.want {
			t.Errorf("FloatToInt(%g, %s) = %d, want %d", r.f, r.k, got, r.want)
		}
		if got, _ := ConvertKind(0, r.f, clc.KDouble, r.k); got != r.want {
			t.Errorf("ConvertKind(%g, double → %s) = %d, want %d", r.f, r.k, got, r.want)
		}
	}
}
