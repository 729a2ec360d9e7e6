package clc

import (
	"math"
	"testing"
	"testing/quick"
)

// TestFloatBinRoundsToFloat32 checks single-precision rounding.
func TestFloatBinRoundsToFloat32(t *testing.T) {
	check := func(a, b float32) bool {
		fa, fb := float64(a), float64(b)
		cases := []struct {
			op   Op
			want float32
		}{
			{OpAdd, a + b},
			{OpSub, a - b},
			{OpMul, a * b},
		}
		for _, c := range cases {
			got, err := FloatBin(c.op, KFloat, fa, fb)
			if err != nil {
				return false
			}
			g := float32(got)
			if g != c.want && !(isNaN32(g) && isNaN32(c.want)) {
				return false
			}
		}
		// Division: IEEE, no traps.
		got, err := FloatBin(OpDiv, KFloat, fa, fb)
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
			_, f := ConvertScalar(int64(x), 0, KInt, KFloat)
			back, _ := ConvertScalar(0, f, KFloat, KInt)
			if int32(back) != x {
				return false
			}
		}
		// int → char truncates like Go.
		c, _ := ConvertScalar(int64(x), 0, KInt, KChar)
		if int8(c) != int8(x) || c != int64(int8(x)) {
			return false
		}
		// int → uint reinterprets low 32 bits.
		u, _ := ConvertScalar(int64(x), 0, KInt, KUInt)
		return uint32(u) == uint32(x) && u == int64(uint32(x))
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
	// NaN → int is defined as 0 in this VM.
	if v, _ := ConvertScalar(0, math.NaN(), KFloat, KInt); v != 0 {
		t.Errorf("NaN→int = %d, want 0", v)
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
		k    ScalarKind
		want int64
	}
	var rows []row
	for _, k := range []ScalarKind{KChar, KUChar, KShort, KUShort, KInt, KUInt, KLong, KULong} {
		rows = append(rows, row{nan, k, 0}, row{-nan, k, 0})
	}
	rows = append(rows,
		// +Inf is every kind's maximum, -Inf its minimum.
		row{inf, KChar, 127}, row{-inf, KChar, -128},
		row{inf, KUChar, 255}, row{-inf, KUChar, 0},
		row{inf, KShort, 32767}, row{-inf, KShort, -32768},
		row{inf, KUShort, 65535}, row{-inf, KUShort, 0},
		row{inf, KInt, 2147483647}, row{-inf, KInt, -2147483648},
		row{inf, KUInt, 4294967295}, row{-inf, KUInt, 0},
		row{inf, KLong, math.MaxInt64}, row{-inf, KLong, math.MinInt64},
		row{inf, KULong, -1}, row{-inf, KULong, 0},
		// ±2³¹: one past INT_MAX saturates, INT_MIN itself is in range.
		row{two31, KInt, 2147483647}, row{-two31, KInt, -2147483648},
		row{two31, KUInt, 2147483648}, row{-two31, KUInt, 0},
		row{two31, KLong, two31}, row{two31, KShort, 32767},
		row{-two31, KChar, -128},
		// 2⁶³: one past LONG_MAX, and in range for ulong.
		row{two63, KLong, math.MaxInt64}, row{-two63, KLong, math.MinInt64},
		row{two63, KULong, math.MinInt64}, row{2 * two63, KULong, -1},
		// −1.0 is below every unsigned kind's range.
		row{-1, KUChar, 0}, row{-1, KUShort, 0}, row{-1, KUInt, 0}, row{-1, KULong, 0},
		// In range, a conversion rounds toward zero (§6.2.3.2's default).
		row{-2.7, KInt, -2}, row{2.7, KUChar, 2}, row{-0.5, KUInt, 0}, row{255.9, KUChar, 255},
	)
	for _, r := range rows {
		if got := FloatToInt(r.f, r.k); got != r.want {
			t.Errorf("FloatToInt(%g, %s) = %d, want %d", r.f, r.k, got, r.want)
		}
		if got, _ := ConvertScalar(0, r.f, KDouble, r.k); got != r.want {
			t.Errorf("ConvertScalar(%g, double → %s) = %d, want %d", r.f, r.k, got, r.want)
		}
	}
}
