package clc

import (
	"fmt"
	"math"
)

// This file is the scalar semantics of OpenCL C, written once: the
// constant folder and both engines call it. An integer of kind k is held
// in an int64 as NormInt gives it (a ulong keeps its bit pattern), a float
// in a float64 rounded by Round32.

// Op is a binary arithmetic, bitwise, shift or comparison operator on
// scalars. ir maps its opcodes onto it (ir.Op.Scalar) and the folder maps
// the source spelling.
type Op uint8

// Operators. The comparisons come last, OpEq first.
const (
	OpInvalid Op = iota
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpRem
	OpAnd
	OpOr
	OpXor
	OpShl
	OpShr
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
)

var opSpelling = [...]string{
	OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "/", OpRem: "%",
	OpAnd: "&", OpOr: "|", OpXor: "^", OpShl: "<<", OpShr: ">>",
	OpEq: "==", OpNe: "!=", OpLt: "<", OpLe: "<=", OpGt: ">", OpGe: ">=",
}

// String returns the operator as OpenCL C spells it.
func (op Op) String() string {
	if int(op) < len(opSpelling) && opSpelling[op] != "" {
		return opSpelling[op]
	}
	return fmt.Sprintf("op(%d)", int(op))
}

// IsCompare reports whether op is a comparison.
func (op Op) IsCompare() bool { return op >= OpEq && op <= OpGe }

// opOf returns the operator spelled s, or OpInvalid.
func opOf(s string) Op {
	for op, sp := range opSpelling {
		if sp == s {
			return Op(op)
		}
	}
	return OpInvalid
}

// widthBits returns the bit width of an integer scalar kind.
func widthBits(k ScalarKind) uint { return uint(8 * k.Size()) }

// NormInt truncates x to the width and signedness of kind k (OpenCL 1.2
// §6.2.3: an integer conversion keeps the low bits). A bool is 1 for any
// nonzero x.
func NormInt(x int64, k ScalarKind) int64 {
	switch k {
	case KBool:
		if x != 0 {
			return 1
		}
		return 0
	case KChar:
		return int64(int8(x))
	case KUChar:
		return int64(uint8(x))
	case KShort:
		return int64(int16(x))
	case KUShort:
		return int64(uint16(x))
	case KInt:
		return int64(int32(x))
	case KUInt:
		return int64(uint32(x))
	}
	return x
}

// Round32 rounds x to float32 precision when k is KFloat.
func Round32(k ScalarKind, x float64) float64 {
	if k == KFloat {
		return float64(float32(x))
	}
	return x
}

// IntBin evaluates one integer arithmetic, bitwise or shift operator with
// C wrapping semantics for kind k (OpenCL 1.2 §6.3): the result wraps to
// k's width, a shift count is masked to the low log2(width) bits, and a
// right shift of an unsigned kind is logical. Division and remainder by
// zero are errors.
func IntBin(op Op, k ScalarKind, a, b int64) (int64, error) {
	uns := k.IsUnsigned()
	switch op {
	case OpAdd:
		return NormInt(a+b, k), nil
	case OpSub:
		return NormInt(a-b, k), nil
	case OpMul:
		return NormInt(a*b, k), nil
	case OpDiv:
		if b == 0 {
			return 0, fmt.Errorf("integer division by zero")
		}
		if uns {
			return NormInt(int64(uint64(a)/uint64(b)), k), nil
		}
		return NormInt(a/b, k), nil
	case OpRem:
		if b == 0 {
			return 0, fmt.Errorf("integer remainder by zero")
		}
		if uns {
			return NormInt(int64(uint64(a)%uint64(b)), k), nil
		}
		return NormInt(a%b, k), nil
	case OpAnd:
		return NormInt(a&b, k), nil
	case OpOr:
		return NormInt(a|b, k), nil
	case OpXor:
		return NormInt(a^b, k), nil
	case OpShl:
		sh := uint(b) & (widthBits(k) - 1)
		return NormInt(a<<sh, k), nil
	case OpShr:
		sh := uint(b) & (widthBits(k) - 1)
		if uns {
			// Logical shift on the value truncated to its width.
			mask := ^uint64(0)
			if w := widthBits(k); w < 64 {
				mask = (uint64(1) << w) - 1
			}
			return NormInt(int64((uint64(a)&mask)>>sh), k), nil
		}
		return NormInt(a>>sh, k), nil
	}
	return 0, fmt.Errorf("bad integer op %s", op)
}

// FloatBin evaluates one floating arithmetic operator, rounding to
// float32 when the kind is KFloat. Division follows IEEE 754: no traps.
func FloatBin(op Op, k ScalarKind, a, b float64) (float64, error) {
	var r float64
	switch op {
	case OpAdd:
		r = a + b
	case OpSub:
		r = a - b
	case OpMul:
		r = a * b
	case OpDiv:
		r = a / b
	case OpRem:
		r = math.Mod(a, b)
	default:
		return 0, fmt.Errorf("bad float op %s", op)
	}
	return Round32(k, r), nil
}

// IntCmp evaluates a comparison of two integers of kind k, unsigned when
// k is.
func IntCmp(op Op, k ScalarKind, a, b int64) bool {
	if k.IsUnsigned() {
		return compare(op, uint64(a), uint64(b))
	}
	return compare(op, a, b)
}

// FloatCmp evaluates a comparison of two floats: every comparison with a
// NaN is false except !=.
func FloatCmp(op Op, a, b float64) bool { return compare(op, a, b) }

func compare[T int64 | uint64 | float64](op Op, a, b T) bool {
	switch op {
	case OpEq:
		return a == b
	case OpNe:
		return a != b
	case OpLt:
		return a < b
	case OpLe:
		return a <= b
	case OpGt:
		return a > b
	case OpGe:
		return a >= b
	}
	return false
}

// FloatToInt converts f to integer kind k the one way every engine does:
// toward zero, with NaN giving 0 and a value outside k's range saturating
// to k's minimum or maximum, as OpenCL's convert_T_sat does (§6.2.3.3). A
// bool is 1 for any value that truncates to nonzero. The result is k's
// value in the int64 representation NormInt gives it: a ulong above
// MaxInt64 keeps its bit pattern.
func FloatToInt(f float64, k ScalarKind) int64 {
	if math.IsNaN(f) {
		return 0
	}
	f = math.Trunc(f)
	var lo, hi float64
	switch k {
	case KBool:
		if f != 0 {
			return 1
		}
		return 0
	case KChar:
		lo, hi = math.MinInt8, math.MaxInt8
	case KUChar:
		lo, hi = 0, math.MaxUint8
	case KShort:
		lo, hi = math.MinInt16, math.MaxInt16
	case KUShort:
		lo, hi = 0, math.MaxUint16
	case KInt:
		lo, hi = math.MinInt32, math.MaxInt32
	case KUInt:
		lo, hi = 0, math.MaxUint32
	case KULong:
		switch {
		case f <= 0:
			return 0
		case f >= 1<<64:
			return -1 // MaxUint64
		}
		return int64(uint64(f))
	default: // KLong
		switch {
		case f < -(1 << 63):
			return math.MinInt64
		case f >= 1<<63:
			return math.MaxInt64
		}
		return int64(f)
	}
	return int64(max(lo, min(hi, f)))
}

// ConvertScalar converts one scalar value between kinds: an integer keeps
// its low bits, a float rounds to float32 for KFloat, and a float becomes
// an integer by FloatToInt. The value is read from i or f by the source
// kind's class, and exactly one result is meaningful, selected by the
// destination kind's class.
func ConvertScalar(i int64, f float64, from, to ScalarKind) (int64, float64) {
	switch {
	case from.IsFloat() && to.IsFloat():
		return 0, Round32(to, f)
	case from.IsFloat():
		return FloatToInt(f, to), 0
	case to.IsFloat() && from.IsUnsigned():
		return 0, Round32(to, float64(uint64(i)))
	case to.IsFloat():
		return 0, Round32(to, float64(i))
	}
	return NormInt(i, to), 0
}

// ConvertVec converts elements lo..hi-1 of a vector with ConvertScalar:
// it reads si or sf by from's class and writes di or df by to's class,
// so only those two slices need be non-nil.
func ConvertVec(di []int64, df []float64, si []int64, sf []float64, from, to ScalarKind, lo, hi int) {
	switch {
	case from.IsFloat() && to.IsFloat():
		for j := lo; j < hi; j++ {
			_, df[j] = ConvertScalar(0, sf[j], from, to)
		}
	case from.IsFloat():
		for j := lo; j < hi; j++ {
			di[j], _ = ConvertScalar(0, sf[j], from, to)
		}
	case to.IsFloat():
		for j := lo; j < hi; j++ {
			_, df[j] = ConvertScalar(si[j], 0, from, to)
		}
	default:
		for j := lo; j < hi; j++ {
			di[j], _ = ConvertScalar(si[j], 0, from, to)
		}
	}
}

// MathF evaluates a float math builtin on scalar operands.
func MathF(name string, k ScalarKind, a []float64) (float64, error) {
	var r float64
	switch name {
	case "sqrt", "native_sqrt", "half_sqrt":
		r = math.Sqrt(a[0])
	case "rsqrt", "native_rsqrt", "half_rsqrt":
		r = 1 / math.Sqrt(a[0])
	case "fabs":
		r = math.Abs(a[0])
	case "exp", "native_exp":
		r = math.Exp(a[0])
	case "exp2":
		r = math.Exp2(a[0])
	case "log", "native_log":
		r = math.Log(a[0])
	case "log2":
		r = math.Log2(a[0])
	case "sin", "native_sin":
		r = math.Sin(a[0])
	case "cos", "native_cos":
		r = math.Cos(a[0])
	case "tan":
		r = math.Tan(a[0])
	case "floor":
		r = math.Floor(a[0])
	case "ceil":
		r = math.Ceil(a[0])
	case "trunc":
		r = math.Trunc(a[0])
	case "round":
		r = math.Round(a[0])
	case "native_recip":
		r = 1 / a[0]
	case "pow":
		r = math.Pow(a[0], a[1])
	case "fmin", "min":
		r = math.Min(a[0], a[1])
	case "fmax", "max":
		r = math.Max(a[0], a[1])
	case "fmod":
		r = math.Mod(a[0], a[1])
	case "native_divide":
		r = a[0] / a[1]
	case "atan2":
		r = math.Atan2(a[0], a[1])
	case "hypot":
		r = math.Hypot(a[0], a[1])
	case "mad", "fma":
		r = a[0]*a[1] + a[2]
	case "clamp":
		r = math.Min(math.Max(a[0], a[1]), a[2])
	case "mix":
		r = a[0] + (a[1]-a[0])*a[2]
	case "abs":
		r = math.Abs(a[0])
	default:
		return 0, fmt.Errorf("unimplemented float builtin %q", name)
	}
	return Round32(k, r), nil
}

// Dot is the dot product of the float vectors x and y of element kind k:
// summed in double, rounded once.
func Dot(k ScalarKind, x, y []float64) float64 {
	var sum float64
	for i := range x {
		sum += x[i] * y[i]
	}
	return Round32(k, sum)
}

// Length is the Euclidean length of the float vector x of element kind k.
func Length(k ScalarKind, x []float64) float64 { return Round32(k, math.Sqrt(Dot(KDouble, x, x))) }

// MathI evaluates an integer math builtin on scalar operands of kind k.
func MathI(name string, k ScalarKind, a []int64) (int64, error) {
	less := func(x, y int64) bool { return IntCmp(OpLt, k, x, y) }
	switch name {
	case "min":
		if less(a[0], a[1]) {
			return a[0], nil
		}
		return a[1], nil
	case "max":
		if less(a[0], a[1]) {
			return a[1], nil
		}
		return a[0], nil
	case "abs":
		if a[0] < 0 && !k.IsUnsigned() {
			return NormInt(-a[0], k), nil
		}
		return a[0], nil
	case "clamp":
		v := a[0]
		if less(v, a[1]) {
			v = a[1]
		}
		if less(a[2], v) {
			v = a[2]
		}
		return v, nil
	case "mad":
		return NormInt(a[0]*a[1]+a[2], k), nil
	}
	return 0, fmt.Errorf("unimplemented integer builtin %q", name)
}
