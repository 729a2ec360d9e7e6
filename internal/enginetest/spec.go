package enginetest

import (
	"math"
	"math/big"

	"grover/internal/clc"
)

// The scalar table: the integer operators of OpenCL 1.2 §6.3 and the
// integer conversions of §6.2.3, computed exactly with math/big and then
// reduced to the result's width, so that it is written from the spec and
// not from clc's scalar semantics, which it checks at three levels: clc's
// functions, the constant folder and both engines.

// IntKinds are the integer kinds the table covers.
var IntKinds = []clc.ScalarKind{
	clc.KChar, clc.KUChar, clc.KShort, clc.KUShort,
	clc.KInt, clc.KUInt, clc.KLong, clc.KULong,
}

// IntOps are the integer operators the table covers.
var IntOps = []clc.Op{
	clc.OpAdd, clc.OpSub, clc.OpMul, clc.OpDiv, clc.OpRem,
	clc.OpAnd, clc.OpOr, clc.OpXor, clc.OpShl, clc.OpShr,
	clc.OpEq, clc.OpNe, clc.OpLt, clc.OpLe, clc.OpGt, clc.OpGe,
}

// SpecProbes are integer constant expressions whose value the types of
// their literals decide (C99 §6.4.4.1), with that value.
var SpecProbes = []struct {
	Expr string
	Want int64
}{
	{"1UL << 33", 1 << 33},
	{"-1 < 0xFFFFFFFFu", 0},
	{"1 << 33L", 2},
	{"(1 << 33) >> 30", 0},
	{"0x7fffffff + 1", math.MinInt32},
	{"0xFFFFFFFF + 1", 0},
	{"4294967295 + 1", 1 << 32},
	{"1u - 2", math.MaxUint32},
	{"-1L < 0u", 1},
	{"0x80000000 >> 31", 1},
}

// SpecOperands returns the operands of kind k the table pairs, in the
// int64 representation clc.NormInt gives a value of k (a ulong keeps its
// bit pattern): k's minimum and maximum, −1 converted to k, 0, 1, and
// shift counts equal to and one past k's width.
func SpecOperands(k clc.ScalarKind) []int64 {
	w := 8 * k.Size()
	lo, hi := new(big.Int), new(big.Int).Lsh(big.NewInt(1), uint(w))
	if !k.IsUnsigned() {
		lo.Neg(hi).Rsh(lo, 1)
		hi.Rsh(hi, 1)
	}
	hi.Sub(hi, big.NewInt(1))
	ops := []int64{repr(lo, k), repr(hi, k)}
	for _, x := range []int64{-1, 0, 1, int64(w), int64(w + 1)} {
		ops = append(ops, SpecConvert(x, k))
	}
	return ops
}

// Promoted is k after the integer promotions (C99 §6.3.1.1): a kind
// narrower than int becomes int.
func Promoted(k clc.ScalarKind) clc.ScalarKind {
	if k.Size() < clc.KInt.Size() {
		return clc.KInt
	}
	return k
}

// SpecConvert is the long value x converted to integer kind k: the value
// modulo 2^width, negative when a signed kind's top bit is set (§6.2.3); a
// bool is 1 for any nonzero x.
func SpecConvert(x int64, k clc.ScalarKind) int64 {
	if k == clc.KBool {
		if x != 0 {
			return 1
		}
		return 0
	}
	return wrap(big.NewInt(x), k)
}

// SpecInt is a op b for a and b of kind k, with the operation carried out
// in kind in (k itself, or Promoted(k) as C does for a scalar) and the
// result converted back to k as a cast does; a comparison gives 0 or 1.
// A shift count is the low log2(width of in) bits of b (§6.3.j), and a
// right shift of a negative value is arithmetic. ok is false when the
// result is undefined: a division or remainder by zero.
func SpecInt(op clc.Op, k, in clc.ScalarKind, a, b int64) (v int64, ok bool) {
	x, y := value(a, k), value(b, k)
	r := new(big.Int)
	switch op {
	case clc.OpAdd:
		r.Add(x, y)
	case clc.OpSub:
		r.Sub(x, y)
	case clc.OpMul:
		r.Mul(x, y)
	case clc.OpDiv, clc.OpRem:
		if y.Sign() == 0 {
			return 0, false
		}
		if op == clc.OpDiv {
			r.Quo(x, y) // truncates toward zero
		} else {
			r.Rem(x, y) // takes the dividend's sign
		}
	case clc.OpAnd:
		r.And(x, y)
	case clc.OpOr:
		r.Or(x, y)
	case clc.OpXor:
		r.Xor(x, y)
	case clc.OpShl, clc.OpShr:
		n := uint(uint64(b) % uint64(8*in.Size()))
		if op == clc.OpShl {
			r.Lsh(x, n)
		} else {
			r.Rsh(x, n)
		}
	default:
		c := x.Cmp(y)
		holds := map[clc.Op]bool{
			clc.OpEq: c == 0, clc.OpNe: c != 0, clc.OpLt: c < 0,
			clc.OpLe: c <= 0, clc.OpGt: c > 0, clc.OpGe: c >= 0,
		}[op]
		if holds {
			return 1, true
		}
		return 0, true
	}
	return wrap(r, k), true
}

// value is the integer a holds as a value of kind k.
func value(a int64, k clc.ScalarKind) *big.Int {
	if k.IsUnsigned() {
		return new(big.Int).SetUint64(uint64(a))
	}
	return big.NewInt(a)
}

// wrap reduces x modulo 2^width of k and returns it in k's representation.
func wrap(x *big.Int, k clc.ScalarKind) int64 {
	w := uint(8 * k.Size())
	m := new(big.Int).Lsh(big.NewInt(1), w)
	r := new(big.Int).Mod(x, m) // in [0, 2^w)
	if !k.IsUnsigned() && r.Bit(int(w)-1) == 1 {
		r.Sub(r, m)
	}
	return repr(r, k)
}

// repr is the int64 holding x, a value of kind k.
func repr(x *big.Int, k clc.ScalarKind) int64 {
	if k.IsUnsigned() {
		return int64(x.Uint64())
	}
	return x.Int64()
}
