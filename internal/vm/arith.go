package vm

import (
	"fmt"
	"math"

	"grover/internal/clc"
	"grover/internal/ir"
)

// widthBits returns the bit width of an integer scalar kind.
func widthBits(k clc.ScalarKind) uint {
	switch k {
	case clc.KBool, clc.KChar, clc.KUChar:
		return 8
	case clc.KShort, clc.KUShort:
		return 16
	case clc.KInt, clc.KUInt:
		return 32
	}
	return 64
}

// intBin evaluates one integer binary op with C wrapping semantics for the
// given kind.
func intBin(op ir.Op, k clc.ScalarKind, a, b int64) (int64, error) {
	uns := k.IsUnsigned()
	switch op {
	case ir.OpAdd:
		return normInt(a+b, k), nil
	case ir.OpSub:
		return normInt(a-b, k), nil
	case ir.OpMul:
		return normInt(a*b, k), nil
	case ir.OpDiv:
		if b == 0 {
			return 0, fmt.Errorf("vm: integer division by zero")
		}
		if uns {
			return normInt(int64(uint64(a)/uint64(b)), k), nil
		}
		return normInt(a/b, k), nil
	case ir.OpRem:
		if b == 0 {
			return 0, fmt.Errorf("vm: integer remainder by zero")
		}
		if uns {
			return normInt(int64(uint64(a)%uint64(b)), k), nil
		}
		return normInt(a%b, k), nil
	case ir.OpAnd:
		return normInt(a&b, k), nil
	case ir.OpOr:
		return normInt(a|b, k), nil
	case ir.OpXor:
		return normInt(a^b, k), nil
	case ir.OpShl:
		sh := uint(b) & (widthBits(k) - 1)
		return normInt(a<<sh, k), nil
	case ir.OpShr:
		sh := uint(b) & (widthBits(k) - 1)
		if uns {
			// Logical shift on the value truncated to its width.
			mask := ^uint64(0)
			if w := widthBits(k); w < 64 {
				mask = (uint64(1) << w) - 1
			}
			return normInt(int64((uint64(a)&mask)>>sh), k), nil
		}
		return normInt(a>>sh, k), nil
	}
	return 0, fmt.Errorf("vm: bad integer op %s", op)
}

// floatBin evaluates one floating binary op, rounding to float32 when the
// kind is KFloat.
func floatBin(op ir.Op, k clc.ScalarKind, a, b float64) (float64, error) {
	var r float64
	switch op {
	case ir.OpAdd:
		r = a + b
	case ir.OpSub:
		r = a - b
	case ir.OpMul:
		r = a * b
	case ir.OpDiv:
		r = a / b // IEEE: inf/nan allowed
	case ir.OpRem:
		r = math.Mod(a, b)
	default:
		return 0, fmt.Errorf("vm: bad float op %s", op)
	}
	return math32(k, r), nil
}

func (ge *groupExec) binArith(c *wiCtx, in *ir.Instr) (rv, error) {
	a := c.val(in.Args[0])
	b := c.val(in.Args[1])
	switch tt := in.Typ.(type) {
	case *clc.ScalarType:
		if tt.Kind.IsFloat() {
			r, err := floatBin(in.Op, tt.Kind, a.f, b.f)
			return rv{f: r}, err
		}
		r, err := intBin(in.Op, tt.Kind, a.i, b.i)
		return rv{i: r}, err
	case *clc.VectorType:
		var out rv
		if tt.Elem.Kind.IsFloat() {
			dst := ensureVF(&c.regs[in.ID], tt.Len)
			for i := 0; i < tt.Len; i++ {
				r, err := floatBin(in.Op, tt.Elem.Kind, a.vf[i], b.vf[i])
				if err != nil {
					return rv{}, err
				}
				dst[i] = r
			}
			out = c.regs[in.ID]
		} else {
			dst := ensureVI(&c.regs[in.ID], tt.Len)
			for i := 0; i < tt.Len; i++ {
				r, err := intBin(in.Op, tt.Elem.Kind, a.vi[i], b.vi[i])
				if err != nil {
					return rv{}, err
				}
				dst[i] = r
			}
			out = c.regs[in.ID]
		}
		return out, nil
	case *clc.PointerType:
		// Pointer arithmetic lowered through OpIndex normally; tolerate
		// raw add/sub on pointers measured in bytes.
		switch in.Op {
		case ir.OpAdd:
			return rv{i: a.i + b.i}, nil
		case ir.OpSub:
			return rv{i: a.i - b.i}, nil
		}
	}
	return rv{}, fmt.Errorf("vm: binary op %s on unsupported type %s", in.Op, in.Typ)
}

func (ge *groupExec) unArith(c *wiCtx, in *ir.Instr) (rv, error) {
	a := c.val(in.Args[0])
	switch tt := in.Typ.(type) {
	case *clc.ScalarType:
		if tt.Kind.IsFloat() {
			if in.Op == ir.OpNeg {
				return rv{f: -a.f}, nil
			}
			return rv{}, fmt.Errorf("vm: %s on float", in.Op)
		}
		if in.Op == ir.OpNeg {
			return rv{i: normInt(-a.i, tt.Kind)}, nil
		}
		return rv{i: normInt(^a.i, tt.Kind)}, nil
	case *clc.VectorType:
		if tt.Elem.Kind.IsFloat() {
			dst := ensureVF(&c.regs[in.ID], tt.Len)
			for i := range dst {
				dst[i] = -a.vf[i]
			}
		} else {
			dst := ensureVI(&c.regs[in.ID], tt.Len)
			for i := range dst {
				if in.Op == ir.OpNeg {
					dst[i] = normInt(-a.vi[i], tt.Elem.Kind)
				} else {
					dst[i] = normInt(^a.vi[i], tt.Elem.Kind)
				}
			}
		}
		return c.regs[in.ID], nil
	}
	return rv{}, fmt.Errorf("vm: unary op %s on unsupported type %s", in.Op, in.Typ)
}

func (ge *groupExec) compare(c *wiCtx, in *ir.Instr) rv {
	a := c.val(in.Args[0])
	b := c.val(in.Args[1])
	var res bool
	switch ot := in.Args[0].Type().(type) {
	case *clc.ScalarType:
		if ot.Kind.IsFloat() {
			switch in.Op {
			case ir.OpEq:
				res = a.f == b.f
			case ir.OpNe:
				res = a.f != b.f
			case ir.OpLt:
				res = a.f < b.f
			case ir.OpLe:
				res = a.f <= b.f
			case ir.OpGt:
				res = a.f > b.f
			case ir.OpGe:
				res = a.f >= b.f
			}
		} else if ot.Kind.IsUnsigned() {
			ua, ub := uint64(a.i), uint64(b.i)
			switch in.Op {
			case ir.OpEq:
				res = ua == ub
			case ir.OpNe:
				res = ua != ub
			case ir.OpLt:
				res = ua < ub
			case ir.OpLe:
				res = ua <= ub
			case ir.OpGt:
				res = ua > ub
			case ir.OpGe:
				res = ua >= ub
			}
		} else {
			switch in.Op {
			case ir.OpEq:
				res = a.i == b.i
			case ir.OpNe:
				res = a.i != b.i
			case ir.OpLt:
				res = a.i < b.i
			case ir.OpLe:
				res = a.i <= b.i
			case ir.OpGt:
				res = a.i > b.i
			case ir.OpGe:
				res = a.i >= b.i
			}
		}
	case *clc.PointerType:
		switch in.Op {
		case ir.OpEq:
			res = a.i == b.i
		case ir.OpNe:
			res = a.i != b.i
		case ir.OpLt:
			res = a.i < b.i
		case ir.OpLe:
			res = a.i <= b.i
		case ir.OpGt:
			res = a.i > b.i
		case ir.OpGe:
			res = a.i >= b.i
		}
	}
	if res {
		return rv{i: 1}
	}
	return rv{i: 0}
}

// FloatToInt converts f to integer kind k the one way every engine does:
// toward zero, with NaN giving 0 and a value outside k's range saturating
// to k's minimum or maximum, as OpenCL's convert_T_sat does (§6.2.3.3). A
// bool is 1 for any value that truncates to nonzero. The result is k's
// value in the int64 representation normInt gives it: a ulong above
// MaxInt64 keeps its bit pattern.
func FloatToInt(f float64, k clc.ScalarKind) int64 {
	if math.IsNaN(f) {
		return 0
	}
	f = math.Trunc(f)
	var lo, hi float64
	switch k {
	case clc.KBool:
		if f != 0 {
			return 1
		}
		return 0
	case clc.KChar:
		lo, hi = math.MinInt8, math.MaxInt8
	case clc.KUChar:
		lo, hi = 0, math.MaxUint8
	case clc.KShort:
		lo, hi = math.MinInt16, math.MaxInt16
	case clc.KUShort:
		lo, hi = 0, math.MaxUint16
	case clc.KInt:
		lo, hi = math.MinInt32, math.MaxInt32
	case clc.KUInt:
		lo, hi = 0, math.MaxUint32
	case clc.KULong:
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

func convertScalar(v rv, from, to clc.ScalarKind) rv {
	switch {
	case from.IsFloat() && to.IsFloat():
		return rv{f: math32(to, v.f)}
	case from.IsFloat() && !to.IsFloat():
		return rv{i: FloatToInt(v.f, to)}
	case !from.IsFloat() && to.IsFloat():
		if from.IsUnsigned() {
			return rv{f: math32(to, float64(uint64(v.i)))}
		}
		return rv{f: math32(to, float64(v.i))}
	default:
		return rv{i: normInt(v.i, to)}
	}
}

func (ge *groupExec) convert(c *wiCtx, in *ir.Instr) (rv, error) {
	v := c.val(in.Args[0])
	from := in.Args[0].Type()
	to := in.Typ
	switch tt := to.(type) {
	case *clc.ScalarType:
		switch ft := from.(type) {
		case *clc.ScalarType:
			return convertScalar(v, ft.Kind, tt.Kind), nil
		case *clc.PointerType:
			return rv{i: normInt(v.i, tt.Kind)}, nil
		}
	case *clc.PointerType:
		return rv{i: v.i}, nil
	case *clc.VectorType:
		ft, ok := from.(*clc.VectorType)
		if !ok || ft.Len != tt.Len {
			return rv{}, fmt.Errorf("vm: bad vector conversion %s → %s", from, to)
		}
		if tt.Elem.Kind.IsFloat() {
			dst := ensureVF(&c.regs[in.ID], tt.Len)
			for i := 0; i < tt.Len; i++ {
				var lane rv
				if ft.Elem.Kind.IsFloat() {
					lane = rv{f: v.vf[i]}
				} else {
					lane = rv{i: v.vi[i]}
				}
				dst[i] = convertScalar(lane, ft.Elem.Kind, tt.Elem.Kind).f
			}
		} else {
			dst := ensureVI(&c.regs[in.ID], tt.Len)
			for i := 0; i < tt.Len; i++ {
				var lane rv
				if ft.Elem.Kind.IsFloat() {
					lane = rv{f: v.vf[i]}
				} else {
					lane = rv{i: v.vi[i]}
				}
				dst[i] = convertScalar(lane, ft.Elem.Kind, tt.Elem.Kind).i
			}
		}
		return c.regs[in.ID], nil
	}
	return rv{}, fmt.Errorf("vm: unsupported conversion %s → %s", from, to)
}

// scalarMathF evaluates a float math builtin on scalar operands.
func scalarMathF(name string, k clc.ScalarKind, a []float64) (float64, error) {
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
		return 0, fmt.Errorf("vm: unimplemented float builtin %q", name)
	}
	return math32(k, r), nil
}

// scalarMathI evaluates an integer math builtin.
func scalarMathI(name string, k clc.ScalarKind, a []int64) (int64, error) {
	cmpLess := func(x, y int64) bool {
		if k.IsUnsigned() {
			return uint64(x) < uint64(y)
		}
		return x < y
	}
	switch name {
	case "min":
		if cmpLess(a[0], a[1]) {
			return a[0], nil
		}
		return a[1], nil
	case "max":
		if cmpLess(a[0], a[1]) {
			return a[1], nil
		}
		return a[0], nil
	case "abs":
		if a[0] < 0 && !k.IsUnsigned() {
			return normInt(-a[0], k), nil
		}
		return a[0], nil
	case "clamp":
		v := a[0]
		if cmpLess(v, a[1]) {
			v = a[1]
		}
		if cmpLess(a[2], v) {
			v = a[2]
		}
		return v, nil
	case "mad":
		return normInt(a[0]*a[1]+a[2], k), nil
	}
	return 0, fmt.Errorf("vm: unimplemented integer builtin %q", name)
}

func (ge *groupExec) evalMath(c *wiCtx, in *ir.Instr) (rv, error) {
	// Argument marshaling uses per-worker scratch: evalMath never runs a
	// nested exec, so the buffers cannot be live twice.
	if cap(ge.mathArgs) < len(in.Args) {
		ge.mathArgs = make([]rv, len(in.Args))
	}
	args := ge.mathArgs[:len(in.Args)]
	for i, a := range in.Args {
		args[i] = c.val(a)
	}
	// Geometric reductions: vector args, scalar result.
	switch in.Func {
	case "dot":
		if vt, ok := in.Args[0].Type().(*clc.VectorType); ok {
			var sum float64
			for i := 0; i < vt.Len; i++ {
				sum += args[0].vf[i] * args[1].vf[i]
			}
			return rv{f: math32(vt.Elem.Kind, sum)}, nil
		}
		return rv{f: args[0].f * args[1].f}, nil
	case "length":
		if vt, ok := in.Args[0].Type().(*clc.VectorType); ok {
			var sum float64
			for i := 0; i < vt.Len; i++ {
				sum += args[0].vf[i] * args[0].vf[i]
			}
			return rv{f: math32(vt.Elem.Kind, math.Sqrt(sum))}, nil
		}
		return rv{f: math.Abs(args[0].f)}, nil
	}
	switch tt := in.Typ.(type) {
	case *clc.ScalarType:
		if tt.Kind.IsFloat() {
			fa := ge.mathScratchF(len(args))
			for i := range args {
				fa[i] = args[i].f
			}
			r, err := scalarMathF(in.Func, tt.Kind, fa)
			return rv{f: r}, err
		}
		ia := ge.mathScratchI(len(args))
		for i := range args {
			ia[i] = args[i].i
		}
		r, err := scalarMathI(in.Func, tt.Kind, ia)
		return rv{i: r}, err
	case *clc.VectorType:
		if tt.Elem.Kind.IsFloat() {
			dst := ensureVF(&c.regs[in.ID], tt.Len)
			fa := ge.mathScratchF(len(args))
			for l := 0; l < tt.Len; l++ {
				for i := range args {
					fa[i] = args[i].vf[l]
				}
				r, err := scalarMathF(in.Func, tt.Elem.Kind, fa)
				if err != nil {
					return rv{}, err
				}
				dst[l] = r
			}
		} else {
			dst := ensureVI(&c.regs[in.ID], tt.Len)
			ia := ge.mathScratchI(len(args))
			for l := 0; l < tt.Len; l++ {
				for i := range args {
					ia[i] = args[i].vi[l]
				}
				r, err := scalarMathI(in.Func, tt.Elem.Kind, ia)
				if err != nil {
					return rv{}, err
				}
				dst[l] = r
			}
		}
		return c.regs[in.ID], nil
	}
	return rv{}, fmt.Errorf("vm: math builtin %q with unsupported type %s", in.Func, in.Typ)
}

// mathScratchF returns the worker's pooled float argument buffer.
func (ge *groupExec) mathScratchF(n int) []float64 {
	if cap(ge.mathF) < n {
		ge.mathF = make([]float64, n)
	}
	return ge.mathF[:n]
}

// mathScratchI returns the worker's pooled integer argument buffer.
func (ge *groupExec) mathScratchI(n int) []int64 {
	if cap(ge.mathI) < n {
		ge.mathI = make([]int64, n)
	}
	return ge.mathI[:n]
}
