package vm

import (
	"math"

	"grover/internal/clc"
	"grover/internal/ir"
)

// The interpreter's arithmetic instructions unbox their operands and call
// clc's scalar semantics, lane by lane for vectors. Verified IR gives each
// operand the type its instruction reads (ir.Verify).

func (ge *groupExec) binArith(c *wiCtx, in *ir.Instr) (rv, error) {
	a := c.val(in.Args[0])
	b := c.val(in.Args[1])
	op := in.Op.Scalar()
	if tt, ok := in.Typ.(*clc.ScalarType); ok {
		if tt.Kind.IsFloat() {
			r, err := clc.FloatBin(op, tt.Kind, a.f, b.f)
			return rv{f: r}, err
		}
		r, err := clc.IntBin(op, tt.Kind, a.i, b.i)
		return rv{i: r}, err
	}
	tt := in.Typ.(*clc.VectorType)
	k := tt.Elem.Kind
	var err error
	if k.IsFloat() {
		dst := ensureVF(&c.regs[in.ID], tt.Len)
		for i := 0; i < tt.Len && err == nil; i++ {
			dst[i], err = clc.FloatBin(op, k, a.vf[i], b.vf[i])
		}
	} else {
		dst := ensureVI(&c.regs[in.ID], tt.Len)
		for i := 0; i < tt.Len && err == nil; i++ {
			dst[i], err = clc.IntBin(op, k, a.vi[i], b.vi[i])
		}
	}
	return c.regs[in.ID], err
}

// unArith negates a value or, an integer one only, complements it.
func (ge *groupExec) unArith(c *wiCtx, in *ir.Instr) rv {
	a := c.val(in.Args[0])
	un := func(x int64, k clc.ScalarKind) int64 {
		if in.Op == ir.OpNeg {
			return clc.NormInt(-x, k)
		}
		return clc.NormInt(^x, k)
	}
	if tt, ok := in.Typ.(*clc.ScalarType); ok {
		if tt.Kind.IsFloat() {
			return rv{f: -a.f}
		}
		return rv{i: un(a.i, tt.Kind)}
	}
	tt := in.Typ.(*clc.VectorType)
	if tt.Elem.Kind.IsFloat() {
		dst := ensureVF(&c.regs[in.ID], tt.Len)
		for i := range dst {
			dst[i] = -a.vf[i]
		}
	} else {
		dst := ensureVI(&c.regs[in.ID], tt.Len)
		for i := range dst {
			dst[i] = un(a.vi[i], tt.Elem.Kind)
		}
	}
	return c.regs[in.ID]
}

// compare compares two scalars or two pointers, which compare as longs.
func (ge *groupExec) compare(c *wiCtx, in *ir.Instr) rv {
	a := c.val(in.Args[0])
	b := c.val(in.Args[1])
	k := clc.KLong
	if ot, ok := in.Args[0].Type().(*clc.ScalarType); ok {
		k = ot.Kind
	}
	var res bool
	if k.IsFloat() {
		res = clc.FloatCmp(in.Op.Scalar(), a.f, b.f)
	} else {
		res = clc.IntCmp(in.Op.Scalar(), k, a.i, b.i)
	}
	if res {
		return rv{i: 1}
	}
	return rv{i: 0}
}

func (ge *groupExec) convert(c *wiCtx, in *ir.Instr) rv {
	v := c.val(in.Args[0])
	from := in.Args[0].Type()
	switch tt := in.Typ.(type) {
	case *clc.ScalarType:
		if ft, ok := from.(*clc.ScalarType); ok {
			i, f := clc.ConvertScalar(v.i, v.f, ft.Kind, tt.Kind)
			return rv{i: i, f: f}
		}
		return rv{i: clc.NormInt(v.i, tt.Kind)} // a pointer's address
	case *clc.VectorType:
		ft := from.(*clc.VectorType)
		var dstI []int64
		var dstF []float64
		if tt.Elem.Kind.IsFloat() {
			dstF = ensureVF(&c.regs[in.ID], tt.Len)
		} else {
			dstI = ensureVI(&c.regs[in.ID], tt.Len)
		}
		clc.ConvertVec(dstI, dstF, v.vi, v.vf, ft.Elem.Kind, tt.Elem.Kind, 0, tt.Len)
		return c.regs[in.ID]
	}
	return rv{i: v.i} // pointer to pointer
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
			return rv{f: clc.Dot(vt.Elem.Kind, args[0].vf[:vt.Len], args[1].vf[:vt.Len])}, nil
		}
		return rv{f: args[0].f * args[1].f}, nil
	case "length":
		if vt, ok := in.Args[0].Type().(*clc.VectorType); ok {
			return rv{f: clc.Length(vt.Elem.Kind, args[0].vf[:vt.Len])}, nil
		}
		return rv{f: math.Abs(args[0].f)}, nil
	}
	if tt, ok := in.Typ.(*clc.ScalarType); ok {
		if tt.Kind.IsFloat() {
			fa := ge.mathScratchF(len(args))
			for i := range args {
				fa[i] = args[i].f
			}
			r, err := clc.MathF(in.Func, tt.Kind, fa)
			return rv{f: r}, err
		}
		ia := ge.mathScratchI(len(args))
		for i := range args {
			ia[i] = args[i].i
		}
		r, err := clc.MathI(in.Func, tt.Kind, ia)
		return rv{i: r}, err
	}
	tt := in.Typ.(*clc.VectorType)
	k := tt.Elem.Kind
	var err error
	if k.IsFloat() {
		dst := ensureVF(&c.regs[in.ID], tt.Len)
		fa := ge.mathScratchF(len(args))
		for l := 0; l < tt.Len && err == nil; l++ {
			for i := range args {
				fa[i] = args[i].vf[l]
			}
			dst[l], err = clc.MathF(in.Func, k, fa)
		}
	} else {
		dst := ensureVI(&c.regs[in.ID], tt.Len)
		ia := ge.mathScratchI(len(args))
		for l := 0; l < tt.Len && err == nil; l++ {
			for i := range args {
				ia[i] = args[i].vi[l]
			}
			dst[l], err = clc.MathI(in.Func, k, ia)
		}
	}
	return c.regs[in.ID], err
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
