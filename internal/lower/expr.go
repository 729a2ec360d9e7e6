package lower

import (
	"grover/internal/clc"
	"grover/internal/ir"
)

// convert inserts the conversion of v to type to, including scalar→vector
// splats.
func (lw *lowerer) convert(v ir.Value, to clc.Type, pos clc.Pos) (ir.Value, error) {
	from := v.Type()
	if clc.TypesEqual(from, to) {
		return v, nil
	}
	switch tt := to.(type) {
	case *clc.ScalarType:
		if _, ok := from.(*clc.ScalarType); ok {
			return lw.b.Convert(v, tt, pos), nil
		}
		if _, ok := from.(*clc.PointerType); ok {
			return lw.b.Convert(v, tt, pos), nil
		}
	case *clc.VectorType:
		if fs, ok := from.(*clc.ScalarType); ok && fs.Kind != clc.KVoid {
			s, err := lw.convert(v, tt.Elem, pos)
			if err != nil {
				return nil, err
			}
			return lw.splat(s, tt, pos), nil
		}
		if fv, ok := from.(*clc.VectorType); ok && fv.Len == tt.Len {
			return lw.b.Convert(v, tt, pos), nil
		}
	case *clc.PointerType:
		if _, ok := from.(*clc.PointerType); ok {
			return lw.b.Convert(v, tt, pos), nil
		}
	}
	return nil, errAt(pos, "unsupported conversion %s → %s", from, to)
}

// splat builds a vector of type t with every lane s, of t's element type.
func (lw *lowerer) splat(s ir.Value, t *clc.VectorType, pos clc.Pos) ir.Value {
	lanes := make([]ir.Value, t.Len)
	for i := range lanes {
		lanes[i] = s
	}
	return lw.b.BuildVec(t, lanes, pos)
}

// lvalue lowers e to a pointer value addressing its storage.
func (lw *lowerer) lvalue(e clc.Expr) (ir.Value, error) {
	switch ex := e.(type) {
	case *clc.Ident:
		if slot, ok := lw.storage[ex.Sym]; ok {
			return slot, nil
		}
		if _, ok := lw.direct[ex.Sym]; ok {
			return nil, errAt(ex.Pos, "internal: parameter %s is not addressable (not marked mutated)", ex.Name)
		}
		return nil, errAt(ex.Pos, "internal: no storage for %s", ex.Name)

	case *clc.Index:
		var base ir.Value
		var err error
		switch ex.X.ExprType().(type) {
		case *clc.PointerType:
			base, err = lw.expr(ex.X)
		case *clc.ArrayType:
			base, err = lw.lvalue(ex.X)
		default:
			return nil, errAt(ex.Pos, "cannot index %s", ex.X.ExprType())
		}
		if err != nil {
			return nil, err
		}
		idx, err := lw.expr(ex.I)
		if err != nil {
			return nil, err
		}
		idxL, err := lw.convert(idx, clc.TypeLong, ex.Pos)
		if err != nil {
			return nil, err
		}
		return lw.b.Index(base, idxL, ex.Pos), nil

	case *clc.Unary:
		if ex.Op == "*" {
			p, err := lw.expr(ex.X)
			if err != nil {
				return nil, err
			}
			if _, isArr := ex.X.ExprType().(*clc.ArrayType); isArr {
				// An array's value is the pointer to it; *a is a[0].
				return lw.b.Index(p, ir.LongConst(0), ex.Pos), nil
			}
			return p, nil
		}
	}
	return nil, errAt(e.NodePos(), "expression is not addressable")
}

// rvalueOfLValue loads the current value of an lvalue expression.
func (lw *lowerer) rvalueOfLValue(e clc.Expr) (ir.Value, error) {
	if m, ok := e.(*clc.Member); ok {
		vec, err := lw.expr(m.X)
		if err != nil {
			return nil, err
		}
		return lw.extractSwizzle(vec, m.Comps, m.ExprType(), m.Pos), nil
	}
	ptr, err := lw.lvalue(e)
	if err != nil {
		return nil, err
	}
	return lw.b.Load(ptr, e.NodePos()), nil
}

func (lw *lowerer) extractSwizzle(vec ir.Value, comps []int, typ clc.Type, pos clc.Pos) ir.Value {
	if len(comps) == 1 {
		return lw.b.Extract(vec, comps[0], pos)
	}
	return lw.b.Shuffle(vec, comps, typ, pos)
}

// storeLValue assigns val (already of the lvalue's type) to the lvalue.
func (lw *lowerer) storeLValue(e clc.Expr, val ir.Value) error {
	if m, ok := e.(*clc.Member); ok {
		// Read-modify-write on the underlying vector.
		basePtr, err := lw.lvalue(m.X)
		if err != nil {
			return err
		}
		cur := lw.b.Load(basePtr, m.Pos)
		var next ir.Value = cur
		if len(m.Comps) == 1 {
			next = lw.b.Insert(next, val, m.Comps[0], m.Pos)
		} else {
			for i, c := range m.Comps {
				lane := lw.b.Extract(val, i, m.Pos)
				next = lw.b.Insert(next, lane, c, m.Pos)
			}
		}
		lw.b.Store(basePtr, next, m.Pos)
		return nil
	}
	ptr, err := lw.lvalue(e)
	if err != nil {
		return err
	}
	lw.b.Store(ptr, val, e.NodePos())
	return nil
}

var binOps = map[string]ir.Op{
	"+": ir.OpAdd, "-": ir.OpSub, "*": ir.OpMul, "/": ir.OpDiv, "%": ir.OpRem,
	"&": ir.OpAnd, "|": ir.OpOr, "^": ir.OpXor, "<<": ir.OpShl, ">>": ir.OpShr,
}

var cmpOps = map[string]ir.Op{
	"==": ir.OpEq, "!=": ir.OpNe, "<": ir.OpLt, "<=": ir.OpLe, ">": ir.OpGt, ">=": ir.OpGe,
}

func (lw *lowerer) expr(e clc.Expr) (ir.Value, error) {
	switch ex := e.(type) {
	case *clc.IntLit:
		return &ir.ConstInt{Val: ex.Value, Typ: ex.ExprType()}, nil
	case *clc.FloatLit:
		return &ir.ConstFloat{Val: ex.Value, Typ: ex.ExprType()}, nil
	case *clc.StringLit:
		return nil, errAt(ex.Pos, "string literals are not supported in kernels")

	case *clc.Ident:
		if v, ok := lw.direct[ex.Sym]; ok {
			return v, nil
		}
		if slot, ok := lw.storage[ex.Sym]; ok {
			// Arrays decay to a pointer to their first element.
			if _, isArr := ex.Sym.Type.(*clc.ArrayType); isArr {
				return slot, nil
			}
			return lw.b.Load(slot, ex.Pos), nil
		}
		return nil, errAt(ex.Pos, "internal: unresolved identifier %s", ex.Name)

	case *clc.Unary:
		return lw.unary(ex)

	case *clc.Postfix:
		old, _, err := lw.step(ex.X, ex.Op, ex.Pos)
		return old, err

	case *clc.Binary:
		return lw.binary(ex)

	case *clc.Assign:
		return lw.assign(ex)

	case *clc.Cond:
		return lw.ternary(ex)

	case *clc.Index:
		ptr, err := lw.lvalue(ex)
		if err != nil {
			return nil, err
		}
		// Indexing a multi-dimensional array yields the sub-array pointer,
		// which is already the decayed value.
		if _, isArr := ex.ExprType().(*clc.ArrayType); isArr {
			return ptr, nil
		}
		return lw.b.Load(ptr, ex.Pos), nil

	case *clc.Member:
		vec, err := lw.expr(ex.X)
		if err != nil {
			return nil, err
		}
		return lw.extractSwizzle(vec, ex.Comps, ex.ExprType(), ex.Pos), nil

	case *clc.Call:
		return lw.call(ex)

	case *clc.Cast:
		v, err := lw.expr(ex.X)
		if err != nil || clc.TypesEqual(ex.To, clc.TypeVoid) {
			return v, err // a cast to void only discards the value
		}
		return lw.convert(v, ex.To, ex.Pos)

	case *clc.VecLit:
		return lw.vecLit(ex)

	case *clc.SizeofExpr:
		return &ir.ConstInt{Val: int64(ex.Of.Size()), Typ: clc.TypeULong}, nil
	}
	return nil, errAt(e.NodePos(), "lower: unhandled expression %T", e)
}

// step lowers ++ or -- (op) on the lvalue x: a pointer advances by one
// element, and a scalar or vector adds or subtracts 1 in its own type. It
// returns the old and the new value.
func (lw *lowerer) step(x clc.Expr, op string, pos clc.Pos) (old, next ir.Value, err error) {
	old, err = lw.rvalueOfLValue(x)
	if err != nil {
		return nil, nil, err
	}
	t := x.ExprType()
	if _, isPtr := t.(*clc.PointerType); isPtr {
		d := int64(1)
		if op == "--" {
			d = -1
		}
		next = lw.b.Index(old, ir.LongConst(d), pos)
	} else {
		one := constOf(1, t)
		if vt, isVec := t.(*clc.VectorType); isVec {
			one = lw.splat(constOf(1, vt.Elem), vt, pos)
		}
		bin := ir.OpAdd
		if op == "--" {
			bin = ir.OpSub
		}
		next = lw.b.Bin(bin, t, old, one, pos)
	}
	return old, next, lw.storeLValue(x, next)
}

func (lw *lowerer) unary(ex *clc.Unary) (ir.Value, error) {
	switch ex.Op {
	case "+":
		return lw.expr(ex.X)
	case "-":
		x, err := lw.expr(ex.X)
		if err != nil {
			return nil, err
		}
		return lw.b.Un(ir.OpNeg, ex.ExprType(), x, ex.Pos), nil
	case "~":
		x, err := lw.expr(ex.X)
		if err != nil {
			return nil, err
		}
		return lw.b.Un(ir.OpNot, ex.ExprType(), x, ex.Pos), nil
	case "!":
		x, err := lw.expr(ex.X)
		if err != nil {
			return nil, err
		}
		return lw.b.Cmp(ir.OpEq, x, constOf(0, x.Type()), ex.Pos), nil
	case "*":
		p, err := lw.lvalue(ex)
		if _, isArr := ex.ExprType().(*clc.ArrayType); err != nil || isArr {
			return p, err
		}
		return lw.b.Load(p, ex.Pos), nil
	case "&":
		return lw.lvalue(ex.X)
	case "++", "--":
		_, next, err := lw.step(ex.X, ex.Op, ex.Pos)
		return next, err
	}
	return nil, errAt(ex.Pos, "unsupported unary %q", ex.Op)
}

// constOf is the constant v of scalar or pointer type t.
func constOf(v int64, t clc.Type) ir.Value {
	if s, ok := t.(*clc.ScalarType); ok && s.Kind.IsFloat() {
		return &ir.ConstFloat{Val: float64(v), Typ: s}
	}
	return &ir.ConstInt{Val: v, Typ: t}
}

func (lw *lowerer) binary(ex *clc.Binary) (ir.Value, error) {
	switch ex.Op {
	case "&&", "||":
		return lw.shortCircuit(ex)
	}
	l, err := lw.expr(ex.L)
	if err != nil {
		return nil, err
	}
	r, err := lw.expr(ex.R)
	if err != nil {
		return nil, err
	}
	_, lp := l.Type().(*clc.PointerType)
	_, rp := r.Type().(*clc.PointerType)
	if (lp || rp) && (ex.Op == "+" || ex.Op == "-") {
		return lw.pointerArith(ex.Op, l, r, ex.Pos)
	}
	if op, ok := cmpOps[ex.Op]; ok {
		pt := clc.Promote(l.Type(), r.Type())
		if lp != rp {
			// A pointer against an integer compares addresses as longs.
			pt = clc.TypeLong
		}
		lc, err := lw.convert(l, pt, ex.Pos)
		if err != nil {
			return nil, err
		}
		rc, err := lw.convert(r, pt, ex.Pos)
		if err != nil {
			return nil, err
		}
		return lw.b.Cmp(op, lc, rc, ex.Pos), nil
	}
	op, ok := binOps[ex.Op]
	if !ok {
		return nil, errAt(ex.Pos, "unsupported binary operator %q", ex.Op)
	}
	rt := ex.ExprType()
	lc, err := lw.convert(l, rt, ex.Pos)
	if err != nil {
		return nil, err
	}
	rc, err := lw.convert(r, rt, ex.Pos)
	if err != nil {
		return nil, err
	}
	return lw.b.Bin(op, rt, lc, rc, ex.Pos), nil
}

// pointerArith lowers + and - with a pointer operand, as sema typed them:
// a pointer plus or minus an integer advances it by whole elements, and
// the difference of two pointers is their distance in bytes, in which the
// address-space tag cancels, divided by the element size.
func (lw *lowerer) pointerArith(op string, l, r ir.Value, pos clc.Pos) (ir.Value, error) {
	if _, rp := r.Type().(*clc.PointerType); rp {
		if _, lp := l.Type().(*clc.PointerType); lp {
			lb := lw.b.Convert(l, clc.TypeLong, pos)
			rb := lw.b.Convert(r, clc.TypeLong, pos)
			bytes := lw.b.Bin(ir.OpSub, clc.TypeLong, lb, rb, pos)
			size := ir.LongConst(int64(ir.PointeeSize(l.Type())))
			return lw.b.Bin(ir.OpDiv, clc.TypeLong, bytes, size, pos), nil
		}
		l, r = r, l // n + p
	}
	n, err := lw.convert(r, clc.TypeLong, pos)
	if err != nil {
		return nil, err
	}
	if op == "-" {
		n = lw.b.Un(ir.OpNeg, clc.TypeLong, n, pos)
	}
	return lw.b.Index(l, n, pos), nil
}

// shortCircuit lowers && and || via control flow into an int temp.
func (lw *lowerer) shortCircuit(ex *clc.Binary) (ir.Value, error) {
	tmp := lw.emitAlloca(clc.TypeInt, clc.ASPrivate, "sc.tmp", ex.Pos)
	l, err := lw.expr(ex.L)
	if err != nil {
		return nil, err
	}
	lBool := lw.b.Cmp(ir.OpNe, l, constOf(0, l.Type()), ex.Pos)
	evalR := lw.irf.NewBlock("sc.rhs")
	short := lw.irf.NewBlock("sc.short")
	done := lw.irf.NewBlock("sc.done")
	if ex.Op == "&&" {
		lw.b.CondBr(lBool, evalR, short, ex.Pos)
	} else {
		lw.b.CondBr(lBool, short, evalR, ex.Pos)
	}
	// Short-circuit value: 0 for &&, 1 for ||.
	lw.b.SetBlock(short)
	sv := int64(0)
	if ex.Op == "||" {
		sv = 1
	}
	lw.b.Store(tmp, ir.IntConst(sv), ex.Pos)
	lw.b.Br(done, ex.Pos)

	lw.b.SetBlock(evalR)
	r, err := lw.expr(ex.R)
	if err != nil {
		return nil, err
	}
	rBool := lw.b.Cmp(ir.OpNe, r, constOf(0, r.Type()), ex.Pos)
	lw.b.Store(tmp, rBool, ex.Pos)
	lw.b.Br(done, ex.Pos)

	lw.b.SetBlock(done)
	return lw.b.Load(tmp, ex.Pos), nil
}

func (lw *lowerer) ternary(ex *clc.Cond) (ir.Value, error) {
	rt := ex.ExprType()
	tmp := lw.emitAlloca(rt, clc.ASPrivate, "cond.tmp", ex.Pos)
	c, err := lw.expr(ex.C)
	if err != nil {
		return nil, err
	}
	thenBlk := lw.irf.NewBlock("cond.t")
	elseBlk := lw.irf.NewBlock("cond.f")
	done := lw.irf.NewBlock("cond.done")
	lw.b.CondBr(c, thenBlk, elseBlk, ex.Pos)

	lw.b.SetBlock(thenBlk)
	tv, err := lw.expr(ex.T)
	if err != nil {
		return nil, err
	}
	tc, err := lw.convert(tv, rt, ex.Pos)
	if err != nil {
		return nil, err
	}
	lw.b.Store(tmp, tc, ex.Pos)
	lw.b.Br(done, ex.Pos)

	lw.b.SetBlock(elseBlk)
	fv, err := lw.expr(ex.F)
	if err != nil {
		return nil, err
	}
	fc, err := lw.convert(fv, rt, ex.Pos)
	if err != nil {
		return nil, err
	}
	lw.b.Store(tmp, fc, ex.Pos)
	lw.b.Br(done, ex.Pos)

	lw.b.SetBlock(done)
	return lw.b.Load(tmp, ex.Pos), nil
}

func (lw *lowerer) assign(ex *clc.Assign) (ir.Value, error) {
	r, err := lw.expr(ex.R)
	if err != nil {
		return nil, err
	}
	lt := ex.L.ExprType()
	if ex.Op == "=" {
		rc, err := lw.convert(r, lt, ex.Pos)
		if err != nil {
			return nil, err
		}
		if err := lw.storeLValue(ex.L, rc); err != nil {
			return nil, err
		}
		return rc, nil
	}
	// Compound assignment: load, op, store.
	op, ok := binOps[ex.Op[:len(ex.Op)-1]]
	if !ok {
		return nil, errAt(ex.Pos, "unsupported compound assignment %q", ex.Op)
	}
	cur, err := lw.rvalueOfLValue(ex.L)
	if err != nil {
		return nil, err
	}
	var next ir.Value
	if _, isPtr := lt.(*clc.PointerType); isPtr {
		next, err = lw.pointerArith(ex.Op[:1], cur, r, ex.Pos)
	} else {
		next, err = lw.compound(op, cur, r, ex.Pos)
	}
	if err != nil {
		return nil, err
	}
	if err := lw.storeLValue(ex.L, next); err != nil {
		return nil, err
	}
	return next, nil
}

// compound computes cur op r for a compound assignment to a variable of
// cur's type, and converts the result back to that type (C99 §6.5.16.2):
// the operands take their usual arithmetic conversions, so that
// int x = 3; x *= 0.5f stores 1, not 0. A shift keeps the left operand's
// type.
func (lw *lowerer) compound(op ir.Op, cur, r ir.Value, pos clc.Pos) (ir.Value, error) {
	lt := cur.Type()
	ct := lt
	if op != ir.OpShl && op != ir.OpShr {
		ct = clc.Promote(lt, r.Type())
	}
	lc, err := lw.convert(cur, ct, pos)
	if err != nil {
		return nil, err
	}
	rc, err := lw.convert(r, ct, pos)
	if err != nil {
		return nil, err
	}
	return lw.convert(lw.b.Bin(op, ct, lc, rc, pos), lt, pos)
}

func (lw *lowerer) call(ex *clc.Call) (ir.Value, error) {
	var args []ir.Value
	for _, a := range ex.Args {
		v, err := lw.expr(a)
		if err != nil {
			return nil, err
		}
		args = append(args, v)
	}
	if ex.Builtin != nil {
		switch ex.Builtin.Kind {
		case clc.BWorkItem:
			var dim ir.Value
			if len(args) > 0 {
				d, err := lw.convert(args[0], clc.TypeInt, ex.Pos)
				if err != nil {
					return nil, err
				}
				dim = d
			}
			// get_global_id(d) is canonicalized to
			// get_group_id(d)*get_local_size(d) + get_local_id(d) so that
			// index analyses (Grover) see the local-id dependence that a
			// global id hides.
			if ex.FuncName == "get_global_id" {
				grp := lw.b.WorkItem("get_group_id", dim, ex.Pos)
				lsz := lw.b.WorkItem("get_local_size", dim, ex.Pos)
				lid := lw.b.WorkItem("get_local_id", dim, ex.Pos)
				mul := lw.b.Bin(ir.OpMul, clc.TypeULong, grp, lsz, ex.Pos)
				return lw.b.Bin(ir.OpAdd, clc.TypeULong, mul, lid, ex.Pos), nil
			}
			return lw.b.WorkItem(ex.FuncName, dim, ex.Pos), nil
		case clc.BBarrier:
			flags := args[0]
			return lw.b.Barrier(flags, ex.Pos), nil
		case clc.BMath:
			rt := ex.ExprType()
			conv := make([]ir.Value, len(args))
			for i, a := range args {
				c, err := lw.convert(a, rt, ex.Pos)
				if err != nil {
					return nil, err
				}
				conv[i] = c
			}
			return lw.b.Math(ex.FuncName, rt, conv, ex.Pos), nil
		case clc.BGeom:
			// Geometric builtins keep vector argument types.
			conv := make([]ir.Value, len(args))
			conv[0] = args[0]
			for i := 1; i < len(args); i++ {
				c, err := lw.convert(args[i], args[0].Type(), ex.Pos)
				if err != nil {
					return nil, err
				}
				conv[i] = c
			}
			return lw.b.Math(ex.FuncName, ex.ExprType(), conv, ex.Pos), nil
		}
	}
	callee := lw.funcs[ex.FuncName]
	if callee == nil {
		return nil, errAt(ex.Pos, "call to unknown function %q", ex.FuncName)
	}
	for i := range args {
		c, err := lw.convert(args[i], callee.Params[i].Typ, ex.Pos)
		if err != nil {
			return nil, err
		}
		args[i] = c
	}
	return lw.b.Call(callee, args, ex.Pos), nil
}

func (lw *lowerer) vecLit(ex *clc.VecLit) (ir.Value, error) {
	var lanes []ir.Value
	for _, el := range ex.Elems {
		v, err := lw.expr(el)
		if err != nil {
			return nil, err
		}
		if vt, ok := v.Type().(*clc.VectorType); ok {
			for i := 0; i < vt.Len; i++ {
				lanes = append(lanes, lw.b.Convert(lw.b.Extract(v, i, ex.Pos), ex.To.Elem, ex.Pos))
			}
			continue
		}
		c, err := lw.convert(v, ex.To.Elem, ex.Pos)
		if err != nil {
			return nil, err
		}
		lanes = append(lanes, c)
	}
	// A single scalar element splats.
	if len(lanes) == 1 && ex.To.Len > 1 {
		s := lanes[0]
		lanes = make([]ir.Value, ex.To.Len)
		for i := range lanes {
			lanes[i] = s
		}
	}
	if len(lanes) != ex.To.Len {
		return nil, errAt(ex.Pos, "vector literal lane count %d != %d", len(lanes), ex.To.Len)
	}
	return lw.b.BuildVec(ex.To, lanes, ex.Pos), nil
}
