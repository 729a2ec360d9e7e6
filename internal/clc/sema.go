package clc

import (
	"fmt"
)

// Analyze resolves names and types over the whole file, rewriting the AST
// in place. It must be called exactly once (Parse does this).
func Analyze(f *File) error {
	funcs := map[string]*FuncDecl{}
	for _, fn := range f.Funcs {
		if _, dup := funcs[fn.Name]; dup {
			return errf(fn.Pos, "duplicate function %s", fn.Name)
		}
		funcs[fn.Name] = fn
	}
	for _, fn := range f.Funcs {
		a := &analyzer{file: f, funcs: funcs, fn: fn}
		a.pushScope()
		for i, prm := range fn.Params {
			if prm.Name == "" {
				continue
			}
			sym := &Symbol{Name: prm.Name, Type: prm.Type, Space: prm.Space, Param: true, Index: i, Pos: prm.Pos}
			if err := a.declare(sym); err != nil {
				return err
			}
		}
		if err := a.stmt(fn.Body); err != nil {
			return err
		}
		a.popScope()
	}
	return nil
}

type analyzer struct {
	file   *File
	funcs  map[string]*FuncDecl
	fn     *FuncDecl
	scopes []map[string]*Symbol
}

func (a *analyzer) pushScope() { a.scopes = append(a.scopes, map[string]*Symbol{}) }
func (a *analyzer) popScope()  { a.scopes = a.scopes[:len(a.scopes)-1] }

func (a *analyzer) declare(sym *Symbol) error {
	top := a.scopes[len(a.scopes)-1]
	if _, dup := top[sym.Name]; dup {
		return errf(sym.Pos, "redeclaration of %s", sym.Name)
	}
	top[sym.Name] = sym
	return nil
}

func (a *analyzer) lookup(name string) *Symbol {
	for i := len(a.scopes) - 1; i >= 0; i-- {
		if s, ok := a.scopes[i][name]; ok {
			return s
		}
	}
	return nil
}

// ---------------------------------------------------------------- stmts

func (a *analyzer) stmt(s Stmt) error {
	switch st := s.(type) {
	case *BlockStmt:
		a.pushScope()
		defer a.popScope()
		for _, sub := range st.Stmts {
			if err := a.stmt(sub); err != nil {
				return err
			}
		}
		return nil

	case *DeclStmt:
		if st.Space == ASLocal {
			if _, isArr := st.Type.(*ArrayType); !isArr {
				// __local scalars are legal OpenCL; supported but rare.
				if _, isScalar := st.Type.(*ScalarType); !isScalar {
					if _, isVec := st.Type.(*VectorType); !isVec {
						return errf(st.Pos, "__local variable %s must be an array, scalar or vector", st.Name)
					}
				}
			}
			if st.Init != nil {
				return errf(st.Pos, "__local variable %s cannot have an initializer", st.Name)
			}
		}
		if TypesEqual(st.Type, TypeVoid) {
			return errf(st.Pos, "variable %s declared void", st.Name)
		}
		if st.Init != nil {
			if err := a.operand(st.Init); err != nil {
				return err
			}
			if err := a.checkAssignable(st.Pos, st.Type, st.Init.ExprType()); err != nil {
				return err
			}
		}
		sym := &Symbol{Name: st.Name, Type: st.Type, Space: st.Space, Pos: st.Pos}
		st.Sym = sym
		return a.declare(sym)

	case *ExprStmt:
		return a.expr(st.X)

	case *IfStmt:
		if err := a.expr(st.Cond); err != nil {
			return err
		}
		if err := a.requireScalarCond(st.Cond); err != nil {
			return err
		}
		if err := a.stmt(st.Then); err != nil {
			return err
		}
		if st.Else != nil {
			return a.stmt(st.Else)
		}
		return nil

	case *ForStmt:
		a.pushScope()
		defer a.popScope()
		if st.Init != nil {
			if err := a.stmt(st.Init); err != nil {
				return err
			}
		}
		if st.Cond != nil {
			if err := a.expr(st.Cond); err != nil {
				return err
			}
			if err := a.requireScalarCond(st.Cond); err != nil {
				return err
			}
		}
		if st.Post != nil {
			if err := a.expr(st.Post); err != nil {
				return err
			}
		}
		return a.stmt(st.Body)

	case *WhileStmt:
		if err := a.expr(st.Cond); err != nil {
			return err
		}
		if err := a.requireScalarCond(st.Cond); err != nil {
			return err
		}
		return a.stmt(st.Body)

	case *ReturnStmt:
		if st.X != nil {
			if err := a.operand(st.X); err != nil {
				return err
			}
			if TypesEqual(a.fn.Ret, TypeVoid) {
				return errf(st.Pos, "returning a value from void function %s", a.fn.Name)
			}
			return a.checkAssignable(st.Pos, a.fn.Ret, st.X.ExprType())
		}
		if !TypesEqual(a.fn.Ret, TypeVoid) {
			return errf(st.Pos, "missing return value in function %s", a.fn.Name)
		}
		return nil

	case *BreakStmt, *ContinueStmt:
		return nil
	}
	return fmt.Errorf("clc: unhandled statement %T", s)
}

func (a *analyzer) requireScalarCond(e Expr) error {
	switch t := e.ExprType().(type) {
	case *ScalarType:
		if t.Kind == KVoid {
			return errf(e.NodePos(), "void value used as condition")
		}
		return nil
	case *PointerType:
		return nil
	}
	return errf(e.NodePos(), "condition must be scalar, found %s", e.ExprType())
}

// operand analyzes e, whose value an enclosing construct uses: it must
// not be void.
func (a *analyzer) operand(e Expr) error {
	if err := a.expr(e); err != nil {
		return err
	}
	if TypesEqual(e.ExprType(), TypeVoid) {
		return errf(e.NodePos(), "void value used as an operand")
	}
	return nil
}

// operands analyzes each of es as an operand.
func (a *analyzer) operands(es ...Expr) error {
	for _, e := range es {
		if err := a.operand(e); err != nil {
			return err
		}
	}
	return nil
}

// isArithmetic reports whether t is an integer or float scalar or vector.
func isArithmetic(t Type) bool { return ElemKind(t) != KVoid }

// ElemKind is the scalar kind of t's elements: t's own kind for a scalar,
// void for anything but a scalar or vector.
func ElemKind(t Type) ScalarKind {
	switch tt := t.(type) {
	case *ScalarType:
		return tt.Kind
	case *VectorType:
		return tt.Elem.Kind
	}
	return KVoid
}

// pointee is the type of the element a pointer or array of type t
// designates, for an operator that uses it (verb); a void pointer
// designates nothing.
func pointee(pos Pos, t Type, verb string) (Type, error) {
	var elem Type
	switch pt := t.(type) {
	case *PointerType:
		elem = pt.Elem
	case *ArrayType:
		elem = pt.Elem
	default:
		return nil, errf(pos, "cannot %s non-pointer %s", verb, t)
	}
	if TypesEqual(elem, TypeVoid) {
		return nil, errf(pos, "cannot %s a void pointer", verb)
	}
	return elem, nil
}

// binaryType is the type of binary operator op on operands of types lt
// and rt, or an error naming the construct where the subset refuses it:
// vector operands of a comparison or a logical operator, an operator
// other than + and - on a pointer, and an integer operator on floats.
func binaryType(pos Pos, op string, l, r Expr) (Type, error) {
	lt, rt := l.ExprType(), r.ExprType()
	_, lv := lt.(*VectorType)
	_, rv := rt.(*VectorType)
	switch op {
	case "&&", "||", "==", "!=", "<", ">", "<=", ">=":
		if lv || rv {
			return nil, errf(pos, "operator %s on vector operands is not supported", op)
		}
		_, lp := decay(l)
		_, rp := decay(r)
		if !lp && !isScalarOrPointer(lt) || !rp && !isScalarOrPointer(rt) {
			return nil, errf(pos, "operator %s on %s and %s", op, lt, rt)
		}
		if other := lt; lp != rp && op != "&&" && op != "||" {
			if lp {
				other = rt
			}
			if !ElemKind(other).IsInteger() {
				return nil, errf(pos, "comparison of a pointer with %s", other)
			}
		}
		return TypeInt, nil
	case "+", "-":
		if t, ok, err := pointerArith(pos, op, l, r); ok || err != nil {
			return t, err
		}
	}
	if !isArithmetic(lt) || !isArithmetic(rt) {
		return nil, errf(pos, "operator %s on %s and %s", op, lt, rt)
	}
	switch op {
	case "%", "&", "|", "^", "<<", ">>":
		if !ElemKind(Promote(lt, rt)).IsInteger() {
			return nil, errf(pos, "operator %q requires integer operands", op)
		}
	}
	return arithType(op, lt, rt), nil
}

// arithType is the type of binary operator op on arithmetic operands of
// types lt and rt: a comparison or logical operator gives int, a shift of
// scalars has its left operand's promoted type (C99 §6.5.7p3), and the
// rest take the usual arithmetic conversions.
func arithType(op string, lt, rt Type) Type {
	switch op {
	case "&&", "||", "==", "!=", "<", ">", "<=", ">=":
		return TypeInt
	case "<<", ">>":
		if !isVector(lt) && !isVector(rt) {
			return Promote(lt, TypeInt)
		}
	}
	return Promote(lt, rt)
}

// pointerArith types + and - with a pointer or array operand: a pointer
// plus or minus an integer is the pointer (C99 §6.5.6p8), and the
// difference of two pointers to one type in one address space is a long
// count of elements (§6.5.6p9). ok is false when neither operand is a
// pointer.
func pointerArith(pos Pos, op string, l, r Expr) (Type, bool, error) {
	lt, rt := l.ExprType(), r.ExprType()
	lp, lok := decay(l)
	rp, rok := decay(r)
	switch {
	case lok && rok && op == "-":
		if !TypesEqual(lp, rp) {
			return nil, true, errf(pos, "difference of pointers %s and %s", lt, rt)
		}
		if _, err := pointee(pos, lp, "subtract"); err != nil {
			return nil, true, err
		}
		return TypeLong, true, nil
	case lok && !rok && ElemKind(rt).IsInteger() && !isVector(rt),
		rok && !lok && op == "+" && ElemKind(lt).IsInteger() && !isVector(lt):
		p := lp
		if rok {
			p = rp
		}
		if _, err := pointee(pos, p, "advance"); err != nil {
			return nil, true, err
		}
		return p, true, nil
	case lok || rok:
		return nil, true, errf(pos, "operator %s on %s and %s: pointer arithmetic takes a pointer and an integer", op, lt, rt)
	}
	return nil, false, nil
}

// decay returns the pointer type the value of e is used as: its own type
// for a pointer, a pointer to the first element for an array.
func decay(e Expr) (*PointerType, bool) {
	switch t := e.ExprType().(type) {
	case *PointerType:
		return t, true
	case *ArrayType:
		return &PointerType{Elem: t.Elem, Space: spaceOf(e)}, true
	}
	return nil, false
}

func isVector(t Type) bool {
	_, ok := t.(*VectorType)
	return ok
}

// isScalarOrPointer reports whether t is a non-void scalar or a pointer:
// what a condition, !, && and || read.
func isScalarOrPointer(t Type) bool {
	if _, ok := t.(*PointerType); ok {
		return true
	}
	s, ok := t.(*ScalarType)
	return ok && s.Kind != KVoid
}

// checkAssignable validates an implicit conversion from 'from' to 'to'.
func (a *analyzer) checkAssignable(pos Pos, to, from Type) error {
	if to == nil || from == nil {
		return errf(pos, "internal: untyped operand")
	}
	if TypesEqual(to, from) {
		return nil
	}
	switch tt := to.(type) {
	case *ScalarType:
		if _, ok := from.(*ScalarType); ok {
			return nil // scalar conversions are implicit in C
		}
	case *VectorType:
		if fs, ok := from.(*ScalarType); ok && fs.Kind != KVoid {
			return nil // scalar widens to vector
		}
		if fv, ok := from.(*VectorType); ok && fv.Len == tt.Len {
			return nil
		}
	case *PointerType:
		if fp, ok := from.(*PointerType); ok && fp.Space == tt.Space {
			return nil // pointer conversions within one space allowed
		}
		if fa, ok := from.(*ArrayType); ok && TypesEqual(fa.Elem, tt.Elem) {
			return nil // array decay
		}
	}
	return errf(pos, "cannot assign %s to %s", from, to)
}

// ---------------------------------------------------------------- exprs

func (a *analyzer) expr(e Expr) error {
	switch ex := e.(type) {
	case *IntLit:
		return nil // typed by the parser from its suffix and value
	case *FloatLit:
		ex.Typ = TypeFloat
		return nil
	case *StringLit:
		ex.Typ = &PointerType{Elem: TypeChar, Space: ASConstant}
		return nil

	case *Ident:
		sym := a.lookup(ex.Name)
		if sym == nil {
			return errf(ex.Pos, "undeclared identifier %q", ex.Name)
		}
		ex.Sym = sym
		ex.Typ = sym.Type
		return nil

	case *Unary:
		if err := a.operand(ex.X); err != nil {
			return err
		}
		xt := ex.X.ExprType()
		switch ex.Op {
		case "+", "-":
			if !isArithmetic(xt) {
				return errf(ex.Pos, "operator %s on %s", ex.Op, xt)
			}
			ex.Typ = xt
		case "~":
			if !ElemKind(xt).IsInteger() {
				return errf(ex.Pos, "operator ~ requires an integer operand, found %s", xt)
			}
			ex.Typ = xt
		case "!":
			if isVector(xt) {
				return errf(ex.Pos, "operator ! on a vector operand is not supported")
			}
			if !isScalarOrPointer(xt) {
				return errf(ex.Pos, "operator ! on %s", xt)
			}
			ex.Typ = TypeInt
		case "*":
			t, err := pointee(ex.Pos, xt, "dereference")
			if err != nil {
				return err
			}
			ex.Typ = t
		case "&":
			space := ASPrivate
			if id, ok := ex.X.(*Ident); ok && id.Sym != nil {
				space = id.Sym.Space
			}
			if ix, ok := ex.X.(*Index); ok {
				space = spaceOf(ix.X)
			}
			ex.Typ = &PointerType{Elem: xt, Space: space}
		case "++", "--":
			if err := a.requireStep(ex.Pos, ex.Op, ex.X); err != nil {
				return err
			}
			ex.Typ = xt
		default:
			return errf(ex.Pos, "unsupported unary operator %q", ex.Op)
		}
		return nil

	case *Postfix:
		if err := a.operand(ex.X); err != nil {
			return err
		}
		if err := a.requireStep(ex.Pos, ex.Op, ex.X); err != nil {
			return err
		}
		ex.Typ = ex.X.ExprType()
		return nil

	case *Binary:
		if err := a.operands(ex.L, ex.R); err != nil {
			return err
		}
		t, err := binaryType(ex.Pos, ex.Op, ex.L, ex.R)
		ex.Typ = t
		return err

	case *Assign:
		if err := a.operands(ex.L, ex.R); err != nil {
			return err
		}
		if err := a.requireLValue(ex.L); err != nil {
			return err
		}
		rt := ex.R.ExprType()
		if ex.Op != "=" {
			t, err := binaryType(ex.Pos, ex.Op[:len(ex.Op)-1], ex.L, ex.R)
			if err != nil {
				return err
			}
			rt = t
		}
		if err := a.checkAssignable(ex.Pos, ex.L.ExprType(), rt); err != nil {
			return err
		}
		ex.Typ = ex.L.ExprType()
		return nil

	case *Cond:
		if err := a.operands(ex.C, ex.T, ex.F); err != nil {
			return err
		}
		if isVector(ex.C.ExprType()) {
			return errf(ex.C.NodePos(), "a vector condition of ?: is not supported")
		}
		if err := a.requireScalarCond(ex.C); err != nil {
			return err
		}
		ex.Typ = Promote(ex.T.ExprType(), ex.F.ExprType())
		return nil

	case *Index:
		if err := a.operands(ex.X, ex.I); err != nil {
			return err
		}
		t, err := pointee(ex.Pos, ex.X.ExprType(), "index")
		if err != nil {
			return err
		}
		ex.Typ = t
		if it, ok := ex.I.ExprType().(*ScalarType); !ok || !it.Kind.IsInteger() {
			return errf(ex.Pos, "array index must be an integer, found %s", ex.I.ExprType())
		}
		return nil

	case *Member:
		if err := a.operand(ex.X); err != nil {
			return err
		}
		vt, ok := ex.X.ExprType().(*VectorType)
		if !ok {
			return errf(ex.Pos, "member access on non-vector type %s", ex.X.ExprType())
		}
		comps, err := parseSwizzle(ex.Pos, ex.Name, vt.Len)
		if err != nil {
			return err
		}
		ex.Comps = comps
		if len(comps) == 1 {
			ex.Typ = vt.Elem
		} else {
			ex.Typ = &VectorType{Elem: vt.Elem, Len: len(comps)}
		}
		return nil

	case *Call:
		if err := a.operands(ex.Args...); err != nil {
			return err
		}
		if b := LookupBuiltin(ex.FuncName); b != nil {
			if b.Kind == BMath || b.Kind == BGeom {
				for _, arg := range ex.Args {
					if !isArithmetic(arg.ExprType()) {
						return errf(arg.NodePos(), "%s takes no %s argument", ex.FuncName, arg.ExprType())
					}
				}
			}
			t, err := b.Check(ex.Pos, ex.Args)
			if err != nil {
				return err
			}
			ex.Builtin = b
			ex.Typ = t
			return nil
		}
		callee := a.funcs[ex.FuncName]
		if callee == nil {
			return errf(ex.Pos, "call to undefined function %q", ex.FuncName)
		}
		if callee.IsKernel {
			return errf(ex.Pos, "calling kernel %q from device code is not supported", ex.FuncName)
		}
		if len(ex.Args) != len(callee.Params) {
			return errf(ex.Pos, "%s expects %d arguments, got %d", ex.FuncName, len(callee.Params), len(ex.Args))
		}
		for i, arg := range ex.Args {
			if err := a.checkAssignable(arg.NodePos(), callee.Params[i].Type, arg.ExprType()); err != nil {
				return err
			}
		}
		ex.Callee = callee
		ex.Typ = callee.Ret
		return nil

	case *Cast:
		if TypesEqual(ex.To, TypeVoid) {
			if err := a.expr(ex.X); err != nil {
				return err
			}
		} else if err := a.operand(ex.X); err != nil {
			return err
		}
		if _, fromPtr := ex.X.ExprType().(*PointerType); fromPtr && ElemKind(ex.To).IsFloat() {
			return errf(ex.Pos, "cannot cast pointer %s to %s", ex.X.ExprType(), ex.To)
		}
		ex.Typ = ex.To
		return nil

	case *VecLit:
		n := 0
		for _, el := range ex.Elems {
			if err := a.operand(el); err != nil {
				return err
			}
			if !isArithmetic(el.ExprType()) {
				return errf(el.NodePos(), "vector literal element of type %s", el.ExprType())
			}
			if vt, ok := el.ExprType().(*VectorType); ok {
				n += vt.Len
			} else {
				n++
			}
		}
		if n != ex.To.Len && len(ex.Elems) != 1 {
			return errf(ex.Pos, "vector literal for %s has %d components", ex.To, n)
		}
		ex.Typ = ex.To
		return nil

	case *SizeofExpr:
		if ex.X != nil {
			if err := a.expr(ex.X); err != nil {
				return err
			}
			ex.Of = sizeofType(ex.X)
		}
		ex.Typ = TypeULong
		return nil
	}
	return fmt.Errorf("clc: unhandled expression %T", e)
}

// sizeofType is the type sizeof measures of operand x: a string literal is
// an array of its chars and a terminating null (C99 §6.4.5p5), although it
// converts to a pointer everywhere else.
func sizeofType(x Expr) Type {
	if s, ok := x.(*StringLit); ok {
		return &ArrayType{Elem: TypeChar, Len: len(s.Value) + 1}
	}
	return x.ExprType()
}

// requireStep checks the operand of ++ or --: an assignable scalar,
// vector or pointer to a complete type.
func (a *analyzer) requireStep(pos Pos, op string, e Expr) error {
	if err := a.requireLValue(e); err != nil {
		return err
	}
	t := e.ExprType()
	if _, isPtr := t.(*PointerType); isPtr {
		_, err := pointee(pos, t, "advance")
		return err
	}
	if !isArithmetic(t) {
		return errf(pos, "operator %s on %s", op, t)
	}
	return nil
}

// requireLValue checks that e can be assigned to.
func (a *analyzer) requireLValue(e Expr) error {
	switch ex := e.(type) {
	case *Ident:
		if ex.Sym != nil {
			if _, isArr := ex.Sym.Type.(*ArrayType); isArr {
				return errf(ex.Pos, "cannot assign to array %s", ex.Name)
			}
		}
		return nil
	case *Index:
		return nil
	case *Member:
		return a.requireLValue(ex.X)
	case *Unary:
		if ex.Op == "*" {
			return nil
		}
	}
	return errf(e.NodePos(), "expression is not assignable")
}

// spaceOf determines the address space an expression's storage lives in.
func spaceOf(e Expr) AddrSpace {
	switch ex := e.(type) {
	case *Ident:
		if ex.Sym != nil {
			if pt, ok := ex.Sym.Type.(*PointerType); ok {
				return pt.Space
			}
			return ex.Sym.Space
		}
	case *Index:
		return spaceOf(ex.X)
	case *Binary:
		if ex.Op == "+" || ex.Op == "-" {
			return spaceOf(ex.L)
		}
	case *Cast:
		if pt, ok := ex.To.(*PointerType); ok {
			return pt.Space
		}
	case *Unary:
		if ex.Op == "&" || ex.Op == "*" {
			return spaceOf(ex.X)
		}
	}
	return ASPrivate
}

// parseSwizzle resolves a vector component selector name into component
// indices. Supports xyzw, s0..sF, lo, hi, even, odd.
func parseSwizzle(pos Pos, name string, vecLen int) ([]int, error) {
	switch name {
	case "lo":
		half := vecLen / 2
		out := make([]int, half)
		for i := range out {
			out[i] = i
		}
		return out, nil
	case "hi":
		half := vecLen / 2
		out := make([]int, half)
		for i := range out {
			out[i] = vecLen - half + i
		}
		return out, nil
	case "even":
		var out []int
		for i := 0; i < vecLen; i += 2 {
			out = append(out, i)
		}
		return out, nil
	case "odd":
		var out []int
		for i := 1; i < vecLen; i += 2 {
			out = append(out, i)
		}
		return out, nil
	}
	if len(name) >= 2 && (name[0] == 's' || name[0] == 'S') && isSwizzleHex(name[1:]) {
		var out []int
		for _, c := range name[1:] {
			out = append(out, hexVal(byte(c)))
		}
		for _, c := range out {
			if c >= vecLen {
				return nil, errf(pos, "component s%x out of range for %d-vector", c, vecLen)
			}
		}
		return out, nil
	}
	var out []int
	for i := 0; i < len(name); i++ {
		var c int
		switch name[i] {
		case 'x':
			c = 0
		case 'y':
			c = 1
		case 'z':
			c = 2
		case 'w':
			c = 3
		default:
			return nil, errf(pos, "bad vector component %q", name)
		}
		if c >= vecLen {
			return nil, errf(pos, "component %c out of range for %d-vector", name[i], vecLen)
		}
		out = append(out, c)
	}
	if len(out) == 0 || len(out) > 16 {
		return nil, errf(pos, "bad vector swizzle %q", name)
	}
	return out, nil
}

func isSwizzleHex(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		if !isHexDigit(s[i]) {
			return false
		}
	}
	return true
}

func hexVal(c byte) int {
	switch {
	case c >= '0' && c <= '9':
		return int(c - '0')
	case c >= 'a' && c <= 'f':
		return int(c-'a') + 10
	case c >= 'A' && c <= 'F':
		return int(c-'A') + 10
	}
	return 0
}
