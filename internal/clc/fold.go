package clc

import "fmt"

// MaxObjectBytes bounds one array object a kernel declares and one buffer
// or local argument a launch is given: the engines allocate those bytes
// per work-group or on demand, and 64 MiB is beyond any benchmark dataset.
const MaxObjectBytes = 64 << 20

// FoldConstInt evaluates an integer constant expression AST before
// semantic analysis: literals, sizeof, casts to an integer type, unary
// + - ~ !, the binary operators and the conditional operator. Each node
// gets the type sema gives it and is evaluated with the scalar semantics
// the engines run, so the value is what a kernel computing the same
// expression computes, in its kind's NormInt representation. Identifiers
// and calls are rejected: macros must already be expanded.
func FoldConstInt(e Expr) (int64, error) {
	v, _, err := constFolder{}.fold(e)
	return v, err
}

// constFolder folds integer constant expressions. With pp set it folds as
// #if does (C99 §6.10.1p4): every signed type acts as long and every
// unsigned one as ulong. With dead set it folds the arm of ?: that is not
// evaluated (C99 §6.5.15p4): only its type counts, so a division by zero
// there is no error.
type constFolder struct{ pp, dead bool }

// typed returns v converted to type t.
func (f constFolder) typed(v int64, t Type) (int64, *ScalarType, error) {
	s, ok := t.(*ScalarType)
	if !ok || !s.Kind.IsInteger() {
		return 0, nil, fmt.Errorf("non-integer %s in constant expression", t)
	}
	if f.pp && s.Kind.IsUnsigned() {
		s = TypeULong
	} else if f.pp {
		s = TypeLong
	}
	return NormInt(v, s.Kind), s, nil
}

func (f constFolder) fold(e Expr) (int64, *ScalarType, error) {
	switch ex := e.(type) {
	case *IntLit:
		return f.typed(ex.Value, ex.Typ)
	case *SizeofExpr:
		if _, ok := ex.X.(*StringLit); ok {
			return f.typed(int64(sizeofType(ex.X).Size()), TypeULong)
		}
		if ex.X != nil {
			// Only the operand's type counts, as in an arm not evaluated.
			_, t, err := constFolder{pp: f.pp, dead: true}.fold(ex.X)
			if err != nil {
				return 0, nil, err
			}
			return f.typed(int64(t.Size()), TypeULong)
		}
		return f.typed(int64(ex.Of.Size()), TypeULong)
	case *Cast:
		x, _, err := f.fold(ex.X)
		if err != nil {
			return 0, nil, err
		}
		return f.typed(x, ex.To)
	case *Unary:
		x, t, err := f.fold(ex.X)
		if err != nil {
			return 0, nil, err
		}
		switch ex.Op {
		case "+":
			return x, t, nil
		case "-":
			return f.typed(-x, t)
		case "~":
			return f.typed(^x, t)
		case "!":
			return f.typed(b2i(x == 0), TypeInt)
		}
		return 0, nil, fmt.Errorf("operator %q is not constant", ex.Op)
	case *Binary:
		l, lt, err := f.fold(ex.L)
		if err != nil {
			return 0, nil, err
		}
		logical := ex.Op == "&&" || ex.Op == "||"
		if logical && (l != 0) == (ex.Op == "||") {
			return f.typed(b2i(l != 0), TypeInt)
		}
		r, rt, err := f.fold(ex.R)
		if err != nil {
			return 0, nil, err
		}
		op := opOf(ex.Op)
		switch {
		case logical:
			return f.typed(b2i(r != 0), TypeInt)
		case op == OpInvalid:
			return 0, nil, fmt.Errorf("operator %q is not constant", ex.Op)
		case op.IsCompare():
			k := Promote(lt, rt).(*ScalarType).Kind
			return f.typed(b2i(IntCmp(op, k, NormInt(l, k), NormInt(r, k))), TypeInt)
		}
		t := arithType(ex.Op, lt, rt)
		k := t.(*ScalarType).Kind
		v, err := IntBin(op, k, NormInt(l, k), NormInt(r, k))
		if err != nil && !f.dead {
			return 0, nil, err
		}
		return f.typed(v, t)
	case *Cond:
		c, _, err := f.fold(ex.C)
		if err != nil {
			return 0, nil, err
		}
		live, dead := ex.T, ex.F
		if c == 0 {
			live, dead = ex.F, ex.T
		}
		v, lt, err := f.fold(live)
		if err != nil {
			return 0, nil, err
		}
		_, dt, err := constFolder{pp: f.pp, dead: true}.fold(dead)
		if err != nil {
			return 0, nil, err
		}
		return f.typed(v, Promote(lt, dt))
	case *Ident:
		return 0, nil, fmt.Errorf("identifier %q is not a compile-time constant (missing #define?)", ex.Name)
	}
	return 0, nil, fmt.Errorf("expression is not a compile-time constant")
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
