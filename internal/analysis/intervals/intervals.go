// Package intervals is the guard-refined integer-range arithmetic shared
// by the analysis detectors and the memaccess summary pass: a
// possibly-unbounded interval type, base ranges for work-item identity
// terms seeded from the launch's work-group extents, affine-form range
// evaluation, and the translation of dominating-branch comparisons into
// one-sided bounds on single symbolic terms.
//
// It sits below internal/analysis so packages the analysis detectors
// depend on (memaccess) can use the same machinery without a cycle.
package intervals

import (
	"fmt"
	"math/big"

	"grover/internal/exprtree"
	"grover/internal/ir"
	"grover/internal/linsolve"
)

// Interval is a possibly-unbounded integer range [Lo, Hi].
type Interval struct {
	Lo, Hi       int64
	LoInf, HiInf bool // true: unbounded on that side
}

// Top is the unconstrained interval (-inf, +inf).
func Top() Interval { return Interval{LoInf: true, HiInf: true} }

// Exact is the single-point interval [v, v].
func Exact(v int64) Interval { return Interval{Lo: v, Hi: v} }

// Range is the bounded interval [lo, hi].
func Range(lo, hi int64) Interval { return Interval{Lo: lo, Hi: hi} }

// NonNeg is [0, +inf).
func NonNeg() Interval { return Interval{Lo: 0, HiInf: true} }

// Add sums two intervals.
func (a Interval) Add(b Interval) Interval {
	return Interval{
		Lo: a.Lo + b.Lo, LoInf: a.LoInf || b.LoInf,
		Hi: a.Hi + b.Hi, HiInf: a.HiInf || b.HiInf,
	}
}

// Scale multiplies the interval by an integer constant.
func (a Interval) Scale(c int64) Interval {
	if c == 0 {
		return Exact(0)
	}
	if c < 0 {
		a.Lo, a.Hi = a.Hi, a.Lo
		a.LoInf, a.HiInf = a.HiInf, a.LoInf
		a.Lo *= c
		a.Hi *= c
		return a
	}
	a.Lo *= c
	a.Hi *= c
	return a
}

// ClampMax intersects with (-inf, v].
func (a Interval) ClampMax(v int64) Interval {
	if a.HiInf || v < a.Hi {
		a.Hi, a.HiInf = v, false
	}
	return a
}

// ClampMin intersects with [v, +inf).
func (a Interval) ClampMin(v int64) Interval {
	if a.LoInf || v > a.Lo {
		a.Lo, a.LoInf = v, false
	}
	return a
}

// Refine intersects a with the constraint interval g.
func (a Interval) Refine(g Interval) Interval {
	if !g.LoInf {
		a = a.ClampMin(g.Lo)
	}
	if !g.HiInf {
		a = a.ClampMax(g.Hi)
	}
	return a
}

func (a Interval) String() string {
	lo, hi := "-inf", "+inf"
	if !a.LoInf {
		lo = fmt.Sprintf("%d", a.Lo)
	}
	if !a.HiInf {
		hi = fmt.Sprintf("%d", a.Hi)
	}
	return fmt.Sprintf("[%s, %s]", lo, hi)
}

// Extent reads one work-group dimension, 0 when unknown.
func Extent(wg [3]int, d int) int64 {
	if d < 0 || d > 2 {
		return 0
	}
	return int64(wg[d])
}

// TermInterval is the base range of one symbolic term, seeded from the
// work-group extents for the work-item identity queries.
func TermInterval(t *exprtree.Term, wg [3]int) Interval {
	if t == nil {
		return Top()
	}
	if t.WorkItemFn == "" {
		return Top() // parameter or opaque subexpression
	}
	d := t.Dim
	switch t.WorkItemFn {
	case "get_local_id":
		if l := Extent(wg, d); l > 0 {
			return Range(0, l-1)
		}
		return NonNeg()
	case "get_local_size":
		if l := Extent(wg, d); l > 0 {
			return Exact(l)
		}
		return Interval{Lo: 1, HiInf: true}
	case "get_work_dim":
		return Range(1, 3)
	default:
		// Global ids, group ids, global sizes, group counts: unbounded
		// above but never negative.
		return NonNeg()
	}
}

// RatInt64 extracts an int64 from an integral rational, reporting
// whether the conversion is exact.
func RatInt64(r *big.Rat) (int64, bool) {
	if r == nil {
		return 0, false
	}
	if !r.IsInt() {
		return 0, false
	}
	n := r.Num()
	if !n.IsInt64() {
		return 0, false
	}
	return n.Int64(), true
}

// StableTerm reports whether the registry term named key has the same
// value every time one work-item evaluates it during a kernel run:
// work-item queries and kernel parameters are stable, loads of mutable
// variables (loop counters) and other opaque subtrees are not.
func StableTerm(reg *exprtree.Registry, key string) bool {
	t := reg.Term(key)
	if t == nil {
		return false
	}
	if t.WorkItemFn != "" {
		return true
	}
	_, isParam := t.Rep.(*ir.Param)
	return isParam
}

// EvalAffine evaluates the affine's value range under the given guard
// constraints. ok is false when a coefficient or the constant is not an
// integer.
func EvalAffine(aff *linsolve.Affine, reg *exprtree.Registry, wg [3]int, guards map[string]Interval) (Interval, bool) {
	k, ok := RatInt64(aff.Const)
	if !ok {
		return Interval{}, false
	}
	total := Exact(k)
	for _, key := range aff.Terms() {
		c, ok := RatInt64(aff.Coeff(key))
		if !ok {
			return Interval{}, false
		}
		iv := TermInterval(reg.Term(key), wg)
		if g, has := guards[key]; has {
			iv = iv.Refine(g)
		}
		total = total.Add(iv.Scale(c))
	}
	return total, true
}

// ConstraintFromCond turns a comparison (negated when the false edge was
// taken) into a one-sided bound on a single term: lhs − rhs must be an
// affine with exactly one term and integer coefficients.
func ConstraintFromCond(cond *ir.Instr, negated bool, tb *exprtree.Builder, reg *exprtree.Registry) (string, Interval, bool) {
	op := cond.Op
	switch op {
	case ir.OpLt, ir.OpLe, ir.OpGt, ir.OpGe, ir.OpEq:
	default:
		return "", Interval{}, false
	}
	if negated {
		switch op {
		case ir.OpLt:
			op = ir.OpGe
		case ir.OpLe:
			op = ir.OpGt
		case ir.OpGt:
			op = ir.OpLe
		case ir.OpGe:
			op = ir.OpLt
		case ir.OpEq:
			return "", Interval{}, false // != gives no interval
		}
	}
	diff, ok := CondDiff(cond, tb, reg)
	if !ok {
		return "", Interval{}, false
	}
	terms := diff.Terms()
	if len(terms) != 1 {
		return "", Interval{}, false
	}
	key := terms[0]
	c, okC := RatInt64(diff.Coeff(key))
	k, okK := RatInt64(diff.Const)
	if !okC || !okK || c == 0 {
		return "", Interval{}, false
	}
	// diff = c·t + k; the comparison bounds diff, giving a bound on t.
	var diffHi, diffLo int64
	var hasHi, hasLo bool
	switch op {
	case ir.OpLt:
		diffHi, hasHi = -1, true
	case ir.OpLe:
		diffHi, hasHi = 0, true
	case ir.OpGt:
		diffLo, hasLo = 1, true
	case ir.OpGe:
		diffLo, hasLo = 0, true
	case ir.OpEq:
		diffHi, hasHi = 0, true
		diffLo, hasLo = 0, true
	}
	iv := Top()
	if hasHi { // c·t ≤ diffHi − k
		if c > 0 {
			iv = iv.ClampMax(FloorDiv(diffHi-k, c))
		} else {
			iv = iv.ClampMin(CeilDiv(diffHi-k, c))
		}
	}
	if hasLo { // c·t ≥ diffLo − k
		if c > 0 {
			iv = iv.ClampMin(CeilDiv(diffLo-k, c))
		} else {
			iv = iv.ClampMax(FloorDiv(diffLo-k, c))
		}
	}
	return key, iv, true
}

// CondDiff builds lhs − rhs of a comparison as an affine form.
func CondDiff(cond *ir.Instr, tb *exprtree.Builder, reg *exprtree.Registry) (*linsolve.Affine, bool) {
	if len(cond.Args) != 2 {
		return nil, false
	}
	la, err := tb.Affine(cond.Args[0], reg)
	if err != nil {
		return nil, false
	}
	ra, err := tb.Affine(cond.Args[1], reg)
	if err != nil {
		return nil, false
	}
	diff := la.Clone()
	diff.AddScaled(ra, big.NewRat(-1, 1))
	return diff, true
}

// FloorDiv and CeilDiv are Euclidean-rounding divisions for guard
// arithmetic (Go's / truncates toward zero).
func FloorDiv(a, b int64) int64 {
	q := a / b
	if (a%b != 0) && ((a < 0) != (b < 0)) {
		q--
	}
	return q
}

func CeilDiv(a, b int64) int64 {
	q := a / b
	if (a%b != 0) && ((a < 0) == (b < 0)) {
		q++
	}
	return q
}
