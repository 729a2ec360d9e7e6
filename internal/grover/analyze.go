package grover

import (
	"errors"
	"fmt"
	"math/big"

	"grover/internal/clc"
	"grover/internal/exprtree"
	"grover/internal/ir"
	"grover/internal/linsolve"
)

// ErrNotReversible is returned when Grover cannot build the local↔global
// correspondence for a candidate — the linear system has no unique
// solution, the solution is non-integral, or the staged value depends on a
// local id the system does not determine (paper §III-B: "when the system
// does not have a unique solution, Grover will not be able to cancel the
// use of the local memory").
type ErrNotReversible struct {
	Candidate string
	Code      RejectCode
	Reason    string
}

func (e *ErrNotReversible) Error() string {
	return fmt.Sprintf("grover: candidate %q is not reversible: %s", e.Candidate, e.Reason)
}

// codedErr tags an analysis failure with its machine-readable reject code
// so notReversible can classify without string matching.
type codedErr struct {
	code RejectCode
	err  error
}

func (e *codedErr) Error() string { return e.err.Error() }
func (e *codedErr) Unwrap() error { return e.err }

func coded(code RejectCode, format string, args ...interface{}) error {
	return &codedErr{code: code, err: fmt.Errorf(format, args...)}
}

// rejectCodeOf classifies an analysis error into a RejectCode.
func rejectCodeOf(err error) RejectCode {
	var nr *ErrNotReversible
	if errors.As(err, &nr) && nr.Code != RejectNone {
		return nr.Code
	}
	var ce *codedErr
	if errors.As(err, &ce) {
		return ce.code
	}
	var na *exprtree.ErrNonAffine
	if errors.As(err, &na) {
		return RejectNonAffineIndex
	}
	return RejectNoCorrespondence
}

// notReversible wraps an analysis error as ErrNotReversible for one
// candidate, classifying its reject code.
func notReversible(c *Candidate, err error) error {
	return &ErrNotReversible{Candidate: c.Name, Code: rejectCodeOf(err), Reason: err.Error()}
}

// row is one equation of the linear system: local-id coefficients plus the
// local-id-free remainder of an LS dimension index.
type row struct {
	coeffs map[int]*big.Rat
	rest   *linsolve.Affine
}

// storePlan is the analyzed form of one LS store: its GL expression tree
// and the linear system its index induces (paper Eq. 2).
type storePlan struct {
	st     *Access
	glTree *exprtree.Node
	// strides used for index decomposition (declared shape, or virtual
	// strides inferred for flattened indices per Fig. 7).
	strides []int64
	lsDims  []*linsolve.Affine
	rows    []row
	// sysRowIdx are the indices of rows carrying local-id terms; mat is
	// the square coefficient matrix over unknowns.
	sysRowIdx []int
	mat       [][]*big.Rat
	unknowns  []int
}

// llPlan pairs one LL with the store whose system solved for it.
type llPlan struct {
	store *storePlan
	sol   map[int]*linsolve.Affine
}

// analysis is the per-candidate result of the correspondence derivation.
type analysis struct {
	cand   *Candidate
	reg    *exprtree.Registry
	stores []*storePlan
	plans  map[*ir.Instr]*llPlan
}

// localIDCoeffs splits an affine form into get_local_id coefficients per
// dimension plus the local-id-free remainder.
func localIDCoeffs(a *linsolve.Affine) (coeffs map[int]*big.Rat, rest *linsolve.Affine) {
	coeffs = map[int]*big.Rat{}
	rest = a.Clone()
	for d := 0; d < 3; d++ {
		key := exprtree.LocalIDKey(d)
		c := rest.Coeff(key)
		if c.Sign() != 0 {
			coeffs[d] = new(big.Rat).Set(c)
			rest.AddScaled(linsolve.TermAffine(key), new(big.Rat).Neg(c))
		}
	}
	return coeffs, rest
}

// systemSquare reports whether the decomposed LS dimensions give as many
// local-id-bearing equations as distinct local-id unknowns.
func systemSquare(dims []*linsolve.Affine) bool {
	unknowns := map[int]bool{}
	eqs := 0
	for _, d := range dims {
		cf, _ := localIDCoeffs(d)
		if len(cf) > 0 {
			eqs++
		}
		for u := range cf {
			unknowns[u] = true
		}
	}
	return eqs == len(unknowns)
}

// inferStrides derives virtual strides from the distinct local-id
// coefficient magnitudes of a flattened LS offset (descending), requiring
// a divisibility chain ending at the element size. Returns nil when no
// valid chain exists.
func inferStrides(off *linsolve.Affine, elemStride int64) []int64 {
	seen := map[int64]bool{}
	var coeffs []int64
	for d := 0; d < 3; d++ {
		c := off.Coeff(exprtree.LocalIDKey(d))
		if c.Sign() == 0 {
			continue
		}
		if !c.IsInt() {
			return nil
		}
		v := new(big.Int).Abs(c.Num()).Int64()
		if v != 0 && !seen[v] {
			seen[v] = true
			coeffs = append(coeffs, v)
		}
	}
	if len(coeffs) < 2 {
		return nil
	}
	sortDesc(coeffs)
	if coeffs[len(coeffs)-1]%elemStride != 0 {
		return nil
	}
	if coeffs[len(coeffs)-1] != elemStride {
		coeffs = append(coeffs, elemStride)
	}
	for i := 0; i+1 < len(coeffs); i++ {
		if coeffs[i]%coeffs[i+1] != 0 {
			return nil
		}
	}
	return coeffs
}

func sortDesc(v []int64) {
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && v[j] > v[j-1]; j-- {
			v[j], v[j-1] = v[j-1], v[j]
		}
	}
}

func requireIntegral(a *linsolve.Affine) error {
	if !a.Const.IsInt() {
		return fmt.Errorf("solution %s has a non-integral constant", a)
	}
	for _, k := range a.Terms() {
		if !a.Coeff(k).IsInt() {
			return fmt.Errorf("solution %s has a non-integral coefficient", a)
		}
	}
	return nil
}

// buildStorePlan analyzes one LS store into a solvable system (paper S1).
func buildStorePlan(tb *exprtree.Builder, c *Candidate, st *Access, reg *exprtree.Registry) (*storePlan, error) {
	glTree, err := tb.Build(st.Instr.Args[1])
	if err != nil {
		return nil, err
	}
	lsOff, err := tb.Offset(st.IndexChain, reg)
	if err != nil {
		return nil, err
	}
	strides := c.Strides
	lsDims, err := linsolve.DecomposeByStrides(lsOff, strides)
	if err != nil {
		return nil, err
	}
	if !systemSquare(lsDims) {
		inferred := inferStrides(lsOff, c.Strides[len(c.Strides)-1])
		if inferred == nil {
			return nil, coded(RejectUnderdetermined, "store index %s yields an underdetermined system", lsOff)
		}
		dims2, err2 := linsolve.DecomposeByStrides(lsOff, inferred)
		if err2 != nil || !systemSquare(dims2) {
			return nil, coded(RejectUnderdetermined, "store index %s yields an underdetermined system", lsOff)
		}
		strides, lsDims = inferred, dims2
	}
	sp := &storePlan{st: st, glTree: glTree, strides: strides, lsDims: lsDims}
	dimSet := map[int]bool{}
	for _, dimAff := range lsDims {
		cf, rest := localIDCoeffs(dimAff)
		sp.rows = append(sp.rows, row{coeffs: cf, rest: rest})
		for d := range cf {
			dimSet[d] = true
		}
	}
	for d := 0; d < 3; d++ {
		if dimSet[d] {
			sp.unknowns = append(sp.unknowns, d)
		}
	}
	for i := range sp.rows {
		if len(sp.rows[i].coeffs) != 0 {
			sp.sysRowIdx = append(sp.sysRowIdx, i)
		}
	}
	if len(sp.sysRowIdx) != len(sp.unknowns) {
		return nil, coded(RejectNonSquareSystem, "system is not square: %d equations with local-id terms, %d unknowns",
			len(sp.sysRowIdx), len(sp.unknowns))
	}
	sp.mat = make([][]*big.Rat, len(sp.sysRowIdx))
	for i, ri := range sp.sysRowIdx {
		sp.mat[i] = make([]*big.Rat, len(sp.unknowns))
		for j, d := range sp.unknowns {
			if cf, ok := sp.rows[ri].coeffs[d]; ok {
				sp.mat[i][j] = cf
			} else {
				sp.mat[i][j] = new(big.Rat)
			}
		}
	}
	if err := checkGLLocalIDs(sp, c); err != nil {
		return nil, err
	}
	return sp, nil
}

// solveForLL solves the store's system for one LL (paper S2): the LL index
// dimensions are the constant terms, and the solution must be integral and
// consistent on the constraint rows.
func solveForLL(tb *exprtree.Builder, sp *storePlan, ll *Access, reg *exprtree.Registry) (map[int]*linsolve.Affine, error) {
	llOff, err := tb.Offset(ll.IndexChain, reg)
	if err != nil {
		return nil, err
	}
	llDims, err := linsolve.DecomposeByStrides(llOff, sp.strides)
	if err != nil {
		return nil, err
	}
	// Constraint rows: the store's local-id-free dimensions must match the
	// load's exactly (e.g. lm[0][lx] loaded as lm[0][j]).
	for i, r := range sp.rows {
		if len(r.coeffs) != 0 {
			continue
		}
		if !r.rest.Equal(llDims[i]) {
			return nil, coded(RejectDimMismatch, "dimension %d mismatch: store index %s vs load index %s",
				i, r.rest, llDims[i])
		}
	}
	if len(sp.unknowns) == 0 {
		return map[int]*linsolve.Affine{}, nil
	}
	rhs := make([]*linsolve.Affine, len(sp.sysRowIdx))
	for k, i := range sp.sysRowIdx {
		// a_i·l + rest_i = LL_i  →  a_i·l = LL_i − rest_i
		rhs[k] = llDims[i].Clone().Sub(sp.rows[i].rest)
	}
	sol, err := linsolve.Solve(sp.mat, rhs)
	if err != nil {
		return nil, err
	}
	solved := map[int]*linsolve.Affine{}
	for j, d := range sp.unknowns {
		if err := requireIntegral(sol[j]); err != nil {
			return nil, &codedErr{code: RejectNonIntegral, err: err}
		}
		solved[d] = sol[j]
	}
	return solved, nil
}

// checkGLLocalIDs verifies every get_local_id dimension used by the GL
// expression is determined by the store's system.
func checkGLLocalIDs(sp *storePlan, c *Candidate) error {
	solvedSet := map[int]bool{}
	for _, d := range sp.unknowns {
		solvedSet[d] = true
	}
	var bad []int
	sp.glTree.Walk(func(n *exprtree.Node) {
		in := n.Instr()
		if in == nil || in.Op != ir.OpWorkItem || in.Func != "get_local_id" {
			return
		}
		dim := 0
		if len(in.Args) == 1 {
			if cst, ok := in.Args[0].(*ir.ConstInt); ok {
				dim = int(cst.Val)
			}
		}
		if !solvedSet[dim] {
			bad = append(bad, dim)
		}
	})
	if len(bad) > 0 {
		return coded(RejectGLUndetermined, "global load depends on get_local_id(%d) which the store index does not determine", bad[0])
	}
	return nil
}

// validateGLTree rejects staged values whose computation has side effects
// or reads local memory (the read/write temporal-storage use-case the
// paper excludes, §VI-D).
func validateGLTree(n *exprtree.Node, c *Candidate) error {
	var bad error
	n.Walk(func(node *exprtree.Node) {
		in := node.Instr()
		if in == nil || bad != nil {
			return
		}
		switch in.Op {
		case ir.OpCall:
			bad = coded(RejectTemporalStorage, "staged value calls function %s", in.Callee.Name)
		case ir.OpLoad:
			if ir.PointerSpace(in.Args[0].Type()) == clc.ASLocal {
				bad = coded(RejectTemporalStorage, "staged value reads local memory (temporal-storage pattern)")
			}
		case ir.OpAlloca:
			if in.Space == clc.ASLocal {
				bad = coded(RejectTemporalStorage, "staged value references local memory")
			}
		}
	})
	return bad
}

// analyzeCandidate derives the correspondence for one candidate: one plan
// per LL, pairing it with a compatible LS. The paper picks "any one"
// (GL, LS) pair because in its benchmarks all pairs agree; here each LL is
// matched to the first store whose system solves integrally and
// consistently for it, which also covers vector kernels staging a block
// with several stores.
func analyzeCandidate(tb *exprtree.Builder, c *Candidate) (*analysis, error) {
	if c.Reject != RejectNone {
		return nil, &ErrNotReversible{Candidate: c.Name, Code: c.Reject, Reason: c.RejectDetail}
	}
	reg := exprtree.NewRegistry()
	a := &analysis{cand: c, reg: reg, plans: map[*ir.Instr]*llPlan{}}

	// Purity first: every store must stage a local-memory-free, call-free
	// value, or the whole candidate is the temporal-storage pattern.
	for _, st := range c.Stores {
		tree, err := tb.Build(st.Instr.Args[1])
		if err != nil {
			return nil, err
		}
		if verr := validateGLTree(tree, c); verr != nil {
			return nil, notReversible(c, verr)
		}
	}
	var planErr error
	for _, st := range c.Stores {
		sp, err := buildStorePlan(tb, c, st, reg)
		if err != nil {
			planErr = err
			continue
		}
		a.stores = append(a.stores, sp)
	}
	if len(a.stores) == 0 {
		return nil, notReversible(c, planErr)
	}
	for _, ll := range c.Loads {
		var lastErr error
		for _, sp := range a.stores {
			sol, err := solveForLL(tb, sp, ll, reg)
			if err != nil {
				lastErr = err
				continue
			}
			a.plans[ll.Instr] = &llPlan{store: sp, sol: sol}
			break
		}
		if a.plans[ll.Instr] == nil {
			return nil, notReversible(c, lastErr)
		}
	}
	return a, nil
}
