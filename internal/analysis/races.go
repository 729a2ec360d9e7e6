package analysis

import (
	"fmt"
	"math/big"

	"grover/internal/analysis/intervals"
	"grover/internal/clc"
	"grover/internal/exprtree"
	"grover/internal/ir"
	"grover/internal/linsolve"
)

// checkRaces reports pairs of local-memory accesses that can touch the
// same cell from different work-items with no intervening local-fence
// barrier, plus stores whose index provably collides across work-items
// while storing divergent values.
//
// The detector is path-based: from every access it scans forward through
// the CFG, stopping at barriers that fence local memory, and records
// which other accesses of the same buffer it can reach barrier-free. A
// reachable (store, load) or (store, store) pair is a candidate race; it
// is excused when the two byte offsets are provably disjoint across
// work-items (bounded linear feasibility over the work-group extents),
// or when the offsets are identical, identity-stable, and injective in
// the work-item id — then a shared cell implies a shared work-item and
// the accesses are ordered by program order within it.
func checkRaces(cfg *ir.CFG, uni *Uniformity, bufs []*localBuffer, reg *exprtree.Registry, wg [3]int) []Finding {
	var out []Finding
	for _, buf := range bufs {
		out = append(out, checkBufferRaces(cfg, uni, buf, reg, wg)...)
	}
	return out
}

// barrierCuts reports whether in is a barrier that fences local memory
// (flags bit CLK_LOCAL_MEM_FENCE=1; a missing operand defaults to the
// local fence, an unknown non-constant operand is assumed to fence).
func barrierCuts(in *ir.Instr) bool {
	if in.Op != ir.OpBarrier {
		return false
	}
	if len(in.Args) == 1 {
		if c, ok := in.Args[0].(*ir.ConstInt); ok {
			return c.Val&1 != 0
		}
	}
	return true
}

// barrierFreeReach returns, per access, the accesses of the same buffer
// reachable from it along some CFG path with no local-fence barrier.
func barrierFreeReach(cfg *ir.CFG, buf *localBuffer) map[*access][]*access {
	accAt := map[*ir.Instr]*access{}
	for _, a := range buf.accesses {
		accAt[a.instr] = a
	}
	pos := map[*ir.Instr]int{}
	for _, b := range cfg.Blocks {
		for i, in := range b.Instrs {
			pos[in] = i
		}
	}
	reach := map[*access][]*access{}
	for _, a := range buf.accesses {
		seen := map[*access]bool{}
		visited := make([]bool, len(cfg.Blocks))
		// scan walks one block from instruction index `from`; it returns
		// false when a barrier cuts the path before the block's end.
		scan := func(b *ir.Block, from int) bool {
			for _, in := range b.Instrs[from:] {
				if other, ok := accAt[in]; ok && !seen[other] {
					seen[other] = true
					reach[a] = append(reach[a], other)
				}
				if barrierCuts(in) {
					return false
				}
			}
			return true
		}
		var stack []int
		if scan(a.instr.Block, pos[a.instr]+1) {
			stack = append(stack, cfg.Succ[cfg.Index[a.instr.Block]]...)
		}
		for len(stack) > 0 {
			bi := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if visited[bi] {
				continue
			}
			visited[bi] = true
			if scan(cfg.Blocks[bi], 0) {
				stack = append(stack, cfg.Succ[bi]...)
			}
		}
	}
	return reach
}

func checkBufferRaces(cfg *ir.CFG, uni *Uniformity, buf *localBuffer, reg *exprtree.Registry, wg [3]int) []Finding {
	var out []Finding
	reach := barrierFreeReach(cfg, buf)
	type pairKey struct{ a, b *ir.Instr }
	reported := map[pairKey]bool{}
	name := buf.alloca.VarName
	for _, x := range buf.accesses {
		for _, y := range reach[x] {
			if !x.store && !y.store {
				continue
			}
			if reported[pairKey{x.instr, y.instr}] || reported[pairKey{y.instr, x.instr}] {
				continue
			}
			if excusedPair(x, y, reg, wg) {
				continue
			}
			reported[pairKey{x.instr, y.instr}] = true
			anchor, other := x, y
			if !anchor.store {
				anchor, other = y, x
			}
			kind := "load"
			if other.store {
				kind = "store"
			}
			out = append(out, Finding{
				Detector: DetectorLocalRace,
				Severity: SeverityError,
				Kernel:   cfg.Fn.Name,
				Pos:      anchor.instr.Pos,
				Message: fmt.Sprintf("possible race on __local %s: store and %s at %s can touch the "+
					"same element from different work-items with no barrier(CLK_LOCAL_MEM_FENCE) on every path between them",
					name, kind, other.instr.Pos),
				Related: []clc.Pos{other.instr.Pos},
			})
		}
	}
	out = append(out, checkBroadcastStores(cfg, uni, buf, reg, wg)...)
	return out
}

// excusedPair decides that a barrier-free access pair cannot race: the
// byte offsets never collide across distinct work-items.
func excusedPair(x, y *access, reg *exprtree.Registry, wg [3]int) bool {
	if x.aff == nil || y.aff == nil {
		return false
	}
	if provablyDisjoint(x.aff, y.aff, reg, wg) {
		return true
	}
	// Identical, identity-stable, injective offsets: the two dynamic
	// accesses hit the same cell only when executed by the same
	// work-item, which orders them by program order.
	if !x.aff.Equal(y.aff) {
		return false
	}
	for _, key := range x.aff.Terms() {
		if !intervals.StableTerm(reg, key) {
			return false
		}
	}
	return injectiveInWorkItem(x.aff, wg)
}

// injectiveInWorkItem reports whether the byte offset maps distinct
// work-items of one group to distinct addresses. A single varying
// dimension with a nonzero coefficient is injective outright; several
// dimensions are injective when the coefficients form a positional
// system over the extents (each coefficient exceeds the total span of
// all smaller ones). Dimensions the offset ignores must have extent 1 —
// two work-items differing only there would collide; unknown extents of
// ignored dimensions are assumed 1 (a 1D launch), a documented
// imprecision when extents are not supplied.
func injectiveInWorkItem(aff *linsolve.Affine, wg [3]int) bool {
	c, ok := exprtree.WorkItemCoeffs(aff)
	if !ok {
		return false
	}
	type dim struct{ coeff, span int64 }
	var varying []dim
	for d := 0; d < 3; d++ {
		l := intervals.Extent(wg, d)
		if c[d] == 0 {
			if l > 1 {
				return false
			}
			continue
		}
		if l == 1 {
			continue // dimension cannot vary
		}
		varying = append(varying, dim{coeff: abs64(c[d]), span: l - 1})
	}
	if len(varying) <= 1 {
		return true
	}
	for _, v := range varying {
		if v.span < 0 { // unknown extent on a varying dimension
			return false
		}
	}
	// Sort ascending by coefficient; require a positional chain.
	for i := 1; i < len(varying); i++ {
		for j := i; j > 0 && varying[j].coeff < varying[j-1].coeff; j-- {
			varying[j], varying[j-1] = varying[j-1], varying[j]
		}
	}
	span := int64(0)
	for _, v := range varying {
		if v.coeff <= span {
			return false
		}
		span += v.coeff * v.span
	}
	return true
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

// provablyDisjoint proves that offsets ax (by work-item l) and ay (by
// work-item l') never coincide, by showing the linear Diophantine system
// Σ cx_d·l_d − Σ cy_d·l'_d = Ky − Kx has no solution inside the
// work-group box. All non-work-item terms must cancel between the two
// offsets AND be identity-stable — an unstable term (a loop counter) has
// different values at the two dynamic accesses, so equal coefficients do
// not cancel. Every varying dimension needs a known extent.
func provablyDisjoint(ax, ay *linsolve.Affine, reg *exprtree.Registry, wg [3]int) bool {
	diffConst := new(big.Rat).Sub(ay.Const, ax.Const)
	target, ok := intervals.RatInt64(diffConst)
	if !ok {
		return false
	}
	for _, key := range append(append([]string{}, ax.Terms()...), ay.Terms()...) {
		if isWorkItemDimKey(key) {
			continue
		}
		if !intervals.StableTerm(reg, key) {
			return false
		}
		if new(big.Rat).Sub(ax.Coeff(key), ay.Coeff(key)).Sign() != 0 {
			return false
		}
	}
	cx, okx := exprtree.WorkItemCoeffs(ax)
	cy, oky := exprtree.WorkItemCoeffs(ay)
	if !okx || !oky {
		return false
	}
	var vars []varRange
	for d := 0; d < 3; d++ {
		l := intervals.Extent(wg, d)
		for _, coeff := range [2]int64{cx[d], -cy[d]} {
			if coeff == 0 {
				continue
			}
			if l <= 0 {
				return false // varying dimension with unknown extent
			}
			vars = append(vars, varRange{coeff: coeff, lo: 0, hi: l - 1})
		}
	}
	has, proven := solveLinear(vars, target)
	return proven && !has
}

// varRange is one bounded integer variable of a linear equation.
type varRange struct {
	coeff  int64
	lo, hi int64
}

// solveLinear decides whether Σ coeff_i·v_i = target has an integer
// solution with each v_i in [lo_i, hi_i]. It enumerates candidate values
// level by level, pruning with the exact reachable range of the
// remaining variables; when the enumeration budget is exhausted it
// returns proven=false (the caller must then assume feasibility).
func solveLinear(vars []varRange, target int64) (hasSolution, proven bool) {
	// Sort descending by |coeff| so pruning bites early.
	sorted := append([]varRange{}, vars...)
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && abs64(sorted[j].coeff) > abs64(sorted[j-1].coeff); j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	// minReach/maxReach of the suffix starting at i.
	n := len(sorted)
	minReach := make([]int64, n+1)
	maxReach := make([]int64, n+1)
	for i := n - 1; i >= 0; i-- {
		a := sorted[i].coeff * sorted[i].lo
		b := sorted[i].coeff * sorted[i].hi
		if a > b {
			a, b = b, a
		}
		minReach[i] = minReach[i+1] + a
		maxReach[i] = maxReach[i+1] + b
	}
	budget := 1 << 14
	var rec func(i int, rem int64) bool
	rec = func(i int, rem int64) bool {
		if budget <= 0 {
			return false
		}
		budget--
		if i == n {
			return rem == 0
		}
		v := sorted[i]
		for val := v.lo; val <= v.hi; val++ {
			r := rem - v.coeff*val
			if r < minReach[i+1] || r > maxReach[i+1] {
				continue
			}
			if rec(i+1, r) {
				return true
			}
		}
		return false
	}
	if target < minReach[0] || target > maxReach[0] {
		return false, true
	}
	has := rec(0, target)
	return has, budget > 0 || has
}

// checkBroadcastStores flags stores whose address provably collides
// across work-items while the stored value is divergent: the colliding
// work-items write different data to the same cell with no ordering.
// Uniform-value collisions (a broadcast) are benign and skipped, as is
// everything when the work-group extents are unknown.
func checkBroadcastStores(cfg *ir.CFG, uni *Uniformity, buf *localBuffer, reg *exprtree.Registry, wg [3]int) []Finding {
	if wg[0] <= 0 && wg[1] <= 0 && wg[2] <= 0 {
		return nil
	}
	var out []Finding
	for _, a := range buf.accesses {
		if !a.store || a.aff == nil {
			continue
		}
		if !uni.Divergent(a.instr.Args[1]) {
			continue
		}
		opaque := false
		for _, key := range a.aff.Terms() {
			if !isWorkItemDimKey(key) && intervals.StableTerm(reg, key) {
				continue // uniform offset component, same for all colliders
			}
			if !isWorkItemDimKey(key) {
				opaque = true
			}
		}
		if opaque {
			continue
		}
		if d, ok := provenCollision(a.aff, wg); ok {
			out = append(out, Finding{
				Detector: DetectorLocalRace,
				Severity: SeverityError,
				Kernel:   cfg.Fn.Name,
				Pos:      a.instr.Pos,
				Message: fmt.Sprintf("store to __local %s writes divergent values to the same element "+
					"from different work-items (index does not depend injectively on the work-item id; "+
					"work-items differing in dimension %d collide)", buf.alloca.VarName, d),
			})
		}
	}
	return out
}

// provenCollision exhibits two distinct work-items mapped to the same
// byte offset, returning a dimension along which they differ.
func provenCollision(aff *linsolve.Affine, wg [3]int) (int, bool) {
	c, ok := exprtree.WorkItemCoeffs(aff)
	if !ok {
		return 0, false
	}
	// A dimension the index ignores collides immediately.
	for d := 0; d < 3; d++ {
		if c[d] == 0 && intervals.Extent(wg, d) > 1 {
			return d, true
		}
	}
	// Two dimensions whose coefficients satisfy k·|c_d| == |c_e| within
	// the extents collide: move k steps along d, one step back along e.
	for d := 0; d < 3; d++ {
		for e := 0; e < 3; e++ {
			if d == e || c[d] == 0 || c[e] == 0 {
				continue
			}
			ld, le := intervals.Extent(wg, d), intervals.Extent(wg, e)
			if ld <= 1 || le <= 1 {
				continue
			}
			for k := int64(1); k < ld; k++ {
				if k*abs64(c[d]) == abs64(c[e]) {
					return d, true
				}
			}
		}
	}
	return 0, false
}
