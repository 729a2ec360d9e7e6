package rewrite

import (
	"fmt"
	"math/big"
	"strings"

	"grover/internal/analysis"
	"grover/internal/clc"
	"grover/internal/exprtree"
	"grover/internal/ir"
	"grover/internal/linsolve"
)

// The stage-local rule is the inverse of the Grover pass: it finds global
// loads inside a loop whose index is lid₀ + a uniform, loop-invariant
// affine form, and introduces the classic staging idiom — a __local tile,
// a per-work-item copy-in in the loop preheader, and a local barrier — so
// the in-loop accesses hit the scratch pad instead of re-reading global
// memory every iteration (LICM never hoists global loads past possible
// stores, so the base version really does re-load). On devices whose
// scratch-pad latency beats L2 (the paper's GPUs) this wins; on CPUs the
// Grover direction wins, which is exactly the trade-off autotune plans
// explore.
//
// Options:
//
//	ls=N   (required) the launch's dim-0 work-group size; sizes the tile
//	       and parameterizes the post-transform safety analysis
//
// The rule restricts itself to 1D staging: the lid₀ coefficient must be
// exactly one and lid₁/lid₂ must not appear, so each work-item stages and
// reads its own tile slot — injective by construction, which the
// race/bounds detectors re-prove after the transform (an error-severity
// finding rejects the plan). Known caveat: the copy-in executes even when
// the loop would run zero iterations, so staging speculates the global
// load into the preheader.
func init() {
	Register(&Rule{
		Name:    "stage-local",
		Doc:     "stage reused global loads into a __local tile with barriers (inverse Grover)",
		Options: []string{"ls"},
		Apply:   applyStageLocal,
	})
}

// stageCand is one in-loop global load eligible for staging.
type stageCand struct {
	load *ir.Instr
	l    *ir.Loop
	base ir.Value
	aff  *linsolve.Affine
}

func applyStageLocal(m *ir.Module, kernel string, opts map[string]string) (*StepResult, error) {
	s := Step{Rule: "stage-local", Opts: opts}
	ls := s.IntOpt("ls", 0)
	if ls <= 0 {
		return nil, fmt.Errorf("stage-local: option ls=<work-group dim-0 size> is required and must be positive")
	}
	fn := m.Kernel(kernel)
	cfg := ir.NewCFG(fn)
	loops := preheaderLoops(cfg)
	if len(loops) == 0 {
		return &StepResult{Detail: "no loops with preheaders"}, nil
	}
	uni := analysis.ComputeUniformity(cfg, analysis.ComputeReachingDefs(cfg))
	tb := exprtree.NewBuilder(fn)
	reg := exprtree.NewRegistry()

	var cands []stageCand
	staged := map[*ir.Instr]bool{}
	for _, l := range loops {
		if uni.DivergentBlock(l.Preheader) {
			continue // a staging barrier here would be divergent
		}
		for _, b := range l.Body {
			for _, in := range b.Instrs {
				if in.Op != ir.OpLoad || staged[in] {
					continue
				}
				if ir.PointerSpace(in.Args[0].Type()) != clc.ASGlobal {
					continue
				}
				c, ok := stageable(in, l, cfg, uni, tb, reg)
				if !ok {
					continue
				}
				staged[in] = true
				cands = append(cands, c)
			}
		}
	}
	if len(cands) == 0 {
		return &StepResult{Detail: "no stageable global loads"}, nil
	}

	// One tile per distinct (loop, base, index form, element type): loads
	// of the same element share the staged copy.
	type groupKey struct {
		l    *ir.Loop
		base ir.Value
		aff  string
		typ  string
	}
	groups := map[groupKey][]stageCand{}
	var order []groupKey
	for _, c := range cands {
		k := groupKey{c.l, c.base, affineKey(c.aff), c.load.Typ.String()}
		if _, seen := groups[k]; !seen {
			order = append(order, k)
		}
		groups[k] = append(groups[k], c)
	}

	entry := fn.Blocks[0]
	tiles := 0
	for _, k := range order {
		g := groups[k]
		c := g[0]
		elem := c.load.Typ
		pos := c.load.Pos
		tile := ir.InsertBefore(entry.Instrs[0], &ir.Instr{
			Op:      ir.OpAlloca,
			Typ:     &clc.PointerType{Elem: &clc.ArrayType{Elem: elem, Len: ls}, Space: clc.ASLocal},
			Space:   clc.ASLocal,
			VarName: fmt.Sprintf("__stage%d", tiles),
			Pos:     pos,
		})
		tiles++

		// Preheader: gl = base[affine]; tile[lid0] = gl; barrier(LOCAL).
		// The only in-loop terms stageable admits are loads of variables
		// the loop never writes, so re-loading them in the preheader
		// observes the same value.
		em := exprtree.NewMaterializer(c.l.Preheader.Terminator(), reg, func(rep *ir.Instr) bool {
			return rep.Block != nil && c.l.Blocks[rep.Block]
		})
		idx, err := em.Affine(c.aff)
		if err != nil {
			return nil, fmt.Errorf("stage-local: %w", err)
		}
		gptr := em.Insert(&ir.Instr{Op: ir.OpIndex, Typ: ir.IndexResultType(c.base.Type()),
			Args: []ir.Value{c.base, idx}, Pos: pos})
		gl := em.Insert(&ir.Instr{Op: ir.OpLoad, Typ: elem, Args: []ir.Value{gptr}, Pos: pos})
		lid := em.Insert(&ir.Instr{Op: ir.OpWorkItem, Typ: clc.TypeULong, Func: "get_local_id",
			Args: []ir.Value{ir.IntConst(0)}, Pos: pos})
		lptr := em.Insert(&ir.Instr{Op: ir.OpIndex, Typ: ir.IndexResultType(tile.Typ),
			Args: []ir.Value{tile, lid}, Pos: pos})
		em.Insert(&ir.Instr{Op: ir.OpStore, Typ: clc.TypeVoid, Args: []ir.Value{lptr, gl}, Pos: pos})
		em.Insert(&ir.Instr{Op: ir.OpBarrier, Typ: clc.TypeVoid, Args: []ir.Value{ir.IntConst(1)}, Pos: pos})

		// Each load site becomes tile[lid0]; the dead address chain of the
		// old load is left for the trailing opt step's DCE.
		for _, c := range g {
			old := c.load
			lid2 := ir.InsertBefore(old, &ir.Instr{Op: ir.OpWorkItem, Typ: clc.TypeULong,
				Func: "get_local_id", Args: []ir.Value{ir.IntConst(0)}, Pos: old.Pos})
			lp := ir.InsertBefore(old, &ir.Instr{Op: ir.OpIndex, Typ: ir.IndexResultType(tile.Typ),
				Args: []ir.Value{tile, lid2}, Pos: old.Pos})
			nl := ir.InsertBefore(old, &ir.Instr{Op: ir.OpLoad, Typ: elem,
				Args: []ir.Value{lp}, Pos: old.Pos})
			ir.ReplaceUses(fn, old, nl)
			ir.RemoveInstr(old)
		}
	}
	fn.AssignIDs()

	// Legality is proven by the existing detectors, not asserted: rerun the
	// race/bounds/divergence analysis over the staged kernel at the plan's
	// work-group size and reject the plan on any error-severity finding.
	res := analysis.AnalyzeKernel(fn, analysis.Options{WorkGroupSize: [3]int{ls, 1, 1}})
	if res.MaxSeverity() == analysis.SeverityError {
		var msgs []string
		for _, f := range res.Findings {
			if f.Severity == analysis.SeverityError {
				msgs = append(msgs, f.Message)
			}
		}
		return nil, fmt.Errorf("stage-local: staged kernel fails safety analysis: %s", strings.Join(msgs, "; "))
	}
	return &StepResult{
		Changed: true,
		Detail:  fmt.Sprintf("%d global loads staged into %d local tiles (ls=%d)", len(staged), tiles, ls),
	}, nil
}

// stageable decides whether the in-loop global load can be staged, and if
// so returns its base pointer and combined element-index affine form.
func stageable(load *ir.Instr, l *ir.Loop, cfg *ir.CFG, uni *analysis.Uniformity,
	tb *exprtree.Builder, reg *exprtree.Registry) (stageCand, bool) {
	none := stageCand{}
	// The load must execute every iteration: its block has to dominate
	// every latch (in-loop predecessor of the header). This keeps the
	// preheader copy-in from speculating loads the loop body would guard.
	for _, p := range cfg.Pred[cfg.Index[l.Header]] {
		if latch := cfg.Blocks[p]; l.Blocks[latch] && !cfg.Dominates(load.Block, latch) {
			return none, false
		}
	}
	elemSize := load.Typ.Size()
	if elemSize == 0 {
		return none, false
	}
	// Flatten the Index chain into one element-unit affine form. Every
	// level must step by the loaded element size, so the sum of indices is
	// the element offset from the base pointer.
	total := linsolve.NewAffine()
	cur := load.Args[0]
	levels := 0
	for {
		in, ok := cur.(*ir.Instr)
		if !ok || in.Op != ir.OpIndex {
			break
		}
		if ir.PointeeSize(in.Args[0].Type()) != elemSize {
			return none, false
		}
		aff, err := tb.Affine(in.Args[1], reg)
		if err != nil {
			return none, false
		}
		total.Add(aff)
		cur = in.Args[0]
		levels++
	}
	if levels == 0 {
		return none, false
	}
	base := cur
	if !availableAt(base, l.Preheader, l, cfg) {
		return none, false
	}
	// Exactly lid₀ + uniform loop-invariant terms.
	if total.Coeff(exprtree.LocalIDKey(0)).Cmp(big.NewRat(1, 1)) != 0 {
		return none, false
	}
	if !total.Const.IsInt() {
		return none, false
	}
	for _, key := range total.Terms() {
		if key == exprtree.LocalIDKey(0) {
			continue
		}
		if !total.Coeff(key).IsInt() {
			return none, false
		}
		t := reg.Term(key)
		if t == nil || t.WorkItemFn == "get_local_id" {
			return none, false
		}
		if uni.Divergent(t.Rep) {
			return none, false
		}
		if t.WorkItemFn != "" {
			continue // uniform query, re-emitted fresh in the preheader
		}
		rep, ok := t.Rep.(*ir.Instr)
		if !ok {
			continue // parameters are always available
		}
		if rep.Block != nil && l.Blocks[rep.Block] {
			// In-loop value: only loads of variables the loop never writes
			// can be recomputed at the preheader.
			src, ok := rep.Args[0].(*ir.Instr)
			if rep.Op != ir.OpLoad || !ok || src.Op != ir.OpAlloca || allocaStoredIn(src, l) {
				return none, false
			}
			continue
		}
		if !availableAt(rep, l.Preheader, l, cfg) {
			return none, false
		}
	}
	return stageCand{load: load, l: l, base: base, aff: total}, true
}

// allocaStoredIn reports whether any block of the loop stores to the
// alloca, directly or through an Index chain rooted at it.
func allocaStoredIn(alloca *ir.Instr, l *ir.Loop) bool {
	for _, b := range l.Body {
		for _, in := range b.Instrs {
			if in.Op == ir.OpStore && ir.RootOf(in.Args[0]) == alloca {
				return true
			}
		}
	}
	return false
}

// affineKey renders the affine form canonically for grouping.
func affineKey(a *linsolve.Affine) string {
	var sb strings.Builder
	for _, k := range a.Terms() {
		fmt.Fprintf(&sb, "%s*%s+", a.Coeff(k).RatString(), k)
	}
	sb.WriteString(a.Const.RatString())
	return sb.String()
}
