package analysis

import (
	"fmt"

	"grover/internal/analysis/intervals"
	"grover/internal/exprtree"
	"grover/internal/ir"
)

// The interval machinery (range arithmetic, work-item term seeding,
// affine evaluation, branch-comparison constraints) lives in the shared
// internal/analysis/intervals package so the memaccess summary pass can
// reuse it; the aliases below keep the detector code reading naturally.
type interval = intervals.Interval

// checkBounds verifies every local-buffer access's byte offset against
// the allocation: offset ∈ [0, size − accessBytes]. Intervals are seeded
// from the work-group extents and refined by comparisons on dominating
// branches (so a store guarded by `if (lx < N)` is analyzed with lx < N).
// Only finite violations are reported: an access whose range is
// unbounded because it depends on a loop counter or parameter stays
// silent rather than drowning real findings in noise.
func checkBounds(cfg *ir.CFG, bufs []*localBuffer, tb *exprtree.Builder, reg *exprtree.Registry, wg [3]int) []Finding {
	var out []Finding
	guardCache := map[int]map[string]interval{}
	for _, buf := range bufs {
		size := int64(bufferSize(buf.alloca))
		if size <= 0 {
			continue
		}
		for _, a := range buf.accesses {
			if a.aff == nil {
				continue
			}
			bi, ok := cfg.Index[a.instr.Block]
			if !ok {
				continue
			}
			guards, cached := guardCache[bi]
			if !cached {
				guards = guardBounds(cfg, bi, tb, reg)
				guardCache[bi] = guards
			}
			iv, ok := intervals.EvalAffine(a.aff, reg, wg, guards)
			if !ok {
				continue
			}
			limit := size - int64(a.accessSize())
			out = append(out, boundsFindings(cfg.Fn.Name, buf.alloca.VarName, a, iv, size, limit)...)
		}
	}
	return out
}

func boundsFindings(kernel, name string, a *access, iv interval, size, limit int64) []Finding {
	kind := "load from"
	if a.store {
		kind = "store to"
	}
	mk := func(sev Severity, msg string) Finding {
		return Finding{
			Detector: DetectorLocalBounds,
			Severity: sev,
			Kernel:   kernel,
			Pos:      a.instr.Pos,
			Message: fmt.Sprintf("%s __local %s %s: byte offset range %s vs allocation of %d bytes",
				kind, name, msg, iv, size),
		}
	}
	var out []Finding
	switch {
	case !iv.LoInf && iv.Lo > limit:
		out = append(out, mk(SeverityError, "is always out of bounds"))
	case !iv.HiInf && iv.Hi > limit:
		out = append(out, mk(SeverityWarning, "may run past the end of the buffer"))
	}
	switch {
	case !iv.HiInf && iv.Hi < 0:
		out = append(out, mk(SeverityError, "is always before the start of the buffer"))
	case !iv.LoInf && iv.Lo < 0:
		out = append(out, mk(SeverityWarning, "may precede the start of the buffer"))
	}
	return out
}

// guardBounds collects interval constraints on identity-stable terms
// from the comparisons of the conditional branches guarding block bi
// (ir.CFG.Guards).
func guardBounds(cfg *ir.CFG, bi int, tb *exprtree.Builder, reg *exprtree.Registry) map[string]interval {
	out := map[string]interval{}
	cfg.Guards(bi, func(_ *ir.Block, cond *ir.Instr, negated bool) {
		key, iv, ok := intervals.ConstraintFromCond(cond, negated, tb, reg)
		if !ok || !intervals.StableTerm(reg, key) {
			return
		}
		cur, has := out[key]
		if !has {
			cur = intervals.Top()
		}
		out[key] = cur.Refine(iv)
	})
	return out
}
