// Package grover implements the paper's core contribution: the compiler
// pass that disables local-memory usage in OpenCL kernels. It detects the
// software-cache staging pattern (global load GL → local store LS →
// barrier → local load LL), derives the local↔global index correspondence
// by solving an exact linear system (paper §III-B), duplicates the global
// load's instruction tree in front of every local load (Algorithm 1), and
// removes the now-dead stores, allocations and barriers.
package grover

import (
	"fmt"

	"grover/internal/clc"
	"grover/internal/ir"
)

// Access is one local-memory access (an LS store or LL load) on a
// candidate data structure.
type Access struct {
	// Instr is the load or store instruction.
	Instr *ir.Instr
	// IndexChain are the OpIndex instructions from the alloca (outermost
	// first) forming the access path.
	IndexChain []*ir.Instr
}

// RejectCode is a machine-readable reason a candidate was not rewritable.
// Every bail-out path of the matcher and the correspondence analysis maps
// to exactly one code, so callers (the legality detector, tuning
// reports, the lint endpoint) can report *why* the pass did not fire instead
// of silently skipping.
type RejectCode string

// Reject codes. The empty code means the candidate is rewritable.
const (
	RejectNone RejectCode = ""

	// Matcher-stage rejections (FindCandidates).
	RejectEscapeIndexOperand RejectCode = "escape-index-operand"
	RejectEscapeStored       RejectCode = "escape-stored"
	RejectEscapeCall         RejectCode = "escape-call"
	RejectUnsupportedUse     RejectCode = "unsupported-use"
	RejectNoStores           RejectCode = "no-stores"
	RejectNoLoads            RejectCode = "no-loads"

	// Analysis-stage rejections (analyzeCandidate).
	RejectTemporalStorage  RejectCode = "temporal-storage"
	RejectNonAffineIndex   RejectCode = "non-affine-index"
	RejectUnderdetermined  RejectCode = "underdetermined-system"
	RejectNonSquareSystem  RejectCode = "non-square-system"
	RejectGLUndetermined   RejectCode = "gl-local-id-undetermined"
	RejectDimMismatch      RejectCode = "dimension-mismatch"
	RejectNonIntegral      RejectCode = "non-integral-solution"
	RejectNoCorrespondence RejectCode = "no-correspondence"

	// RejectNotSelected marks candidates excluded by Options.Candidates.
	RejectNotSelected RejectCode = "not-selected"
)

// Candidate is one __local data structure eligible for reversal.
type Candidate struct {
	// Alloca is the local array's allocation.
	Alloca *ir.Instr
	// Name is the source variable name.
	Name string
	// Strides are the byte strides of each array dimension, outermost
	// first; the last entry is the element size.
	Strides []int64
	// Extents are the dimension lengths matching Strides.
	Extents []int
	// ElemType is the array element type.
	ElemType clc.Type
	// Stores are the LS operations, Loads the LL operations.
	Stores []*Access
	Loads  []*Access
	// Reject, when non-empty, is the reason code for why the candidate
	// cannot be analyzed (uses escape, no staging stores, ...);
	// RejectDetail carries the human-readable specifics.
	Reject       RejectCode
	RejectDetail string
}

// reject records a bail-out reason on the candidate.
func (c *Candidate) reject(code RejectCode, format string, args ...interface{}) *Candidate {
	c.Reject = code
	c.RejectDetail = fmt.Sprintf(format, args...)
	return c
}

// FindCandidates scans a kernel for __local data structures and collects
// their access sets. Candidates whose pointers escape (address passed to a
// call, stored, or otherwise not a plain index/load/store chain) are
// returned with Reject set.
func FindCandidates(fn *ir.Function) []*Candidate {
	var out []*Candidate
	for _, blk := range fn.Blocks {
		for _, in := range blk.Instrs {
			if in.Op == ir.OpAlloca && in.Space == clc.ASLocal {
				out = append(out, buildCandidate(fn, in))
			}
		}
	}
	return out
}

// arrayLayout derives strides and extents from the allocated type.
func arrayLayout(t clc.Type) (strides []int64, extents []int, elem clc.Type) {
	for {
		at, ok := t.(*clc.ArrayType)
		if !ok {
			break
		}
		extents = append(extents, at.Len)
		t = at.Elem
	}
	elem = t
	strides = make([]int64, len(extents))
	if len(extents) == 0 {
		// __local scalar: a single element.
		extents = []int{1}
		strides = []int64{int64(elem.Size())}
		return strides, extents, elem
	}
	s := int64(elem.Size())
	for i := len(extents) - 1; i >= 0; i-- {
		strides[i] = s
		s *= int64(extents[i])
	}
	return strides, extents, elem
}

func buildCandidate(fn *ir.Function, alloca *ir.Instr) *Candidate {
	pt := alloca.Typ.(*clc.PointerType)
	strides, extents, elem := arrayLayout(pt.Elem)
	c := &Candidate{
		Alloca:   alloca,
		Name:     alloca.VarName,
		Strides:  strides,
		Extents:  extents,
		ElemType: elem,
	}
	// Walk all uses transitively: alloca → (index | convert)* → load/store.
	type workItem struct {
		val   ir.Value
		chain []*ir.Instr
	}
	queue := []workItem{{val: alloca}}
	seen := map[*ir.Instr]bool{}
	for len(queue) > 0 {
		w := queue[0]
		queue = queue[1:]
		for _, blk := range fn.Blocks {
			for _, in := range blk.Instrs {
				uses := false
				for _, a := range in.Args {
					if a == w.val {
						uses = true
						break
					}
				}
				if !uses || seen[in] {
					continue
				}
				switch in.Op {
				case ir.OpIndex:
					if in.Args[0] != w.val {
						return c.reject(RejectEscapeIndexOperand, "local pointer used as an index operand")
					}
					seen[in] = true
					chain := append(append([]*ir.Instr{}, w.chain...), in)
					queue = append(queue, workItem{val: in, chain: chain})
				case ir.OpConvert:
					seen[in] = true
					queue = append(queue, workItem{val: in, chain: w.chain})
				case ir.OpLoad:
					c.Loads = append(c.Loads, &Access{Instr: in, IndexChain: w.chain})
				case ir.OpStore:
					if in.Args[1] == w.val {
						return c.reject(RejectEscapeStored, "local pointer value is stored to memory (escapes)")
					}
					c.Stores = append(c.Stores, &Access{Instr: in, IndexChain: w.chain})
				case ir.OpCall:
					return c.reject(RejectEscapeCall, "local pointer passed to function %s", in.Callee.Name)
				default:
					return c.reject(RejectUnsupportedUse, "local pointer used by unsupported op %s", in.Op)
				}
			}
		}
	}
	if len(c.Stores) == 0 {
		return c.reject(RejectNoStores, "no stores to local data structure")
	}
	if len(c.Loads) == 0 {
		return c.reject(RejectNoLoads, "no loads from local data structure")
	}
	return c
}
