// Package exprtree implements Grover's index expression trees (paper
// Fig. 6): a tree view over IR use-def chains whose leaves are the values
// the analysis treats as symbols — work-item queries, constants, function
// arguments, and variables the tree cannot see through (the role phi nodes
// play in the paper's LLVM setting; here, loads of multi-store allocas).
//
// The package also extracts exact affine forms from trees (the engine
// behind the paper's Equation 2), renders trees symbolically for the
// Table III style reports, and holds the access facts every consumer of
// them shares: a value's affine form, an index chain's byte offset, the
// per-work-item coefficients of an offset, and the materializer that
// emits an affine form back as IR.
package exprtree

import (
	"fmt"
	"math/big"

	"grover/internal/clc"
	"grover/internal/ir"
	"grover/internal/linsolve"
)

// Node is one expression-tree node. Value holds the IR value; State marks
// nodes that must be rewritten when the new global load is materialized
// (paper: "whether the current node needs to update the data index").
type Node struct {
	Value    ir.Value
	State    bool
	Children []*Node
	Parent   *Node
}

// Instr returns the node's value as an instruction, or nil.
func (n *Node) Instr() *ir.Instr {
	in, _ := n.Value.(*ir.Instr)
	return in
}

// IsLeaf reports whether the node has no children.
func (n *Node) IsLeaf() bool { return len(n.Children) == 0 }

// Walk applies f to every node in prefix order.
func (n *Node) Walk(f func(*Node)) {
	f(n)
	for _, c := range n.Children {
		c.Walk(f)
	}
}

// CountNodes returns the number of nodes in the tree.
func (n *Node) CountNodes() int {
	total := 0
	n.Walk(func(*Node) { total++ })
	return total
}

// Builder constructs expression trees over one function, caching the
// store-count analysis used for alloca forwarding.
type Builder struct {
	Fn *ir.Function
	// stores maps each alloca to the store instructions targeting it
	// directly (not through an index chain).
	stores map[*ir.Instr][]*ir.Instr
}

// NewBuilder analyzes fn and returns a tree builder.
func NewBuilder(fn *ir.Function) *Builder {
	b := &Builder{Fn: fn, stores: map[*ir.Instr][]*ir.Instr{}}
	for _, blk := range fn.Blocks {
		for _, in := range blk.Instrs {
			if in.Op != ir.OpStore {
				continue
			}
			if tgt, ok := in.Args[0].(*ir.Instr); ok && tgt.Op == ir.OpAlloca {
				b.stores[tgt] = append(b.stores[tgt], in)
			}
		}
	}
	return b
}

// SingleStore returns the unique store to the alloca, or nil when the
// alloca is stored zero or multiple times.
func (b *Builder) SingleStore(alloca *ir.Instr) *ir.Instr {
	ss := b.stores[alloca]
	if len(ss) == 1 {
		return ss[0]
	}
	return nil
}

// Stores returns every direct store to the alloca, in block order (the
// order NewBuilder collected them).
func (b *Builder) Stores(alloca *ir.Instr) []*ir.Instr { return b.stores[alloca] }

const maxTreeDepth = 512

// Build constructs the expression tree rooted at v. Loads of single-store
// private allocas are forwarded to the stored value; loads of multi-store
// allocas become leaves (the paper's phi-node stopping rule).
func (b *Builder) Build(v ir.Value) (*Node, error) {
	return b.build(v, 0)
}

func (b *Builder) build(v ir.Value, depth int) (*Node, error) {
	if depth > maxTreeDepth {
		return nil, fmt.Errorf("exprtree: expression too deep (cyclic use-def chain?)")
	}
	n := &Node{Value: v}
	in, ok := v.(*ir.Instr)
	if !ok {
		return n, nil // constants and parameters are leaves
	}
	switch in.Op {
	case ir.OpWorkItem, ir.OpCall, ir.OpAlloca:
		return n, nil // leaves per the paper's stopping rule

	case ir.OpLoad:
		ptr := in.Args[0]
		if src, ok := ptr.(*ir.Instr); ok && src.Op == ir.OpAlloca && src.Space == clc.ASPrivate {
			if st := b.SingleStore(src); st != nil {
				// Forward through the unique store: the tree of the loaded
				// variable is the tree of its defining expression.
				return b.build(st.Args[1], depth+1)
			}
			return n, nil // multi-store variable: leaf
		}
		// Loads through computed pointers (global/local/private array
		// element): internal node over the pointer expression.
		child, err := b.build(ptr, depth+1)
		if err != nil {
			return nil, err
		}
		child.Parent = n
		n.Children = []*Node{child}
		return n, nil

	case ir.OpMath:
		// Math builtins are call-like leaves (paper: call instruction).
		return n, nil

	default:
		for _, a := range in.Args {
			child, err := b.build(a, depth+1)
			if err != nil {
				return nil, err
			}
			child.Parent = n
			n.Children = append(n.Children, child)
		}
		return n, nil
	}
}

// ContainsWorkItem reports whether the subtree contains a work-item query
// with the given function name (e.g. "get_local_id"). An empty name
// matches any work-item query.
func ContainsWorkItem(n *Node, fn string) bool {
	found := false
	n.Walk(func(c *Node) {
		if in := c.Instr(); in != nil && in.Op == ir.OpWorkItem {
			if fn == "" || in.Func == fn {
				found = true
			}
		}
	})
	return found
}

// MarkState sets State on every node whose subtree satisfies pred,
// returning whether the root was marked. This implements the paper's
// marking step: nodes on paths to local-id leaves must be duplicated, all
// others may be reused.
func MarkState(n *Node, pred func(*Node) bool) bool {
	any := pred(n)
	for _, c := range n.Children {
		if MarkState(c, pred) {
			any = true
		}
	}
	n.State = any
	return any
}

// ------------------------------------------------------------ terms

// Term is a canonical symbolic leaf.
type Term struct {
	Key  string
	Name string
	// Rep is a representative IR value computing the term.
	Rep ir.Value
	// WorkItemFn and Dim are set for work-item query terms.
	WorkItemFn string
	Dim        int
}

// Registry assigns stable keys and display names to terms across multiple
// extractions (LS, LL and GL trees of one candidate share a registry).
type Registry struct {
	byKey map[string]*Term
	byVal map[ir.Value]string
	next  int
}

// NewRegistry returns an empty term registry.
func NewRegistry() *Registry {
	return &Registry{byKey: map[string]*Term{}, byVal: map[ir.Value]string{}}
}

// Term returns the registered term for key, or nil.
func (r *Registry) Term(key string) *Term { return r.byKey[key] }

// KeyOf returns the term key registered for identity v (e.g. a mutable
// variable's alloca, which every load of the variable maps to), if any.
func (r *Registry) KeyOf(v ir.Value) (string, bool) {
	key, ok := r.byVal[v]
	return key, ok
}

// Terms returns all registered terms.
func (r *Registry) Terms() map[string]*Term { return r.byKey }

var wiNames = map[string][3]string{
	"get_local_id":    {"lx", "ly", "lz"},
	"get_group_id":    {"wx", "wy", "wz"},
	"get_global_id":   {"gx", "gy", "gz"},
	"get_local_size":  {"ls0", "ls1", "ls2"},
	"get_global_size": {"gs0", "gs1", "gs2"},
	"get_num_groups":  {"ng0", "ng1", "ng2"},
}

// WorkItemKey returns the canonical key for a work-item query term.
func WorkItemKey(fn string, dim int) string { return fmt.Sprintf("@%s.%d", fn, dim) }

// LocalIDKey returns the canonical key of get_local_id(dim).
func LocalIDKey(dim int) string { return WorkItemKey("get_local_id", dim) }

func (r *Registry) registerWorkItem(in *ir.Instr, dim int) string {
	key := WorkItemKey(in.Func, dim)
	if t := r.byKey[key]; t != nil {
		return key
	}
	name := fmt.Sprintf("%s(%d)", in.Func, dim)
	if ns, ok := wiNames[in.Func]; ok && dim >= 0 && dim < 3 {
		name = ns[dim]
	}
	r.byKey[key] = &Term{Key: key, Name: name, Rep: in, WorkItemFn: in.Func, Dim: dim}
	return key
}

// registerOpaque registers a non-work-item leaf keyed by identity.
func (r *Registry) registerOpaque(v ir.Value, name string) string {
	return r.registerOpaqueKeyed(v, v, name)
}

// registerOpaqueKeyed registers a term whose identity is given by identity
// (e.g. the alloca of a variable, so every load of that variable maps to
// one term) while rep is a value computing it (e.g. one of the loads).
func (r *Registry) registerOpaqueKeyed(identity, rep ir.Value, name string) string {
	if key, ok := r.byVal[identity]; ok {
		return key
	}
	key := fmt.Sprintf("$%d", r.next)
	r.next++
	if name == "" {
		name = key
	}
	// Disambiguate duplicate display names.
	for _, t := range r.byKey {
		if t.Name == name {
			name = fmt.Sprintf("%s#%d", name, r.next)
			break
		}
	}
	r.byVal[identity] = key
	r.byKey[key] = &Term{Key: key, Name: name, Rep: rep}
	return key
}

// ErrNonAffine is returned when an index expression is not an affine
// function of the analyzable terms with constant coefficients — the case
// where Grover gives up on a candidate.
type ErrNonAffine struct{ Reason string }

func (e *ErrNonAffine) Error() string { return "exprtree: non-affine index: " + e.Reason }

// ExtractAffine converts the tree into an affine form over registered
// terms. Subtrees that are not affine are folded into opaque terms when
// they do not involve get_local_id; otherwise extraction fails, because a
// non-linear use of the local thread index cannot be inverted by Grover's
// linear-system method.
func ExtractAffine(n *Node, reg *Registry) (*linsolve.Affine, error) {
	switch v := n.Value.(type) {
	case *ir.ConstInt:
		return linsolve.ConstAffine(big.NewRat(v.Val, 1)), nil
	case *ir.ConstFloat:
		if v.Val == float64(int64(v.Val)) {
			return linsolve.ConstAffine(big.NewRat(int64(v.Val), 1)), nil
		}
		return nil, &ErrNonAffine{Reason: "non-integral float constant in index"}
	case *ir.Param:
		return linsolve.TermAffine(reg.registerOpaque(v, v.Name_)), nil
	}
	in := n.Instr()
	if in == nil {
		return nil, &ErrNonAffine{Reason: fmt.Sprintf("unknown value %T", n.Value)}
	}
	switch in.Op {
	case ir.OpWorkItem:
		dim := 0
		if len(in.Args) == 1 {
			if c, ok := in.Args[0].(*ir.ConstInt); ok {
				dim = int(c.Val)
			} else {
				return opaqueSubtree(n, reg)
			}
		}
		return linsolve.TermAffine(reg.registerWorkItem(in, dim)), nil

	case ir.OpAdd, ir.OpSub:
		l, err := ExtractAffine(n.Children[0], reg)
		if err != nil {
			return nil, err
		}
		r, err := ExtractAffine(n.Children[1], reg)
		if err != nil {
			return nil, err
		}
		if in.Op == ir.OpAdd {
			return l.Add(r), nil
		}
		return l.Sub(r), nil

	case ir.OpNeg:
		x, err := ExtractAffine(n.Children[0], reg)
		if err != nil {
			return nil, err
		}
		return x.Scale(big.NewRat(-1, 1)), nil

	case ir.OpMul:
		l, err := ExtractAffine(n.Children[0], reg)
		if err != nil {
			return nil, err
		}
		r, err := ExtractAffine(n.Children[1], reg)
		if err != nil {
			return nil, err
		}
		switch {
		case l.IsConst():
			return r.Scale(l.Const), nil
		case r.IsConst():
			return l.Scale(r.Const), nil
		default:
			return opaqueSubtree(n, reg)
		}

	case ir.OpShl:
		l, err := ExtractAffine(n.Children[0], reg)
		if err != nil {
			return nil, err
		}
		r, err := ExtractAffine(n.Children[1], reg)
		if err != nil {
			return nil, err
		}
		if r.IsConst() && r.Const.IsInt() {
			sh := r.Const.Num().Int64()
			if sh >= 0 && sh < 62 {
				return l.Scale(big.NewRat(int64(1)<<uint(sh), 1)), nil
			}
		}
		return opaqueSubtree(n, reg)

	case ir.OpConvert:
		return ExtractAffine(n.Children[0], reg)

	case ir.OpLoad:
		// Leaf load of a multi-store variable: one term per variable,
		// keyed by the alloca so every load of the variable unifies.
		if src, ok := in.Args[0].(*ir.Instr); ok && src.Op == ir.OpAlloca && n.IsLeaf() {
			return linsolve.TermAffine(reg.registerOpaqueKeyed(src, in, src.VarName)), nil
		}
		return opaqueSubtree(n, reg)

	default:
		return opaqueSubtree(n, reg)
	}
}

// Affine is the affine form of v over reg's terms: the tree Build makes
// of v, through ExtractAffine.
func (b *Builder) Affine(v ir.Value, reg *Registry) (*linsolve.Affine, error) {
	n, err := b.Build(v)
	if err != nil {
		return nil, err
	}
	return ExtractAffine(n, reg)
}

// Offset is the byte offset an OpIndex chain (ir.PointerRoot's) adds to
// its root: Σ idx·step over the chain, each step the size of what the
// indexed pointer points at.
func (b *Builder) Offset(chain []*ir.Instr, reg *Registry) (*linsolve.Affine, error) {
	total := linsolve.NewAffine()
	for _, idx := range chain {
		aff, err := b.Affine(idx.Args[1], reg)
		if err != nil {
			return nil, err
		}
		total.AddScaled(aff, big.NewRat(int64(ir.PointeeSize(idx.Args[0].Type())), 1))
	}
	return total, nil
}

// WorkItemCoeffs folds aff's per-work-item coefficients by dimension:
// get_global_id(d) varies with the work-item exactly like get_local_id(d)
// inside one work-group, so both count toward dimension d. ok is false
// when a folded coefficient is not an int64.
func WorkItemCoeffs(aff *linsolve.Affine) (c [3]int64, ok bool) {
	for d := 0; d < 3; d++ {
		sum := new(big.Rat).Add(aff.Coeff(LocalIDKey(d)), aff.Coeff(WorkItemKey("get_global_id", d)))
		if !sum.IsInt() || !sum.Num().IsInt64() {
			return c, false
		}
		c[d] = sum.Num().Int64()
	}
	return c, true
}

// opaqueSubtree registers the whole subtree as one symbolic term, provided
// it does not involve the local thread index.
func opaqueSubtree(n *Node, reg *Registry) (*linsolve.Affine, error) {
	if ContainsWorkItem(n, "get_local_id") {
		return nil, &ErrNonAffine{Reason: "non-linear use of get_local_id"}
	}
	name := ""
	if in := n.Instr(); in != nil {
		name = fmt.Sprintf("e%d", in.ID)
	}
	return linsolve.TermAffine(reg.registerOpaque(n.Value, name)), nil
}
