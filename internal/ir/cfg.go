package ir

import "grover/internal/analysis/graph"

// CFG is the control-flow graph of one function, indexed by block
// position, with its dominator tree. Post-dominators and natural loops
// are computed on first use, so the verifier pays only for dominance. It
// is the one substrate the verifier, the analyses, the rewrite rules and
// the Grover pass read.
// A CFG describes the blocks and edges it was built from: code may be
// inserted into or moved between blocks, but adding a block or changing a
// terminator needs a new CFG.
type CFG struct {
	Fn     *Function
	Blocks []*Block
	// Index maps each block to its position in Blocks.
	Index map[*Block]int
	// Succ and Pred are the adjacency lists by block index.
	Succ [][]int
	Pred [][]int
	// Dom is the dominator tree rooted at the entry block.
	Dom *graph.Tree

	// pdom is the post-dominator tree over len(Blocks)+1 nodes: node
	// len(Blocks) is a virtual exit joined from every return block, so
	// multi-exit functions still have a single post-dominance root.
	pdom      *graph.Tree
	loops     []*Loop
	loopsDone bool
}

// NewCFG builds the CFG and dominator tree of fn.
func NewCFG(fn *Function) *CFG {
	n := len(fn.Blocks)
	c := &CFG{Fn: fn, Blocks: fn.Blocks, Index: make(map[*Block]int, n)}
	for i, b := range fn.Blocks {
		c.Index[b] = i
	}
	c.Succ = make([][]int, n)
	c.Pred = make([][]int, n)
	for i, b := range fn.Blocks {
		for _, s := range b.Succs() {
			j := c.Index[s]
			c.Succ[i] = append(c.Succ[i], j)
			c.Pred[j] = append(c.Pred[j], i)
		}
	}
	c.Dom = graph.Dominators(n, c.Succ, 0)
	return c
}

// Dominates reports whether block a dominates block b (reflexively).
// Blocks outside the function dominate nothing, and a block unreachable
// from the entry dominates only itself.
func (c *CFG) Dominates(a, b *Block) bool {
	ai, ok := c.Index[a]
	if !ok {
		return false
	}
	bi, ok := c.Index[b]
	if !ok {
		return false
	}
	return c.Dom.Dominates(ai, bi)
}

// RPO returns the indices of the blocks reachable from the entry in
// reverse postorder. The slice is shared; do not modify it.
func (c *CFG) RPO() []int { return c.Dom.ReversePostOrder() }

// Guards calls yield for each conditional branch that decides whether
// block bi runs, nearest first: a CondBr on bi's dominator chain counts
// through each edge whose target has the branch block as its only
// predecessor and dominates bi, so every path to bi crossed that edge
// with the condition decided. negated reports the false edge.
func (c *CFG) Guards(bi int, yield func(br *Block, cond *Instr, negated bool)) {
	for anc := c.Dom.Idom[bi]; anc >= 0; anc = c.Dom.Idom[anc] {
		br := c.Blocks[anc]
		term := br.Terminator()
		if term == nil || term.Op != OpCondBr {
			continue
		}
		cond, ok := term.Args[0].(*Instr)
		if !ok {
			continue
		}
		for side, target := range term.Targets {
			ti, known := c.Index[target]
			if !known || len(c.Pred[ti]) != 1 || !c.Dom.Dominates(ti, bi) {
				continue
			}
			yield(br, cond, side == 1)
		}
	}
}

// postDom returns the post-dominator tree, building it on first use.
func (c *CFG) postDom() *graph.Tree {
	if c.pdom == nil {
		n := len(c.Blocks)
		rev := make([][]int, n+1)
		for u := 0; u < n; u++ {
			for _, v := range c.Succ[u] {
				rev[v] = append(rev[v], u)
			}
			if len(c.Succ[u]) == 0 {
				rev[n] = append(rev[n], u)
			}
		}
		c.pdom = graph.Dominators(n+1, rev, n)
	}
	return c.pdom
}

// IPostDom returns the immediate post-dominator block index of b, or -1
// when the only post-dominator is the (virtual) exit — or none at all,
// as for blocks trapped in an infinite loop.
func (c *CFG) IPostDom(b int) int {
	ip := c.postDom().Idom[b]
	if ip < 0 || ip >= len(c.Blocks) {
		return -1
	}
	return ip
}

// DivergenceRegion returns the blocks whose execution depends on the
// branch terminating block b: everything reachable from b's successors
// without passing through b's immediate post-dominator (the reconvergence
// point, which itself executes regardless of the branch outcome). When b
// has no post-dominator inside the function the region is everything
// reachable from its successors.
func (c *CFG) DivergenceRegion(b int) []int {
	stop := c.IPostDom(b)
	seen := make([]bool, len(c.Blocks))
	var out, stack []int
	for _, s := range c.Succ[b] {
		if s != stop && !seen[s] {
			seen[s] = true
			stack = append(stack, s)
		}
	}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		out = append(out, v)
		for _, s := range c.Succ[v] {
			if s != stop && !seen[s] {
				seen[s] = true
				stack = append(stack, s)
			}
		}
	}
	return out
}

// Loop is one natural loop: the header and every block that reaches one
// of its back edges without passing through it. All back edges into one
// header make one loop.
type Loop struct {
	Header *Block
	Blocks map[*Block]bool
	// Body lists the blocks in function order. Code that walks a loop
	// walks Body, not the set, so what it emits does not depend on map
	// order.
	Body []*Block
	// Parent is the smallest loop that strictly contains this one, nil
	// for an outermost loop; Depth counts the loops around this one.
	Parent *Loop
	Depth  int
	// Preheader is the header's single predecessor outside the loop when
	// that block dominates the header and ends in a terminator, so code
	// placed in front of the terminator runs before every iteration; nil
	// otherwise (several entries, irreducible flow).
	Preheader *Block
}

// Loops returns the function's natural loops in header-index order,
// finding them on first use. A back edge is an edge u→h from a block u
// reachable from the entry to a block h that dominates it; edges from
// unreachable blocks are ignored.
func (c *CFG) Loops() []*Loop {
	if c.loopsDone {
		return c.loops
	}
	c.loopsDone = true
	byHeader := make([]*Loop, len(c.Blocks))
	for u := range c.Blocks {
		if !c.Dom.Reachable(u) {
			continue
		}
		for _, h := range c.Succ[u] {
			if !c.Dom.Dominates(h, u) {
				continue // not a back edge
			}
			l := byHeader[h]
			if l == nil {
				l = &Loop{Header: c.Blocks[h], Blocks: map[*Block]bool{c.Blocks[h]: true}}
				byHeader[h] = l
			}
			for stack := []int{u}; len(stack) > 0; {
				v := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if l.Blocks[c.Blocks[v]] {
					continue
				}
				l.Blocks[c.Blocks[v]] = true
				stack = append(stack, c.Pred[v]...)
			}
		}
	}
	for h, l := range byHeader {
		if l == nil {
			continue
		}
		for _, b := range c.Blocks {
			if l.Blocks[b] {
				l.Body = append(l.Body, b)
			}
		}
		var outside []int
		for _, p := range c.Pred[h] {
			if !l.Blocks[c.Blocks[p]] {
				outside = append(outside, p)
			}
		}
		if len(outside) == 1 && c.Dom.Dominates(outside[0], h) && c.Blocks[outside[0]].Terminator() != nil {
			l.Preheader = c.Blocks[outside[0]]
		}
		c.loops = append(c.loops, l)
	}
	for _, l := range c.loops {
		for _, outer := range c.loops {
			if len(outer.Blocks) > len(l.Blocks) && outer.Blocks[l.Header] &&
				(l.Parent == nil || len(outer.Blocks) < len(l.Parent.Blocks)) {
				l.Parent = outer
			}
		}
	}
	for _, l := range c.loops {
		for p := l.Parent; p != nil; p = p.Parent {
			l.Depth++
		}
	}
	return c.loops
}
