// Package graph implements the pure graph algorithms under the IR's
// control-flow graph: reverse postorder and dominator trees over plain
// adjacency lists. It has no dependency on the IR so that internal/ir,
// which builds the one CFG every analysis reads (ir.NewCFG), can use it
// without an import cycle.
package graph

// reversePostOrder returns the nodes reachable from root in reverse
// postorder of a depth-first traversal of succ.
func reversePostOrder(n int, succ [][]int, root int) []int {
	seen := make([]bool, n)
	var post []int
	// Iterative DFS with an explicit frame stack so deep CFGs cannot
	// overflow the goroutine stack.
	type frame struct {
		node int
		next int
	}
	stack := []frame{{node: root}}
	seen[root] = true
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.next < len(succ[f.node]) {
			s := succ[f.node][f.next]
			f.next++
			if !seen[s] {
				seen[s] = true
				stack = append(stack, frame{node: s})
			}
			continue
		}
		post = append(post, f.node)
		stack = stack[:len(stack)-1]
	}
	for i, j := 0, len(post)-1; i < j; i, j = i+1, j-1 {
		post[i], post[j] = post[j], post[i]
	}
	return post
}

// Tree is a dominator tree over a rooted graph. Nodes unreachable from the
// root have Idom[v] == -1 and are dominated by nothing (and dominate
// nothing but themselves).
type Tree struct {
	// Idom is the immediate dominator of each node (-1 for the root and
	// for unreachable nodes).
	Idom []int

	root     int
	rpo      []int
	reach    []bool
	pre, pst []int // preorder interval numbering for O(1) queries
}

// Dominators computes the dominator tree of the graph rooted at root using
// the Cooper–Harvey–Kennedy iterative algorithm over reverse postorder.
func Dominators(n int, succ [][]int, root int) *Tree {
	rpo := reversePostOrder(n, succ, root)
	order := make([]int, n) // rpo index per node; -1 when unreachable
	for i := range order {
		order[i] = -1
	}
	for i, v := range rpo {
		order[v] = i
	}
	pred := make([][]int, n)
	for u := 0; u < n; u++ {
		if order[u] < 0 {
			continue // edges from unreachable nodes do not count
		}
		for _, v := range succ[u] {
			pred[v] = append(pred[v], u)
		}
	}
	idom := make([]int, n)
	for i := range idom {
		idom[i] = -1
	}
	idom[root] = root
	intersect := func(a, b int) int {
		for a != b {
			for order[a] > order[b] {
				a = idom[a]
			}
			for order[b] > order[a] {
				b = idom[b]
			}
		}
		return a
	}
	for changed := true; changed; {
		changed = false
		for _, v := range rpo {
			if v == root {
				continue
			}
			newIdom := -1
			for _, p := range pred[v] {
				if idom[p] < 0 {
					continue // predecessor not yet processed
				}
				if newIdom < 0 {
					newIdom = p
				} else {
					newIdom = intersect(newIdom, p)
				}
			}
			if newIdom >= 0 && idom[v] != newIdom {
				idom[v] = newIdom
				changed = true
			}
		}
	}
	t := &Tree{Idom: make([]int, n), root: root, rpo: rpo, reach: make([]bool, n)}
	for i := range t.Idom {
		t.Idom[i] = -1
	}
	for _, v := range rpo {
		t.reach[v] = true
		if v != root {
			t.Idom[v] = idom[v]
		}
	}
	t.number(n)
	return t
}

// number assigns preorder entry/exit intervals over the dominator tree so
// Dominates is an O(1) interval containment test.
func (t *Tree) number(n int) {
	children := make([][]int, n)
	for v, d := range t.Idom {
		if d >= 0 {
			children[d] = append(children[d], v)
		}
	}
	t.pre = make([]int, n)
	t.pst = make([]int, n)
	clock := 0
	type frame struct {
		node int
		next int
	}
	stack := []frame{{node: t.root}}
	t.pre[t.root] = clock
	clock++
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.next < len(children[f.node]) {
			c := children[f.node][f.next]
			f.next++
			t.pre[c] = clock
			clock++
			stack = append(stack, frame{node: c})
			continue
		}
		t.pst[f.node] = clock
		clock++
		stack = stack[:len(stack)-1]
	}
}

// ReversePostOrder returns the nodes reachable from the root in the
// reverse postorder the tree was computed over. The slice is shared; do
// not modify it.
func (t *Tree) ReversePostOrder() []int { return t.rpo }

// Reachable reports whether v is reachable from the root.
func (t *Tree) Reachable(v int) bool { return t.reach[v] }

// Dominates reports whether a dominates b (reflexively). Unreachable
// nodes dominate only themselves and are dominated only by themselves.
func (t *Tree) Dominates(a, b int) bool {
	if a == b {
		return true
	}
	if !t.reach[a] || !t.reach[b] {
		return false
	}
	return t.pre[a] <= t.pre[b] && t.pst[b] <= t.pst[a]
}
