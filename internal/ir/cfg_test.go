package ir

import (
	"reflect"
	"testing"

	"grover/internal/clc"
)

// edgeFunc builds a function of len(succ) blocks in which block i
// branches to succ[i]: no successor returns, one is a Br, two a CondBr on
// a comparison of the parameter.
func edgeFunc(succ [][]int) *CFG {
	fn := &Function{Name: "k", IsKernel: true, Ret: clc.TypeVoid}
	p := &Param{Name_: "p", Typ: clc.TypeInt}
	fn.Params = []*Param{p}
	b := NewBuilder(fn)
	for len(fn.Blocks) < len(succ) {
		fn.NewBlock("b")
	}
	for i, ss := range succ {
		b.SetBlock(fn.Blocks[i])
		switch len(ss) {
		case 0:
			b.Ret(nil, clc.Pos{})
		case 1:
			b.Br(fn.Blocks[ss[0]], clc.Pos{})
		default:
			b.CondBr(b.Cmp(OpLt, p, IntConst(int64(i)), clc.Pos{}), fn.Blocks[ss[0]], fn.Blocks[ss[1]], clc.Pos{})
		}
	}
	return NewCFG(fn)
}

// loopShape is a loop by block index: -1 stands for a nil block or loop.
type loopShape struct {
	Header    int
	Body      []int
	Parent    int
	Depth     int
	Preheader int
}

func shapes(c *CFG) []loopShape {
	idx := func(b *Block) int {
		if b == nil {
			return -1
		}
		return c.Index[b]
	}
	var out []loopShape
	for _, l := range c.Loops() {
		s := loopShape{Header: idx(l.Header), Parent: -1, Depth: l.Depth, Preheader: idx(l.Preheader)}
		if l.Parent != nil {
			s.Parent = idx(l.Parent.Header)
		}
		for _, b := range l.Body {
			if l.Blocks[b] {
				s.Body = append(s.Body, idx(b))
			}
		}
		if len(l.Blocks) != len(s.Body) {
			s.Body = append(s.Body, -1) // the set holds a block Body lacks
		}
		out = append(out, s)
	}
	return out
}

func TestLoops(t *testing.T) {
	for _, tc := range []struct {
		name string
		succ [][]int
		want []loopShape
	}{
		{
			// The inner back edge 5→3 comes before the outer one 6→1 in
			// function order; loops still come by header, and the exit
			// block 4 sits between the bodies' blocks.
			name: "nested",
			succ: [][]int{{1}, {2, 4}, {3}, {5, 6}, {}, {3}, {1}},
			want: []loopShape{
				{Header: 1, Body: []int{1, 2, 3, 5, 6}, Parent: -1, Depth: 0, Preheader: 0},
				{Header: 3, Body: []int{3, 5}, Parent: 1, Depth: 1, Preheader: 2},
			},
		},
		{
			// Loop 3 lies in loops 2 and 1; its parent is the smaller.
			name: "three deep",
			succ: [][]int{{1}, {2, 6}, {3, 5}, {3, 4}, {2}, {1}, {}},
			want: []loopShape{
				{Header: 1, Body: []int{1, 2, 3, 4, 5}, Parent: -1, Depth: 0, Preheader: 0},
				{Header: 2, Body: []int{2, 3, 4}, Parent: 1, Depth: 1, Preheader: 1},
				{Header: 3, Body: []int{3}, Parent: 2, Depth: 2, Preheader: 2},
			},
		},
		{
			name: "two back edges into one header",
			succ: [][]int{{1}, {2, 3}, {1}, {1, 4}, {}},
			want: []loopShape{{Header: 1, Body: []int{1, 2, 3}, Parent: -1, Preheader: 0}},
		},
		{
			name: "self-loop",
			succ: [][]int{{1}, {1, 2}, {}},
			want: []loopShape{{Header: 1, Body: []int{1}, Parent: -1, Preheader: 0}},
		},
		{
			// The header 2 is entered from 0 and from 1.
			name: "two-entry loop",
			succ: [][]int{{1, 2}, {2}, {3, 4}, {2}, {}},
			want: []loopShape{{Header: 2, Body: []int{2, 3}, Parent: -1, Preheader: -1}},
		},
		{
			// Block 2 is unreachable; its self-edge is no loop, and its edge
			// into block 1 is no back edge.
			name: "back edge from an unreachable block",
			succ: [][]int{{1}, {}, {2, 1}},
			want: nil,
		},
	} {
		if got := shapes(edgeFunc(tc.succ)); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: loops = %+v, want %+v", tc.name, got, tc.want)
		}
	}
}

// TestGuards: in a diamond each arm is guarded by the entry's branch, on
// the side that leads to it, and the join by nothing; post-dominators are
// built only when asked for.
func TestGuards(t *testing.T) {
	c := edgeFunc([][]int{{1, 2}, {3}, {3}, {}})
	if c.pdom != nil {
		t.Fatal("NewCFG built the post-dominator tree")
	}
	for bi, want := range [][]bool{nil, {false}, {true}, nil} {
		var got []bool
		c.Guards(bi, func(br *Block, cond *Instr, negated bool) {
			if br != c.Blocks[0] || cond != br.Terminator().Args[0] {
				t.Errorf("block %d: guard %s, want the entry's branch", bi, br.Name)
			}
			got = append(got, negated)
		})
		if !reflect.DeepEqual(got, want) {
			t.Errorf("block %d: guard sides %v, want %v", bi, got, want)
		}
	}
	if ip := c.IPostDom(0); ip != 3 {
		t.Errorf("IPostDom(0) = %d, want 3", ip)
	}
	if rpo := c.RPO(); len(rpo) != 4 || rpo[0] != 0 || rpo[3] != 3 {
		t.Errorf("RPO = %v, want the entry first and the join last", rpo)
	}
}
