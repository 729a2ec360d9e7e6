package graph

import "testing"

// diamond: 0 → {1,2} → 3
func TestDominatorsDiamond(t *testing.T) {
	succ := [][]int{{1, 2}, {3}, {3}, {}}
	d := Dominators(4, succ, 0)
	wantIdom := []int{-1, 0, 0, 0}
	for v, w := range wantIdom {
		if d.Idom[v] != w {
			t.Errorf("idom[%d] = %d, want %d", v, d.Idom[v], w)
		}
	}
	cases := []struct {
		a, b int
		want bool
	}{
		{0, 0, true}, {0, 3, true}, {1, 3, false}, {2, 3, false},
		{0, 1, true}, {3, 1, false}, {1, 1, true},
	}
	for _, c := range cases {
		if got := d.Dominates(c.a, c.b); got != c.want {
			t.Errorf("Dominates(%d, %d) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

// loop: 0 → 1 → 2 → 1, 2 → 3
func TestDominatorsLoop(t *testing.T) {
	succ := [][]int{{1}, {2}, {1, 3}, {}}
	d := Dominators(4, succ, 0)
	wantIdom := []int{-1, 0, 1, 2}
	for v, w := range wantIdom {
		if d.Idom[v] != w {
			t.Errorf("idom[%d] = %d, want %d", v, d.Idom[v], w)
		}
	}
	if !d.Dominates(1, 3) || !d.Dominates(2, 3) {
		t.Error("loop header and body must dominate the exit")
	}
}

func TestDominatorsUnreachable(t *testing.T) {
	// Node 2 is unreachable; node 3 reachable only through 1.
	succ := [][]int{{1}, {3}, {3}, {}}
	d := Dominators(4, succ, 0)
	if d.Reachable(2) {
		t.Error("node 2 must be unreachable")
	}
	if !d.Dominates(2, 2) {
		t.Error("an unreachable node dominates itself")
	}
	if d.Dominates(2, 3) || d.Dominates(0, 2) {
		t.Error("unreachable nodes neither dominate nor are dominated by others")
	}
	// The edge 2→3 must not influence 3's dominators.
	if d.Idom[3] != 1 {
		t.Errorf("idom[3] = %d, want 1 (edge from unreachable 2 ignored)", d.Idom[3])
	}
}

func TestReversePostOrder(t *testing.T) {
	succ := [][]int{{1, 2}, {3}, {3}, {}}
	rpo := Dominators(4, succ, 0).ReversePostOrder()
	if len(rpo) != 4 || rpo[0] != 0 || rpo[len(rpo)-1] != 3 {
		t.Errorf("rpo = %v: want entry first, join last", rpo)
	}
	pos := map[int]int{}
	for i, v := range rpo {
		pos[v] = i
	}
	if pos[0] > pos[1] || pos[0] > pos[2] || pos[1] > pos[3] || pos[2] > pos[3] {
		t.Errorf("rpo = %v violates topological order on the DAG", rpo)
	}
}
