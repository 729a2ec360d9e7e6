package memsim

import (
	"math/rand"
	"slices"
	"testing"
)

// TestMemoMatchesPlainWalk sets a hierarchy and a divCache chain of each
// geometry to one random state, then charges the hierarchy a random
// sequence of lines k times over through a Memo and the chain the same
// lines one at a time: every charge must cost the same, and every level's
// counters, DRAM's and every set's contents must be equal after each. The
// sequences keep to a few sets of every level and hold more lines of each
// than it has ways, stores among them, so that repeats evict dirty lines
// and still come to a fixed point the memo charges from; now and then
// another sequence comes between two repeats, or the state is stirred
// behind the memo's back and the memo Reset.
func TestMemoMatchesPlainWalk(t *testing.T) {
	for gi, specs := range geometries() {
		r := rand.New(rand.NewSource(int64(7 + gi)))
		memo, dram := mustHierarchy(t, specs), &DRAM{Latency: 100}
		div := divChain(specs, dram)
		l1 := specs[0]
		// Lines this many first-level lines apart share a set at every level.
		period := uint64(0)
		for _, s := range specs {
			period = max(period, uint64(s.Sets*s.LineSize/l1.LineSize))
		}
		randomLine := func() uint64 {
			if r.Intn(3) == 0 {
				return uint64(r.Intn(1 << 16))
			}
			return uint64(r.Intn(3)) + period*uint64(r.Intn(24))
		}
		stir := func() {
			for i := 0; i < 200; i++ {
				addr, size, store := randomLine()*uint64(l1.LineSize)+uint64(r.Intn(l1.LineSize)), 1+r.Intn(8), r.Intn(3) == 0
				access(memo, addr, size, store)
				div[0].Access(addr, size, store)
			}
		}
		var m Memo
		charged := 0
		for round := 0; round < 150; round++ {
			if round%10 == 0 {
				stir()
				m.Reset()
			}
			q := make([]uint64, 1+r.Intn(60))
			for i := range q {
				q[i] = Entry(randomLine(), r.Intn(4) == 3)
			}
			other := []uint64{Entry(randomLine(), false), Entry(randomLine(), true)}
			for k := 1 + r.Intn(8); k > 0; k-- {
				seq := q
				if r.Intn(8) == 0 {
					seq = other
				}
				got, fromMemo := memo.Charge(&m, seq)
				var want int64
				for _, e := range seq {
					addr := (e>>1)*uint64(l1.LineSize) + uint64(r.Intn(l1.LineSize))
					want += div[0].Access(addr, 1, e&1 != 0)
				}
				if got != want {
					t.Fatalf("geometry %d, round %d: a charge costs %d (memo %v), the division form %d", gi, round, got, fromMemo, want)
				}
				if fromMemo {
					charged++
				}
				for li, c := range memo.Levels {
					if c.Stats() != div[li].stats || !slices.Equal(c.lines, div[li].contents()) {
						t.Fatalf("geometry %d, round %d, %s: counters %+v, division form %+v; contents equal: %v",
							gi, round, c.Name(), c.Stats(), div[li].stats, slices.Equal(c.lines, div[li].contents()))
					}
				}
				if memo.Mem.Accesses != dram.Accesses {
					t.Fatalf("geometry %d, round %d: DRAM accesses %d, division form %d", gi, round, memo.Mem.Accesses, dram.Accesses)
				}
			}
		}
		if charged < 100 {
			t.Errorf("geometry %d: only %d charges came from the memo", gi, charged)
		}
	}
}

func mustHierarchy(t *testing.T, specs []CacheSpec) *Hierarchy {
	t.Helper()
	h, err := NewHierarchy(specs, 100)
	if err != nil {
		t.Fatal(err)
	}
	return h
}
