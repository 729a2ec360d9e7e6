package vm

import (
	"sync"
	"testing"
)

// TestGroupScheduleStatic checks the deterministic policy is exactly the
// historical round-robin assignment.
func TestGroupScheduleStatic(t *testing.T) {
	const nGroups, workers = 23, 4
	s := newGroupSchedule(nGroups, workers, true)
	for w := 0; w < workers; w++ {
		cur := s.cursor(w)
		want := w
		for g := cur.next(); g >= 0; g = cur.next() {
			if g != want {
				t.Fatalf("worker %d: got group %d, want %d", w, g, want)
			}
			want += workers
		}
		if want < nGroups {
			t.Fatalf("worker %d: stopped early at %d of %d", w, want, nGroups)
		}
	}
}

// TestGroupScheduleDynamic runs the chunked-grab policy concurrently and
// checks every group index is handed out exactly once.
func TestGroupScheduleDynamic(t *testing.T) {
	for _, tc := range []struct{ nGroups, workers int }{
		{1, 1}, {7, 3}, {64, 8}, {1000, 7}, {4096, 16},
	} {
		s := newGroupSchedule(tc.nGroups, tc.workers, false)
		var mu sync.Mutex
		seen := make([]int, tc.nGroups)
		var wg sync.WaitGroup
		for w := 0; w < tc.workers; w++ {
			wg.Add(1)
			go func(worker int) {
				defer wg.Done()
				cur := s.cursor(worker)
				prev := -1
				var got []int
				for g := cur.next(); g >= 0; g = cur.next() {
					if g <= prev {
						t.Errorf("worker %d: non-ascending grab %d after %d", worker, g, prev)
					}
					prev = g
					got = append(got, g)
				}
				mu.Lock()
				for _, g := range got {
					seen[g]++
				}
				mu.Unlock()
			}(w)
		}
		wg.Wait()
		for g, n := range seen {
			if n != 1 {
				t.Fatalf("nGroups=%d workers=%d: group %d executed %d times",
					tc.nGroups, tc.workers, g, n)
			}
		}
	}
}
