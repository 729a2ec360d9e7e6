package vm

import "sync/atomic"

// groupSchedule hands out work-group indices to a launch's workers. Two
// policies exist:
//
//   - Static round-robin: worker w runs groups w, w+workers, w+2·workers,
//     … in ascending order. Deterministic, and required whenever
//     per-worker tracers are attached — a tracer's stream is its worker's
//     groups, so the set and order of groups a worker executes must not
//     depend on scheduling timing.
//   - Dynamic chunked grab: workers claim the next chunk of group indices
//     from a shared atomic counter, so heterogeneous group costs
//     (early-exit guards, divergent tails) no longer leave workers idle
//     behind a statically assigned straggler.
//
// Program.Launch is its one caller, so the policy is the same on every
// engine.
type groupSchedule struct {
	nGroups int
	workers int
	chunk   int
	static  bool
	next    atomic.Int64
}

// newGroupSchedule builds a schedule over nGroups group indices for the
// given worker count. deterministic selects static round-robin; pass true
// whenever a tracer observes the launch.
func newGroupSchedule(nGroups, workers int, deterministic bool) *groupSchedule {
	s := &groupSchedule{nGroups: nGroups, workers: workers, static: deterministic}
	if !s.static {
		// Several grabs per worker give load balance without hammering
		// the shared counter; the cap keeps the tail imbalance small
		// when a late chunk turns out expensive.
		s.chunk = nGroups / (workers * 8)
		if s.chunk < 1 {
			s.chunk = 1
		}
		if s.chunk > 64 {
			s.chunk = 64
		}
	}
	return s
}

// cursor returns worker's iterator over its share of the schedule.
func (s *groupSchedule) cursor(worker int) groupCursor {
	if s.static {
		return groupCursor{s: s, pos: worker}
	}
	return groupCursor{s: s}
}

// groupCursor walks one worker's share of a groupSchedule.
type groupCursor struct {
	s   *groupSchedule
	pos int
	end int
}

// next returns the next group index for this worker, or -1 when the
// schedule is drained.
func (c *groupCursor) next() int {
	s := c.s
	if s.static {
		if c.pos >= s.nGroups {
			return -1
		}
		g := c.pos
		c.pos += s.workers
		return g
	}
	if c.pos >= c.end {
		start := int(s.next.Add(int64(s.chunk))) - s.chunk
		if start >= s.nGroups {
			return -1
		}
		c.pos = start
		c.end = start + s.chunk
		if c.end > s.nGroups {
			c.end = s.nGroups
		}
	}
	g := c.pos
	c.pos++
	return g
}
