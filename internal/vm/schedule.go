package vm

import "sync/atomic"

// GroupSchedule hands out work-group indices to a launch's workers. Two
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
// Every backend (interp, wgvec) schedules through this type so the
// policy choice stays in one place.
type GroupSchedule struct {
	nGroups int
	workers int
	chunk   int
	static  bool
	next    atomic.Int64
}

// NewGroupSchedule builds a schedule over nGroups group indices for the
// given worker count. deterministic selects static round-robin; pass true
// whenever a tracer observes the launch.
func NewGroupSchedule(nGroups, workers int, deterministic bool) *GroupSchedule {
	s := &GroupSchedule{nGroups: nGroups, workers: workers, static: deterministic}
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

// Cursor returns worker's iterator over its share of the schedule.
func (s *GroupSchedule) Cursor(worker int) GroupCursor {
	if s.static {
		return GroupCursor{s: s, pos: worker}
	}
	return GroupCursor{s: s}
}

// GroupCursor walks one worker's share of a GroupSchedule.
type GroupCursor struct {
	s   *GroupSchedule
	pos int
	end int
}

// Next returns the next group index for this worker, or -1 when the
// schedule is drained.
func (c *GroupCursor) Next() int {
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
