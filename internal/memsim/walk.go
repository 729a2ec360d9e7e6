package memsim

import "slices"

// LineShift is how far right an address is shifted to give its line in the
// first level: what a walk's entries are made of. Without a cache every
// address is on line 0, so that an access is one entry whatever its size,
// as it is one DRAM access.
func (h *Hierarchy) LineShift() uint {
	if len(h.Levels) == 0 {
		return 63
	}
	return h.Levels[0].lineShift
}

// Entry is a walk's entry for an access to line, a first-level line (an
// address shifted right by LineShift): the line shifted left once, with
// the store bit below it.
func Entry(line uint64, store bool) uint64 {
	e := line << 1
	if store {
		e |= 1
	}
	return e
}

// AppendLines appends to q the entries of an access of size bytes at
// addr (a non-positive size counts as 1): one per line of 1<<shift bytes
// it touches, in order.
func AppendLines(q []uint64, addr uint64, size int, store bool, shift uint) []uint64 {
	for ln, last := addr>>shift, (addr+uint64(max(size, 1)-1))>>shift; ln <= last; ln++ {
		q = append(q, Entry(ln, store))
	}
	return q
}

// Walk charges the hierarchy the entries of q in order (see Entry) and
// returns their cost: a line's cost is its first level's latency, plus on
// a miss what the line costs the level after it, plus half what writing
// back the line it evicts costs there. Every cache and the DRAM count the
// lines they see. Hits on a set's most recent line are answered here and
// counted in locals.
func (h *Hierarchy) Walk(q []uint64) int64 {
	if len(h.Levels) == 0 {
		h.Mem.Accesses += int64(len(q))
		return int64(len(q)) * h.Mem.Latency
	}
	c := h.Levels[0]
	var cost, fronts int64
	for _, e := range q {
		line := e >> 1
		si := int(line & c.setMask)
		if f := &c.lines[si*c.ways]; *f&^1 == c.entry(line) {
			if c.jn != nil {
				c.jn.keep(c, si)
			}
			*f |= e & 1
			fronts++
			continue
		}
		cost += c.accessLine(line, e&1 != 0)
	}
	c.stats.Accesses += fronts
	c.stats.Hits += fronts
	return cost + fronts*c.latency
}

// Memo charges a hierarchy a sequence of accesses that repeats the one
// charged before it without walking it, once walking that one is known to
// have changed nothing.
//
// Let q be the sequence charged last, and let walking it have left every
// set it touched, at every level, as it found them: contents, recency
// order and dirty bits. A walk reads and writes only the sets it touches,
// and it is a function of q and of them; so the state after that walk is
// the state before it, and walking q again would do exactly what that walk
// did — the same cost, the same counts and, once more, no change. Charge
// adds what that walk added to the counters and walks nothing. Whether a
// walk changed nothing is learnt by walking the first repeat of a sequence
// under a journal of the sets it touches.
//
// A Memo serves one hierarchy from Reset to Reset, and nothing else charges
// that hierarchy in between.
type Memo struct {
	prev  []uint64 // the sequence charged last
	fixed bool     // walking prev left the hierarchy as it found it
	// What that walk cost and added to each level's counters and DRAM's.
	cost  int64
	delta []Stats
	dram  int64
	j     journal
}

// Reset forgets the sequence charged last; the buffers keep their capacity.
func (m *Memo) Reset() { m.prev, m.fixed = m.prev[:0], false }

// Charge walks the hierarchy through the entries of q in order or, when
// walking them is known to repeat the walk before, adds what that walk did;
// it returns the cost and whether q was charged without a walk. Cost and
// counters are Walk's.
func (h *Hierarchy) Charge(m *Memo, q []uint64) (cost int64, memo bool) {
	if !slices.Equal(q, m.prev) {
		m.prev, m.fixed = append(m.prev[:0], q...), false
		return h.Walk(q), false
	}
	if m.fixed {
		for i, c := range h.Levels {
			c.stats.Add(m.delta[i])
		}
		h.Mem.Accesses += m.dram
		return m.cost, true
	}
	m.delta = m.delta[:0]
	for _, c := range h.Levels {
		m.delta = append(m.delta, c.stats)
	}
	dram := h.Mem.Accesses
	m.j.start(h)
	cost = h.Walk(q)
	if m.fixed = m.j.finish(h); m.fixed {
		for i, c := range h.Levels {
			m.delta[i] = c.stats.minus(m.delta[i])
		}
		m.cost, m.dram = cost, h.Mem.Accesses-dram
	}
	return cost, false
}

// journal keeps, while one sequence is walked, each set the walk touches
// at any level as it was before the walk first touched it: enough to tell
// afterwards whether the walk changed anything. It marks a set at its
// first touch and unmarks it at the end, so it never needs clearing as a
// whole and has no epoch to wrap; its buffers keep their capacity, so a
// touch allocates nothing once they have grown.
type journal struct {
	first []int  // level l's marks are marks[first[l]:first[l+1]]
	marks []bool // one per set of every level
	sets  []mark // the sets marked, in the order first touched
	prior []uint64
}

type mark struct{ level, set int32 }

// start attaches the journal to every level of h.
func (j *journal) start(h *Hierarchy) {
	j.first = append(j.first[:0], 0)
	for _, c := range h.Levels {
		j.first = append(j.first, j.first[len(j.first)-1]+c.sets)
		c.jn = j
	}
	if n := j.first[len(j.first)-1]; len(j.marks) < n {
		j.marks = make([]bool, n)
	}
}

// keep notes set of c as it is, unless the walk has touched it already.
func (j *journal) keep(c *Cache, set int) {
	if k := j.first[c.level] + set; !j.marks[k] {
		j.marks[k] = true
		j.sets = append(j.sets, mark{int32(c.level), int32(set)})
		j.prior = append(j.prior, c.lines[set*c.ways:(set+1)*c.ways]...)
	}
}

// finish detaches the journal from h and reports whether every set the
// walk touched holds what it held before.
func (j *journal) finish(h *Hierarchy) bool {
	same, prior := true, j.prior
	for _, m := range j.sets {
		c := h.Levels[m.level]
		j.marks[j.first[m.level]+int(m.set)] = false
		base := int(m.set) * c.ways
		same = same && slices.Equal(c.lines[base:base+c.ways], prior[:c.ways])
		prior = prior[c.ways:]
	}
	for _, c := range h.Levels {
		c.jn = nil
	}
	j.sets, j.prior = j.sets[:0], j.prior[:0]
	return same
}

func (s Stats) minus(d Stats) Stats {
	return Stats{s.Accesses - d.Accesses, s.Hits - d.Hits, s.Misses - d.Misses, s.Writebacks - d.Writebacks}
}
