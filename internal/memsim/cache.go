// Package memsim provides the trace-driven memory-hierarchy models behind
// the device profiles: set-associative write-back caches with LRU
// replacement, a DRAM backstop, a GPU coalescing unit, and a banked
// scratch-pad model. The paper's performance story (coalescing on GPUs,
// cache reuse versus staging overhead on CPUs, conflict misses on
// power-of-two strides) is exactly what these components reproduce.
package memsim

import (
	"fmt"
	"math/bits"
)

// Stats aggregates one cache's activity.
type Stats struct {
	Accesses   int64
	Hits       int64
	Misses     int64
	Writebacks int64
}

// Add adds d's counters to s's.
func (s *Stats) Add(d Stats) {
	s.Accesses += d.Accesses
	s.Hits += d.Hits
	s.Misses += d.Misses
	s.Writebacks += d.Writebacks
}

// HitRate returns hits/accesses (0 when idle).
func (s Stats) HitRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Accesses)
}

// DRAM is the hierarchy backstop with a fixed access latency.
type DRAM struct {
	Latency  int64
	Accesses int64
}

// Cache is one set-associative, write-allocate, write-back cache level
// with LRU replacement.
type Cache struct {
	name     string
	sets     int
	ways     int
	lineSize int
	latency  int64
	// A miss goes to next, or to mem after the last level.
	next *Cache
	mem  *DRAM

	// sets and lineSize are powers of two, so a line address is
	// addr >> lineShift, its set the low bits under setMask and its tag
	// the rest, lineAddr >> setShift.
	lineShift, setShift uint
	setMask             uint64

	// lines holds every set's ways entries, and a set is its LRU order: the
	// most recently touched line first, 0 for an empty way, else
	// (tag+1)<<1 | dirty. A set only fills between Resets, so its empty
	// ways always trail. Which physical way a line sits in was never
	// observable — only a set's contents and their recency order are.
	lines []uint64
	stats Stats

	// jn, while a Memo walks under it, keeps every set the walk touches as
	// it was before (see journal); level is the cache's place in its
	// Hierarchy.
	jn    *journal
	level int
}

// newCache builds a cache level. sets and lineSize must be powers of two.
func newCache(spec CacheSpec) (*Cache, error) {
	name, sets, ways, lineSize := spec.Name, spec.Sets, spec.Ways, spec.LineSize
	if sets <= 0 || ways <= 0 || lineSize <= 0 {
		return nil, fmt.Errorf("memsim: bad geometry for %s: sets=%d ways=%d line=%d", name, sets, ways, lineSize)
	}
	if sets&(sets-1) != 0 || lineSize&(lineSize-1) != 0 {
		return nil, fmt.Errorf("memsim: %s: sets (%d) and line size (%d) must be powers of two", name, sets, lineSize)
	}
	return &Cache{
		name: name, sets: sets, ways: ways, lineSize: lineSize, latency: spec.Latency,
		lineShift: uint(bits.TrailingZeros(uint(lineSize))),
		setShift:  uint(bits.TrailingZeros(uint(sets))),
		setMask:   uint64(sets - 1),
		lines:     make([]uint64, sets*ways),
	}, nil
}

// Name returns the cache's label.
func (c *Cache) Name() string { return c.name }

// Stats returns a copy of the level's counters.
func (c *Cache) Stats() Stats { return c.stats }

// Reset clears contents and counters.
func (c *Cache) Reset() {
	clear(c.lines)
	c.stats = Stats{}
}

// entry is line lineAddr as its set holds it, clean. Byte addresses below
// 1<<62 — every offset the VM can make — lose nothing to the shift.
func (c *Cache) entry(lineAddr uint64) uint64 { return (lineAddr>>c.setShift + 1) << 1 }

func (c *Cache) accessLine(lineAddr uint64, store bool) int64 {
	c.stats.Accesses++
	si := int(lineAddr & c.setMask)
	if c.jn != nil {
		c.jn.keep(c, si)
	}
	base := si * c.ways
	set := c.lines[base : base+c.ways]
	want, dirty := c.entry(lineAddr), uint64(0)
	if store {
		dirty = 1
	}
	// Hit, or else the victim: the first empty way, or the last — the least
	// recently used — of a full set.
	victim := len(set) - 1
	for i, e := range set {
		if e&^1 == want {
			c.stats.Hits++
			copy(set[1:i+1], set[:i])
			set[0] = e | dirty
			return c.latency
		}
		if e == 0 {
			victim = i
			break
		}
	}
	// Miss: fetch from the next level (write-allocate).
	c.stats.Misses++
	cost := c.latency + c.below(lineAddr<<c.lineShift, false)
	if e := set[victim]; e&1 != 0 {
		// Write back the evicted line — to its tag's address in set 0: the
		// set index is dropped. A known model defect carried over as it was,
		// because fixing it moves counts (ROADMAP item 8, "Paper fidelity is a
		// gated number").
		c.stats.Writebacks++
		cost += c.below((e>>1-1)<<c.setShift<<c.lineShift, true) / 2
	}
	copy(set[1:victim+1], set[:victim])
	set[0] = want | dirty
	return cost
}

// below charges what follows c for c's line at byte addr: the next cache,
// line by line in its own line size, or else the DRAM, once.
func (c *Cache) below(addr uint64, store bool) int64 {
	n := c.next
	if n == nil {
		c.mem.Accesses++
		return c.mem.Latency
	}
	var cost int64
	for ln, last := addr>>n.lineShift, (addr+uint64(c.lineSize)-1)>>n.lineShift; ln <= last; ln++ {
		cost += n.accessLine(ln, store)
	}
	return cost
}

// Hierarchy is an ordered cache chain plus the DRAM backstop, charged
// from the innermost level by Walk and Charge.
type Hierarchy struct {
	Levels []*Cache
	Mem    *DRAM
}

// CacheSpec describes one level for NewHierarchy.
type CacheSpec struct {
	Name     string
	Sets     int
	Ways     int
	LineSize int
	Latency  int64
}

// NewHierarchy builds the chain innermost-first.
func NewHierarchy(specs []CacheSpec, dramLatency int64) (*Hierarchy, error) {
	h := &Hierarchy{Levels: make([]*Cache, len(specs)), Mem: &DRAM{Latency: dramLatency}}
	for i := len(specs) - 1; i >= 0; i-- {
		c, err := newCache(specs[i])
		if err != nil {
			return nil, err
		}
		c.level, c.mem = i, h.Mem
		if i+1 < len(specs) {
			c.next = h.Levels[i+1]
		}
		h.Levels[i] = c
	}
	return h, nil
}

// Reset clears every level.
func (h *Hierarchy) Reset() {
	for _, c := range h.Levels {
		c.Reset()
	}
	h.Mem.Accesses = 0
}
