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

// HitRate returns hits/accesses (0 when idle).
func (s Stats) HitRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Accesses)
}

// Level is a stage of the memory hierarchy returning an access cost in
// cycles.
type Level interface {
	// Access touches [addr, addr+size) and returns the cost in cycles.
	Access(addr uint64, size int, store bool) int64
	// Name identifies the level in reports.
	Name() string
}

// DRAM is the hierarchy backstop with a fixed access latency.
type DRAM struct {
	Latency  int64
	Accesses int64
}

// Access counts the access and returns the fixed latency.
func (d *DRAM) Access(addr uint64, size int, store bool) int64 {
	d.Accesses++
	return d.Latency
}

// Name returns "dram".
func (d *DRAM) Name() string { return "dram" }

// Cache is one set-associative, write-allocate, write-back cache level
// with LRU replacement.
type Cache struct {
	name     string
	sets     int
	ways     int
	lineSize int
	latency  int64
	next     Level

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

// NewCache builds a cache level in front of next. sets and lineSize must
// be powers of two.
func NewCache(name string, sets, ways, lineSize int, latency int64, next Level) (*Cache, error) {
	if sets <= 0 || ways <= 0 || lineSize <= 0 {
		return nil, fmt.Errorf("memsim: bad geometry for %s: sets=%d ways=%d line=%d", name, sets, ways, lineSize)
	}
	if sets&(sets-1) != 0 || lineSize&(lineSize-1) != 0 {
		return nil, fmt.Errorf("memsim: %s: sets (%d) and line size (%d) must be powers of two", name, sets, lineSize)
	}
	if next == nil {
		return nil, fmt.Errorf("memsim: %s has no next level", name)
	}
	return &Cache{
		name: name, sets: sets, ways: ways, lineSize: lineSize,
		latency: latency, next: next,
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

// SizeBytes returns the total capacity.
func (c *Cache) SizeBytes() int { return c.sets * c.ways * c.lineSize }

// Reset clears contents and counters.
func (c *Cache) Reset() {
	clear(c.lines)
	c.stats = Stats{}
}

// Access touches [addr, addr+size), splitting accesses that straddle cache
// lines, and returns the total cost in cycles.
func (c *Cache) Access(addr uint64, size int, store bool) int64 {
	if size <= 0 {
		size = 1
	}
	first := addr >> c.lineShift
	last := (addr + uint64(size) - 1) >> c.lineShift
	if first == last {
		return c.accessLine(first, store)
	}
	var cost int64
	for ln := first; ln <= last; ln++ {
		cost += c.accessLine(ln, store)
	}
	return cost
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
	cost := c.latency + c.next.Access(lineAddr<<c.lineShift, c.lineSize, false)
	if e := set[victim]; e&1 != 0 {
		// Write back the evicted line — to its tag's address in set 0: the
		// set index is dropped. A known model defect carried over as it was,
		// because fixing it moves counts (ROADMAP item 8, "Paper fidelity is a
		// gated number").
		c.stats.Writebacks++
		cost += c.next.Access((e>>1-1)<<c.setShift<<c.lineShift, c.lineSize, true) / 2
	}
	copy(set[1:victim+1], set[:victim])
	set[0] = want | dirty
	return cost
}

// Hierarchy is a convenience bundle: an ordered cache chain plus the DRAM
// backstop, accessed from the innermost level.
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
	h := &Hierarchy{Mem: &DRAM{Latency: dramLatency}}
	var next Level = h.Mem
	// Build outermost first.
	caches := make([]*Cache, len(specs))
	for i := len(specs) - 1; i >= 0; i-- {
		c, err := NewCache(specs[i].Name, specs[i].Sets, specs[i].Ways, specs[i].LineSize, specs[i].Latency, next)
		if err != nil {
			return nil, err
		}
		c.level = i
		caches[i] = c
		next = c
	}
	h.Levels = caches
	return h, nil
}

// Access goes through the innermost level (or straight to DRAM when the
// hierarchy has no caches). The commonest single case — one line, and the
// line its set touched last — is answered here.
func (h *Hierarchy) Access(addr uint64, size int, store bool) int64 {
	if len(h.Levels) == 0 {
		return h.Mem.Access(addr, size, store)
	}
	c := h.Levels[0]
	if first := addr >> c.lineShift; size > 0 && first == (addr+uint64(size)-1)>>c.lineShift {
		if e := &c.lines[int(first&c.setMask)*c.ways]; *e&^1 == c.entry(first) {
			c.stats.Accesses++
			c.stats.Hits++
			if store {
				*e |= 1
			}
			return c.latency
		}
		return c.accessLine(first, store)
	}
	return c.Access(addr, size, store)
}

// Reset clears every level.
func (h *Hierarchy) Reset() {
	for _, c := range h.Levels {
		c.Reset()
	}
	h.Mem.Accesses = 0
}
