package memsim

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func mustCache(t *testing.T, sets, ways, lineSize int, lat int64) (*Cache, *DRAM) {
	t.Helper()
	d := &DRAM{Latency: 100}
	c, err := NewCache("L1", sets, ways, lineSize, lat, d)
	if err != nil {
		t.Fatal(err)
	}
	return c, d
}

func TestCacheHitMiss(t *testing.T) {
	c, _ := mustCache(t, 8, 2, 64, 4)
	if cost := c.Access(0, 4, false); cost != 104 {
		t.Errorf("cold miss cost = %d, want 104", cost)
	}
	if cost := c.Access(0, 4, false); cost != 4 {
		t.Errorf("hit cost = %d, want 4", cost)
	}
	if cost := c.Access(60, 8, false); cost != 4+4+100 {
		// Bytes 60..67 straddle line 0 (hit) and line 1 (miss).
		t.Errorf("straddle cost = %d, want 108", cost)
	}
	st := c.Stats()
	if st.Accesses != 4 || st.Hits != 2 || st.Misses != 2 {
		t.Errorf("stats = %+v", st)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c, _ := mustCache(t, 1, 2, 64, 1) // one set, two ways
	c.Access(0*64, 4, false)          // A
	c.Access(1*64, 4, false)          // B
	c.Access(0*64, 4, false)          // A again (B becomes LRU)
	c.Access(2*64, 4, false)          // C evicts B
	if cost := c.Access(0*64, 4, false); cost != 1 {
		t.Error("A should still be resident")
	}
	if cost := c.Access(1*64, 4, false); cost == 1 {
		t.Error("B should have been evicted")
	}
}

func TestCacheConflictMisses(t *testing.T) {
	// Power-of-two stride equal to sets*lineSize maps every access to the
	// same set: with more lines than ways, every access misses. This is
	// the mechanism behind the paper's NVD-MM-B slowdown on CPUs.
	c, _ := mustCache(t, 8, 4, 64, 4)
	stride := uint64(8 * 64)
	for round := 0; round < 3; round++ {
		for i := uint64(0); i < 8; i++ { // 8 lines, 4 ways → thrash
			c.Access(i*stride, 4, false)
		}
	}
	st := c.Stats()
	if st.Hits != 0 {
		t.Errorf("conflict thrash should never hit; stats = %+v", st)
	}
	// Same footprint with unit stride fits easily.
	c.Reset()
	for round := 0; round < 3; round++ {
		for i := uint64(0); i < 8; i++ {
			c.Access(i*64, 4, false)
		}
	}
	st = c.Stats()
	if st.Hits != 16 {
		t.Errorf("sequential reuse: hits = %d, want 16", st.Hits)
	}
}

func TestCacheWriteback(t *testing.T) {
	c, d := mustCache(t, 1, 1, 64, 1)
	c.Access(0, 4, true)   // dirty line A
	c.Access(64, 4, false) // evicts dirty A → writeback
	if c.Stats().Writebacks != 1 {
		t.Errorf("writebacks = %d, want 1", c.Stats().Writebacks)
	}
	if d.Accesses != 3 { // fetch A, fetch B, writeback A
		t.Errorf("dram accesses = %d, want 3", d.Accesses)
	}
}

func TestHierarchyChain(t *testing.T) {
	h, err := NewHierarchy([]CacheSpec{
		{Name: "L1", Sets: 8, Ways: 2, LineSize: 64, Latency: 4},
		{Name: "L2", Sets: 64, Ways: 4, LineSize: 64, Latency: 12},
	}, 200)
	if err != nil {
		t.Fatal(err)
	}
	cold := h.Access(0, 4, false)
	if cold != 4+12+200 {
		t.Errorf("cold access = %d, want 216", cold)
	}
	if hot := h.Access(0, 4, false); hot != 4 {
		t.Errorf("hot access = %d, want 4", hot)
	}
	// Evict from L1 but not L2: stride covers L1 sets (8·64 = 512B) with
	// 3 lines in a 2-way set; all stay in the larger L2.
	h.Reset()
	for round := 0; round < 2; round++ {
		for i := uint64(0); i < 3; i++ {
			h.Access(i*512, 4, false)
		}
	}
	l2 := h.Levels[1].Stats()
	if l2.Hits == 0 {
		t.Error("L2 should absorb L1 conflict misses")
	}
}

func TestCacheGeometryErrors(t *testing.T) {
	d := &DRAM{Latency: 10}
	if _, err := NewCache("x", 7, 2, 64, 1, d); err == nil {
		t.Error("non-power-of-two sets accepted")
	}
	if _, err := NewCache("x", 8, 0, 64, 1, d); err == nil {
		t.Error("zero ways accepted")
	}
	if _, err := NewCache("x", 8, 2, 48, 1, d); err == nil {
		t.Error("non-power-of-two line accepted")
	}
	if _, err := NewCache("x", 8, 2, 64, 1, nil); err == nil {
		t.Error("nil next level accepted")
	}
}

// line is a way of divCache: a tag with its flags and an LRU timestamp.
type line struct {
	tag   uint64
	valid bool
	dirty bool
	age   uint64
}

// divCache is Cache as it was first written: every way a line record in a
// fixed place, hit and victim found by scanning a set's ways and comparing
// ages, set and tag by dividing by the set count and the line size. Kept
// as the oracle for TestCacheMatchesDivisionForm.
type divCache struct {
	sets, ways, lineSize int
	latency              int64
	next                 Level
	lines                []line
	clock                uint64
	stats                Stats
}

func newDivCache(sets, ways, lineSize int, latency int64, next Level) *divCache {
	return &divCache{sets: sets, ways: ways, lineSize: lineSize, latency: latency, next: next,
		lines: make([]line, sets*ways)}
}

func (c *divCache) Name() string { return "div" }

func (c *divCache) Access(addr uint64, size int, store bool) int64 {
	if size <= 0 {
		size = 1
	}
	var cost int64
	first := addr / uint64(c.lineSize)
	last := (addr + uint64(size) - 1) / uint64(c.lineSize)
	for ln := first; ln <= last; ln++ {
		cost += c.accessLine(ln, store)
	}
	return cost
}

func (c *divCache) accessLine(lineAddr uint64, store bool) int64 {
	c.clock++
	c.stats.Accesses++
	set := int(lineAddr % uint64(c.sets))
	tag := lineAddr / uint64(c.sets)
	base := set * c.ways
	for i := 0; i < c.ways; i++ {
		l := &c.lines[base+i]
		if l.valid && l.tag == tag {
			c.stats.Hits++
			l.age = c.clock
			if store {
				l.dirty = true
			}
			return c.latency
		}
	}
	c.stats.Misses++
	cost := c.latency + c.next.Access(lineAddr*uint64(c.lineSize), c.lineSize, false)
	victim := base
	for i := 0; i < c.ways; i++ {
		l := &c.lines[base+i]
		if !l.valid {
			victim = base + i
			break
		}
		if l.age < c.lines[victim].age {
			victim = base + i
		}
	}
	v := &c.lines[victim]
	if v.valid && v.dirty {
		c.stats.Writebacks++
		cost += c.next.Access(v.tag*uint64(c.sets)*uint64(c.lineSize), c.lineSize, true) / 2
	}
	*v = line{tag: tag, valid: true, dirty: store, age: c.clock}
	return cost
}

// divChain builds the oracle's chain for specs, innermost first, in front
// of dram.
func divChain(specs []CacheSpec, dram *DRAM) []*divCache {
	chain := make([]*divCache, len(specs))
	var next Level = dram
	for i := len(specs) - 1; i >= 0; i-- {
		chain[i] = newDivCache(specs[i].Sets, specs[i].Ways, specs[i].LineSize, specs[i].Latency, next)
		next = chain[i]
	}
	return chain
}

// TestCacheMatchesDivisionForm drives seeded random streams — sizes that
// straddle one or several lines, sizes ≤ 0, loads and stores, stores to the
// line touched last (which must still be written back when it goes),
// addresses that alias in the small first level — through a three-level
// Hierarchy and a chain of divCache, entering now through Hierarchy.Access
// (which answers a hit on a set's most recent line itself) and now through
// the first level's Cache.Access, with a Reset of both half-way: every
// access must cost the same, and every counter of every level and the DRAM
// behind them must be equal before the Reset and at the end.
func TestCacheMatchesDivisionForm(t *testing.T) {
	sizes := []int{-3, 0, 1, 2, 4, 4, 4, 8, 16, 60, 64, 65, 200, 700}
	const accesses = 40000
	for gi, specs := range threeLevels() {
		r := rand.New(rand.NewSource(int64(41 + gi)))
		h, err := NewHierarchy(specs, 100)
		if err != nil {
			t.Fatal(err)
		}
		divDRAM := &DRAM{Latency: 100}
		div := divChain(specs, divDRAM)
		equalCounters := func(when string) {
			t.Helper()
			for li, c := range h.Levels {
				if c.Stats() != div[li].stats {
					t.Errorf("geometry %d, %s: %s counters %+v, division form %+v", gi, when, c.Name(), c.Stats(), div[li].stats)
				}
			}
			if h.Mem.Accesses != divDRAM.Accesses {
				t.Errorf("geometry %d, %s: DRAM accesses %d, division form %d", gi, when, h.Mem.Accesses, divDRAM.Accesses)
			}
			if st := h.Levels[0].Stats(); st.Writebacks == 0 || st.Hits == 0 || st.Misses == 0 {
				t.Errorf("geometry %d, %s: stream proves little: %+v", gi, when, st)
			}
		}
		l1, last := specs[0], specs[len(specs)-1]
		var addr, recent uint64 // recent is the line touched last, as a byte address
		frontStores := 0
		for i := 0; i < accesses; i++ {
			if i == accesses/2 {
				equalCounters("before Reset")
				h.Reset()
				divDRAM.Accesses = 0
				div = divChain(specs, divDRAM)
			}
			size, store := sizes[r.Intn(len(sizes))], r.Intn(3) == 0
			switch r.Intn(6) {
			case 0: // anywhere in a footprint twice the last level
				addr = uint64(r.Intn(2 * last.Sets * last.Ways * last.LineSize))
			case 1: // just below a line boundary, so most sizes straddle
				addr = uint64(r.Intn(1<<12))*uint64(l1.LineSize) + uint64(l1.LineSize-1-r.Intn(4))
			case 2: // a power-of-two stride: one set, many tags
				addr = uint64(r.Intn(64)) * uint64(l1.Sets*l1.LineSize)
			case 3: // high addresses: tags that need the upper bits
				addr = 1<<40 + uint64(r.Intn(1<<16))
			case 4: // a store into the line touched last
				addr, size, store = recent+uint64(r.Intn(l1.LineSize)), 1, true
				frontStores++
			default: // the same line again
				addr = recent + uint64(r.Intn(l1.LineSize))
			}
			recent = (addr + uint64(max(size, 1)) - 1) &^ uint64(l1.LineSize-1)
			access, via := h.Access, "Hierarchy.Access"
			if r.Intn(2) == 0 {
				access, via = h.Levels[0].Access, "Cache.Access"
			}
			if got, want := access(addr, size, store), div[0].Access(addr, size, store); got != want {
				t.Fatalf("geometry %d, access %d (%s, addr %#x, size %d, store %v): cost %d, division form %d",
					gi, i, via, addr, size, store, got, want)
			}
		}
		equalCounters("at the end")
		if frontStores < accesses/10 {
			t.Errorf("geometry %d: only %d stores to the most recent line", gi, frontStores)
		}
	}
	// The shifts are only right for powers of two, which NewCache insists on.
	for _, bad := range []int{3, 6, 12, 48, 100} {
		if _, err := NewCache("x", bad, 2, 64, 1, &DRAM{}); err == nil {
			t.Errorf("%d sets accepted", bad)
		}
		if _, err := NewCache("x", 8, 2, bad, 1, &DRAM{}); err == nil {
			t.Errorf("%d-byte lines accepted", bad)
		}
	}
}

// threeLevels returns the three-level geometries the cache's oracles run
// on: ways from 1 to 16, powers of two and not, lines of one size and of
// several, and SNB's.
func threeLevels() [][]CacheSpec {
	geometries := [][]CacheSpec{
		{{Sets: 8, Ways: 2, LineSize: 64}, {Sets: 64, Ways: 4, LineSize: 64}, {Sets: 128, Ways: 8, LineSize: 64}},
		{{Sets: 1, Ways: 1, LineSize: 16}, {Sets: 4, Ways: 3, LineSize: 128}, {Sets: 8, Ways: 1, LineSize: 128}}, // one set: all tag; a wider line behind a narrower; direct-mapped
		{{Sets: 64, Ways: 8, LineSize: 32}, {Sets: 512, Ways: 16, LineSize: 64}, {Sets: 512, Ways: 16, LineSize: 128}},
		{{Sets: 16, Ways: 3, LineSize: 128}, {Sets: 32, Ways: 5, LineSize: 128}, {Sets: 64, Ways: 16, LineSize: 128}}, // ways need not be a power of two
		{{Sets: 8, Ways: 8, LineSize: 64}, {Sets: 64, Ways: 8, LineSize: 64}, {Sets: 256, Ways: 16, LineSize: 64}},    // SNB
	}
	for _, specs := range geometries {
		for li := range specs {
			specs[li].Name, specs[li].Latency = []string{"L1", "L2", "L3"}[li], []int64{4, 12, 30}[li]
		}
	}
	return geometries
}

// BenchmarkHierarchyWalk walks what one 16×16 work-group of a 128×128
// float matmul makes a CPU core see — item by item, A along a row and B
// down a column, then the store to C — through SNB's hierarchy.
func BenchmarkHierarchyWalk(b *testing.B) {
	const n, tile = 128, 16
	type access struct {
		addr  uint64
		store bool
	}
	var stream []access
	for y := 0; y < tile; y++ {
		for x := 0; x < tile; x++ {
			for k := 0; k < n; k++ {
				stream = append(stream, access{addr: uint64(4 * (y*n + k))}, access{addr: uint64(4 * (n*n + k*n + x))})
			}
			stream = append(stream, access{addr: uint64(4 * (2*n*n + y*n + x)), store: true})
		}
	}
	h, err := NewHierarchy([]CacheSpec{
		{Name: "L1", Sets: 8, Ways: 8, LineSize: 64, Latency: 4},
		{Name: "L2", Sets: 64, Ways: 8, LineSize: 64, Latency: 12},
		{Name: "LLC", Sets: 256, Ways: 16, LineSize: 64, Latency: 28},
	}, 180)
	if err != nil {
		b.Fatal(err)
	}
	var cycles int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, a := range stream {
			cycles += h.Access(a.addr, 4, a.store)
		}
	}
	if cycles == 0 {
		b.Fatal("the walk cost nothing")
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(stream)), "ns/access")
}

func TestCacheStatsProperty(t *testing.T) {
	// Property: hits + misses == accesses for arbitrary access streams.
	check := func(addrs []uint16, stores []bool) bool {
		c, _ := mustCacheQuick()
		for i, a := range addrs {
			st := i < len(stores) && stores[i]
			c.Access(uint64(a), 4, st)
		}
		s := c.Stats()
		return s.Hits+s.Misses == s.Accesses
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func mustCacheQuick() (*Cache, *DRAM) {
	d := &DRAM{Latency: 100}
	c, _ := NewCache("L1", 8, 2, 64, 4, d)
	return c, d
}

func TestCoalesce(t *testing.T) {
	// 32 consecutive 4-byte accesses span one 128B segment.
	var addrs []uint64
	var sizes []int
	for i := 0; i < 32; i++ {
		addrs = append(addrs, uint64(i*4))
		sizes = append(sizes, 4)
	}
	if n := Coalesce(addrs, sizes, 128); n != 1 {
		t.Errorf("sequential coalesce = %d, want 1", n)
	}
	// Stride-512 accesses: every lane its own segment.
	addrs = addrs[:0]
	for i := 0; i < 32; i++ {
		addrs = append(addrs, uint64(i*512))
	}
	if n := Coalesce(addrs, sizes, 128); n != 32 {
		t.Errorf("strided coalesce = %d, want 32", n)
	}
	// Broadcast: all lanes same address.
	addrs = addrs[:0]
	for i := 0; i < 32; i++ {
		addrs = append(addrs, 4096)
	}
	if n := Coalesce(addrs, sizes, 128); n != 1 {
		t.Errorf("broadcast coalesce = %d, want 1", n)
	}
	if n := Coalesce(nil, nil, 128); n != 0 {
		t.Errorf("empty coalesce = %d, want 0", n)
	}
	// A 16-byte access straddling a segment boundary costs 2.
	if n := Coalesce([]uint64{120}, []int{16}, 128); n != 2 {
		t.Errorf("straddle coalesce = %d, want 2", n)
	}
}

func TestBankConflicts(t *testing.T) {
	// Sequential 4B addresses over 32 banks: conflict-free.
	var addrs []uint64
	for i := 0; i < 32; i++ {
		addrs = append(addrs, uint64(i*4))
	}
	if d := BankConflictDegree(addrs, 32, 4); d != 1 {
		t.Errorf("sequential degree = %d, want 1", d)
	}
	// Stride of 32 words: all lanes hit bank 0 → degree 32.
	addrs = addrs[:0]
	for i := 0; i < 32; i++ {
		addrs = append(addrs, uint64(i*32*4))
	}
	if d := BankConflictDegree(addrs, 32, 4); d != 32 {
		t.Errorf("same-bank degree = %d, want 32", d)
	}
	// Broadcast: same address everywhere → no conflict.
	addrs = addrs[:0]
	for i := 0; i < 32; i++ {
		addrs = append(addrs, 64)
	}
	if d := BankConflictDegree(addrs, 32, 4); d != 1 {
		t.Errorf("broadcast degree = %d, want 1", d)
	}
}
