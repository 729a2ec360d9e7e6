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

// divCache is Cache as it was written before the geometry was precomputed
// into shifts and masks: it divides by the set count and the line size on
// every access. Kept as the oracle for TestCacheMatchesDivisionForm.
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

// TestCacheMatchesDivisionForm drives seeded random streams — sizes that
// straddle one or several lines, sizes ≤ 0, loads and stores, addresses
// that alias in the small first level — through a two-level chain of Cache
// and of divCache: every access must cost the same, and every counter of
// both levels and the DRAM behind them must end up equal.
func TestCacheMatchesDivisionForm(t *testing.T) {
	geometries := []struct{ sets1, ways1, line1, sets2, ways2, line2 int }{
		{8, 2, 64, 64, 4, 64},
		{1, 1, 16, 4, 2, 128}, // one set: all tag; a wider line behind a narrower
		{64, 8, 32, 512, 16, 64},
		{16, 3, 128, 32, 5, 128}, // ways need not be a power of two
	}
	sizes := []int{-3, 0, 1, 2, 4, 4, 4, 8, 16, 60, 64, 65, 200, 700}
	for gi, geo := range geometries {
		r := rand.New(rand.NewSource(int64(41 + gi)))
		dram, divDRAM := &DRAM{Latency: 100}, &DRAM{Latency: 100}
		l2, err := NewCache("L2", geo.sets2, geo.ways2, geo.line2, 12, dram)
		if err != nil {
			t.Fatal(err)
		}
		l1, err := NewCache("L1", geo.sets1, geo.ways1, geo.line1, 4, l2)
		if err != nil {
			t.Fatal(err)
		}
		div2 := newDivCache(geo.sets2, geo.ways2, geo.line2, 12, divDRAM)
		div1 := newDivCache(geo.sets1, geo.ways1, geo.line1, 4, div2)
		for i := 0; i < 20000; i++ {
			var addr uint64
			switch r.Intn(4) {
			case 0: // anywhere in a footprint a few times the second level
				addr = uint64(r.Intn(8 * geo.sets2 * geo.ways2 * geo.line2))
			case 1: // just below a line boundary, so most sizes straddle
				addr = uint64(r.Intn(1<<12))*uint64(geo.line1) + uint64(geo.line1-1-r.Intn(4))
			case 2: // a power-of-two stride: one set, many tags
				addr = uint64(r.Intn(64)) * uint64(geo.sets1*geo.line1)
			default: // high addresses: tags that need the upper bits
				addr = 1<<40 + uint64(r.Intn(1<<16))
			}
			size, store := sizes[r.Intn(len(sizes))], r.Intn(3) == 0
			if got, want := l1.Access(addr, size, store), div1.Access(addr, size, store); got != want {
				t.Fatalf("geometry %d, access %d (addr %#x, size %d, store %v): cost %d, division form %d",
					gi, i, addr, size, store, got, want)
			}
		}
		if l1.Stats() != div1.stats || l2.Stats() != div2.stats || dram.Accesses != divDRAM.Accesses {
			t.Errorf("geometry %d: counters differ:\n L1 %+v / %+v\n L2 %+v / %+v\n DRAM %d / %d",
				gi, l1.Stats(), div1.stats, l2.Stats(), div2.stats, dram.Accesses, divDRAM.Accesses)
		}
		if st := l1.Stats(); st.Writebacks == 0 || st.Hits == 0 || st.Misses == 0 {
			t.Errorf("geometry %d: stream proves little: %+v", gi, st)
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
