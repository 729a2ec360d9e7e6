package memsim

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// mustCache builds a hierarchy of one level in front of a 100-cycle DRAM
// and returns the level and the DRAM.
func mustCache(t *testing.T, sets, ways, lineSize int, lat int64) (*Hierarchy, *Cache, *DRAM) {
	t.Helper()
	h := mustHierarchy(t, []CacheSpec{{Name: "L1", Sets: sets, Ways: ways, LineSize: lineSize, Latency: lat}})
	return h, h.Levels[0], h.Mem
}

// access walks h through one access of size bytes at addr.
func access(h *Hierarchy, addr uint64, size int, store bool) int64 {
	return h.Walk(AppendLines(nil, addr, size, store, h.LineShift()))
}

func TestCacheHitMiss(t *testing.T) {
	h, c, _ := mustCache(t, 8, 2, 64, 4)
	if cost := access(h, 0, 4, false); cost != 104 {
		t.Errorf("cold miss cost = %d, want 104", cost)
	}
	if cost := access(h, 0, 4, false); cost != 4 {
		t.Errorf("hit cost = %d, want 4", cost)
	}
	if cost := access(h, 60, 8, false); cost != 4+4+100 {
		// Bytes 60..67 straddle line 0 (hit) and line 1 (miss).
		t.Errorf("straddle cost = %d, want 108", cost)
	}
	st := c.Stats()
	if st.Accesses != 4 || st.Hits != 2 || st.Misses != 2 {
		t.Errorf("stats = %+v", st)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	h, _, _ := mustCache(t, 1, 2, 64, 1) // one set, two ways
	access(h, 0*64, 4, false)            // A
	access(h, 1*64, 4, false)            // B
	access(h, 0*64, 4, false)            // A again (B becomes LRU)
	access(h, 2*64, 4, false)            // C evicts B
	if cost := access(h, 0*64, 4, false); cost != 1 {
		t.Error("A should still be resident")
	}
	if cost := access(h, 1*64, 4, false); cost == 1 {
		t.Error("B should have been evicted")
	}
}

func TestCacheConflictMisses(t *testing.T) {
	// Power-of-two stride equal to sets*lineSize maps every access to the
	// same set: with more lines than ways, every access misses. This is
	// the mechanism behind the paper's NVD-MM-B slowdown on CPUs.
	h, c, _ := mustCache(t, 8, 4, 64, 4)
	stride := uint64(8 * 64)
	for round := 0; round < 3; round++ {
		for i := uint64(0); i < 8; i++ { // 8 lines, 4 ways → thrash
			access(h, i*stride, 4, false)
		}
	}
	st := c.Stats()
	if st.Hits != 0 {
		t.Errorf("conflict thrash should never hit; stats = %+v", st)
	}
	// Same footprint with unit stride fits easily.
	h.Reset()
	for round := 0; round < 3; round++ {
		for i := uint64(0); i < 8; i++ {
			access(h, i*64, 4, false)
		}
	}
	st = c.Stats()
	if st.Hits != 16 {
		t.Errorf("sequential reuse: hits = %d, want 16", st.Hits)
	}
}

func TestCacheWriteback(t *testing.T) {
	h, c, d := mustCache(t, 1, 1, 64, 1)
	access(h, 0, 4, true)   // dirty line A
	access(h, 64, 4, false) // evicts dirty A → writeback
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
	cold := access(h, 0, 4, false)
	if cold != 4+12+200 {
		t.Errorf("cold access = %d, want 216", cold)
	}
	if hot := access(h, 0, 4, false); hot != 4 {
		t.Errorf("hot access = %d, want 4", hot)
	}
	// Evict from L1 but not L2: stride covers L1 sets (8·64 = 512B) with
	// 3 lines in a 2-way set; all stay in the larger L2.
	h.Reset()
	for round := 0; round < 2; round++ {
		for i := uint64(0); i < 3; i++ {
			access(h, i*512, 4, false)
		}
	}
	l2 := h.Levels[1].Stats()
	if l2.Hits == 0 {
		t.Error("L2 should absorb L1 conflict misses")
	}
	// Without a cache an access of any size is one DRAM access.
	h = mustHierarchy(t, nil)
	if cost := access(h, 60, 700, true); cost != 100 || h.Mem.Accesses != 1 {
		t.Errorf("cacheless access = %d with %d DRAM accesses, want 100 with 1", cost, h.Mem.Accesses)
	}
}

func TestCacheGeometryErrors(t *testing.T) {
	for _, tc := range []struct {
		spec CacheSpec
		what string
	}{
		{CacheSpec{Sets: 7, Ways: 2, LineSize: 64}, "non-power-of-two sets"},
		{CacheSpec{Sets: 8, Ways: 0, LineSize: 64}, "zero ways"},
		{CacheSpec{Sets: 8, Ways: 2, LineSize: 48}, "non-power-of-two line"},
	} {
		good := CacheSpec{Sets: 8, Ways: 2, LineSize: 64}
		if _, err := NewHierarchy([]CacheSpec{good, tc.spec}, 10); err == nil {
			t.Errorf("%s accepted", tc.what)
		}
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
// ages, set and tag by dividing by the set count and the line size, and an
// access split into lines by dividing too. A miss goes to next, or to dram
// after the last level. Kept as the oracle for TestCacheMatchesDivisionForm
// and TestMemoMatchesPlainWalk.
type divCache struct {
	sets, ways, lineSize int
	latency              int64
	next                 *divCache
	dram                 *DRAM
	lines                []line
	clock                uint64
	stats                Stats
}

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

// below charges what follows c an access of one of c's lines.
func (c *divCache) below(addr uint64, store bool) int64 {
	if c.next != nil {
		return c.next.Access(addr, c.lineSize, store)
	}
	c.dram.Accesses++
	return c.dram.Latency
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
	cost := c.latency + c.below(lineAddr*uint64(c.lineSize), false)
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
		cost += c.below(v.tag*uint64(c.sets)*uint64(c.lineSize), true) / 2
	}
	*v = line{tag: tag, valid: true, dirty: store, age: c.clock}
	return cost
}

// contents renders the sets as Cache holds them: each set's lines most
// recent first as (tag+1)<<1 | dirty, empty ways trailing as 0.
func (c *divCache) contents() []uint64 {
	out := make([]uint64, len(c.lines))
	for base := 0; base < len(c.lines); base += c.ways {
		set := slices.Clone(c.lines[base : base+c.ways])
		slices.SortFunc(set, func(a, b line) int { return cmp.Compare(b.age, a.age) })
		for i, l := range set {
			if l.valid {
				out[base+i] = (l.tag + 1) << 1
			}
			if l.dirty {
				out[base+i] |= 1
			}
		}
	}
	return out
}

// divChain builds the oracle's chain for specs, innermost first, in front
// of dram.
func divChain(specs []CacheSpec, dram *DRAM) []*divCache {
	chain := make([]*divCache, len(specs))
	for i := len(specs) - 1; i >= 0; i-- {
		chain[i] = &divCache{sets: specs[i].Sets, ways: specs[i].Ways, lineSize: specs[i].LineSize,
			latency: specs[i].Latency, dram: dram, lines: make([]line, specs[i].Sets*specs[i].Ways)}
		if i+1 < len(specs) {
			chain[i].next = chain[i+1]
		}
	}
	return chain
}

// TestCacheMatchesDivisionForm drives seeded random streams — sizes that
// straddle one or several lines, sizes ≤ 0, 64- and 128-byte segments,
// loads and stores, stores to the line touched last (which must still be
// written back when it goes), addresses that alias in the small first
// level — through Hierarchy.Walk on every geometry and through a chain of
// divCache, with a Reset of both half-way. The hierarchy is walked through
// one to four accesses' packed lines at a time and the oracle through the
// same accesses one by one: every walk must cost what they cost, and every
// counter of every level and the DRAM behind them must be equal before the
// Reset and at the end.
func TestCacheMatchesDivisionForm(t *testing.T) {
	sizes := []int{-3, 0, 1, 2, 4, 4, 4, 8, 16, 60, 64, 65, 200, 700}
	const accesses = 40000
	for gi, specs := range geometries() {
		r := rand.New(rand.NewSource(int64(41 + gi)))
		h := mustHierarchy(t, specs)
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
		var q []uint64
		frontStores, spans := 0, 0
		for half := 0; half < 2; half++ {
			if half == 1 {
				equalCounters("before Reset")
				h.Reset()
				divDRAM.Accesses = 0
				div = divChain(specs, divDRAM)
			}
			for i := 0; i < accesses/2; {
				q = q[:0]
				var want int64
				for k := 1 + r.Intn(4); k > 0; k, i = k-1, i+1 {
					size, store := sizes[r.Intn(len(sizes))], r.Intn(3) == 0
					switch r.Intn(7) {
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
					case 5: // a GPU segment: 64 or 128 aligned bytes
						size = 64 << r.Intn(2)
						addr = uint64(r.Intn(1<<10) * size)
					default: // the same line again
						addr = recent + uint64(r.Intn(l1.LineSize))
					}
					recent = (addr + uint64(max(size, 1)) - 1) &^ uint64(l1.LineSize-1)
					before := len(q)
					if q = AppendLines(q, addr, size, store, h.LineShift()); len(q)-before > 1 {
						spans++
					}
					want += div[0].Access(addr, size, store)
				}
				if got := h.Walk(q); got != want {
					t.Fatalf("geometry %d, half %d, before access %d: a walk of %d lines costs %d, division form %d",
						gi, half, i, len(q), got, want)
				}
			}
		}
		equalCounters("at the end")
		if frontStores < accesses/10 || spans < accesses/10 {
			t.Errorf("geometry %d: only %d stores to the most recent line, %d accesses over several lines", gi, frontStores, spans)
		}
	}
	// The shifts are only right for powers of two, which NewHierarchy
	// insists on.
	for _, bad := range []int{3, 6, 12, 48, 100} {
		if _, err := NewHierarchy([]CacheSpec{{Sets: bad, Ways: 2, LineSize: 64}}, 1); err == nil {
			t.Errorf("%d sets accepted", bad)
		}
		if _, err := NewHierarchy([]CacheSpec{{Sets: 8, Ways: 2, LineSize: bad}}, 1); err == nil {
			t.Errorf("%d-byte lines accepted", bad)
		}
	}
}

// geometries returns the geometries the cache's oracles run on: ways from
// 1 to 16, powers of two and not, lines of one size and of several — wider
// behind narrower and narrower behind wider — and SNB's and Tahiti's
// (64-byte segments over 128-byte lines).
func geometries() [][]CacheSpec {
	geometries := [][]CacheSpec{
		{{Sets: 8, Ways: 2, LineSize: 64}, {Sets: 64, Ways: 4, LineSize: 64}, {Sets: 128, Ways: 8, LineSize: 64}},
		{{Sets: 1, Ways: 1, LineSize: 16}, {Sets: 4, Ways: 3, LineSize: 128}, {Sets: 8, Ways: 1, LineSize: 128}}, // one set: all tag; a wider line behind a narrower; direct-mapped
		{{Sets: 64, Ways: 8, LineSize: 32}, {Sets: 512, Ways: 16, LineSize: 64}, {Sets: 512, Ways: 16, LineSize: 128}},
		{{Sets: 16, Ways: 3, LineSize: 128}, {Sets: 32, Ways: 5, LineSize: 128}, {Sets: 64, Ways: 16, LineSize: 128}}, // ways need not be a power of two
		{{Sets: 8, Ways: 8, LineSize: 64}, {Sets: 64, Ways: 8, LineSize: 64}, {Sets: 256, Ways: 16, LineSize: 64}},    // SNB
		{{Sets: 32, Ways: 4, LineSize: 128}, {Sets: 32, Ways: 6, LineSize: 128}},                                      // Tahiti
		{{Sets: 16, Ways: 2, LineSize: 128}, {Sets: 64, Ways: 4, LineSize: 32}, {Sets: 128, Ways: 4, LineSize: 64}},   // narrower lines behind a wider
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
	h, err := NewHierarchy([]CacheSpec{
		{Name: "L1", Sets: 8, Ways: 8, LineSize: 64, Latency: 4},
		{Name: "L2", Sets: 64, Ways: 8, LineSize: 64, Latency: 12},
		{Name: "LLC", Sets: 256, Ways: 16, LineSize: 64, Latency: 28},
	}, 180)
	if err != nil {
		b.Fatal(err)
	}
	var q []uint64
	for y := 0; y < tile; y++ {
		for x := 0; x < tile; x++ {
			for k := 0; k < n; k++ {
				q = AppendLines(q, uint64(4*(y*n+k)), 4, false, h.LineShift())
				q = AppendLines(q, uint64(4*(n*n+k*n+x)), 4, false, h.LineShift())
			}
			q = AppendLines(q, uint64(4*(2*n*n+y*n+x)), 4, true, h.LineShift())
		}
	}
	var cycles int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycles += h.Walk(q)
	}
	if cycles == 0 {
		b.Fatal("the walk cost nothing")
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(q)), "ns/access")
}

func TestCacheStatsProperty(t *testing.T) {
	// Property: hits + misses == accesses for arbitrary access streams.
	check := func(addrs []uint16, stores []bool) bool {
		h, c, _ := mustCache(t, 8, 2, 64, 4)
		for i, a := range addrs {
			st := i < len(stores) && stores[i]
			access(h, uint64(a), 4, st)
		}
		s := c.Stats()
		return s.Hits+s.Misses == s.Accesses
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
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
