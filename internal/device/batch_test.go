package device

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"grover/internal/clc"
	"grover/internal/enginetest"
	"grover/internal/ir"
	"grover/internal/memsim"
	"grover/internal/vm"
	"grover/internal/wgvec"
)

// A recorded trace: what one worker's tracer was told, call by call.

type evKind int

const (
	evGroupBegin evKind = iota
	evAccess
	evInstrs
	evBarrier
	evGroupEnd
)

type event struct {
	kind  evKind
	in    *ir.Instr
	wi    int // evGroupBegin: the group's linear id; evBarrier: the work-item count
	addr  uint64
	size  int
	store bool
	n     int64
}

// recorder is a vm.AccessTracer, so engines deliver to it per access.
type recorder struct{ evs []event }

func (r *recorder) GroupBegin(_ [3]int, linear int) {
	r.evs = append(r.evs, event{kind: evGroupBegin, wi: linear})
}
func (r *recorder) Access(in *ir.Instr, wi int, addr uint64, size int, store bool) {
	r.evs = append(r.evs, event{kind: evAccess, in: in, wi: wi, addr: addr, size: size, store: store})
}
func (r *recorder) Barrier(n int) { r.evs = append(r.evs, event{kind: evBarrier, wi: n}) }
func (r *recorder) Instrs(wi int, n int64) {
	r.evs = append(r.evs, event{kind: evInstrs, wi: wi, n: n})
}
func (r *recorder) GroupEnd() { r.evs = append(r.evs, event{kind: evGroupEnd}) }

// feedPerAccess replays a recorded stream call by call: how the reference
// model is fed.
func feedPerAccess(tr vm.AccessTracer, evs []event) {
	for _, e := range evs {
		switch e.kind {
		case evGroupBegin:
			tr.GroupBegin([3]int{}, e.wi)
		case evAccess:
			tr.Access(e.in, e.wi, e.addr, e.size, e.store)
		case evInstrs:
			tr.Instrs(e.wi, e.n)
		case evBarrier:
			tr.Barrier(e.wi)
		case evGroupEnd:
			tr.GroupEnd()
		}
	}
}

// feedBatches replays a recorded stream a barrier region at a time in
// records alone, the interpreter's form: one batch shaped for the whole
// group of n items.
func feedBatches(tr vm.BatchTracer, evs []event, n int) {
	var b vm.AccessBatch
	for _, e := range evs {
		switch e.kind {
		case evGroupBegin:
			b.Reset(n)
			tr.GroupBegin([3]int{}, e.wi)
		case evAccess:
			b.Items[e.wi] = append(b.Items[e.wi],
				vm.AccessRec{Addr: e.addr, Instr: b.Intern(e.in), Size: int32(e.size), Store: e.store})
		case evInstrs:
			b.Retired[e.wi] += e.n
		case evBarrier:
			tr.AccessBatch(&b)
			b.Clear()
			tr.Barrier(e.wi)
		case evGroupEnd:
			tr.AccessBatch(&b)
			b.Clear()
			tr.GroupEnd()
		}
	}
}

// feedMixed replays a recorded stream a barrier region at a time in the
// form a lockstep engine records: an access every work-item of the group
// makes with the same instruction, size and direction becomes an op —
// marked Private, without a column, when they all make it at one and the
// same private address, else with a column of addresses — everything else
// a record stamped with the ops before it. The ops are a common subsequence
// of the items' streams, found greedily along item 0's: its next access
// becomes an op if every other item still has one like it to come, and
// whatever those items do before theirs becomes records. It returns how
// many ops with a column, private ops and records it fed.
func feedMixed(tr vm.BatchTracer, evs []event, n int) (ops, priv, recs int) {
	var b vm.AccessBatch
	items := make([][]event, n)
	record := func(e event) {
		b.Items[e.wi] = append(b.Items[e.wi], vm.AccessRec{Addr: e.addr, Instr: b.Intern(e.in),
			Size: int32(e.size), Seq: int32(len(b.Ops)), Store: e.store})
		recs++
	}
	// like returns the index of item's first access with e's instruction,
	// size and direction, or -1.
	like := func(item []event, e event) int {
		for i, o := range item {
			if o.in == e.in && o.size == e.size && o.store == e.store {
				return i
			}
		}
		return -1
	}
	deliver := func() {
		at := make([]int, n)
	item0:
		for len(items[0]) > 0 {
			e := items[0][0]
			for wi := range items {
				if at[wi] = like(items[wi], e); at[wi] < 0 {
					record(e)
					items[0] = items[0][1:]
					continue item0
				}
			}
			for wi := range items {
				for _, o := range items[wi][:at[wi]] {
					record(o)
				}
			}
			space, off := vm.SplitAddr(e.addr)
			private := space == clc.ASPrivate
			for wi := range items {
				private = private && items[wi][at[wi]].addr == e.addr
			}
			var col []uint64
			if private {
				b.AppendPrivate(e.in, int32(e.size), e.store, off)
				priv++
			} else {
				col = b.AppendOp(e.in, int32(e.size), e.store)
				ops++
			}
			for wi := range items {
				if !private {
					col[wi] = items[wi][at[wi]].addr
				}
				items[wi] = items[wi][at[wi]+1:]
			}
		}
		for wi := range items {
			for _, o := range items[wi] {
				record(o)
			}
			items[wi] = items[wi][:0]
		}
		tr.AccessBatch(&b)
		b.Clear()
	}
	for _, e := range evs {
		switch e.kind {
		case evGroupBegin:
			b.Reset(n)
			tr.GroupBegin([3]int{}, e.wi)
		case evAccess:
			items[e.wi] = append(items[e.wi], e)
		case evInstrs:
			b.Retired[e.wi] += e.n
		case evBarrier:
			deliver()
			tr.Barrier(e.wi)
		case evGroupEnd:
			deliver()
			tr.GroupEnd()
		}
	}
	return ops, priv, recs
}

// refWorker is the per-access device model this package had before the
// batch seam — pointer-carrying records, maps and all — kept as the
// oracle for the simulated numbers.
type refWorker struct {
	prof *Profile
	hier *memsim.Hierarchy

	cycles, instrs, accesses, transactions int64

	group    [][]refAccess
	wiInstrs []int64
	groupN   int
	q        []uint64
}

// walk charges the hierarchy one access — one segment on a GPU — alone.
func (w *refWorker) walk(addr uint64, size int, store bool) int64 {
	w.q = memsim.AppendLines(w.q[:0], addr, size, store, w.hier.LineShift())
	return w.hier.Walk(w.q)
}

type refAccess struct {
	in    *ir.Instr
	addr  uint64
	size  int
	store bool
	space clc.AddrSpace
}

func (w *refWorker) GroupBegin([3]int, int) {
	w.group, w.wiInstrs, w.groupN = w.group[:0], w.wiInstrs[:0], 0
}

func (w *refWorker) Access(in *ir.Instr, wi int, addr uint64, size int, store bool) {
	w.accesses++
	space, off := vm.SplitAddr(addr)
	if w.prof.Kind == CPUKind {
		switch space {
		case clc.ASPrivate:
			w.cycles += w.prof.PrivCost
		case clc.ASLocal:
			w.cycles += w.walk(localBase+off, size, store)
		default:
			w.cycles += w.walk(off, size, store)
		}
		return
	}
	for wi >= len(w.group) {
		w.group = append(w.group, nil)
	}
	w.group[wi] = append(w.group[wi], refAccess{in: in, addr: addr, size: size, store: store, space: space})
	w.groupN = max(w.groupN, wi+1)
}

func (w *refWorker) Barrier(wiCount int) {
	if w.prof.Kind == CPUKind {
		w.cycles += int64(wiCount) * w.prof.BarrierCost
		return
	}
	warps := (wiCount + w.prof.WarpWidth - 1) / w.prof.WarpWidth
	w.cycles += int64(warps) * w.prof.BarrierCost
}

func (w *refWorker) Instrs(wi int, n int64) {
	w.instrs += n
	if w.prof.Kind == CPUKind {
		w.cycles += int64(float64(n) * w.prof.IssueCost)
		return
	}
	for wi >= len(w.wiInstrs) {
		w.wiInstrs = append(w.wiInstrs, 0)
	}
	w.wiInstrs[wi] += n
	w.groupN = max(w.groupN, wi+1)
}

func (w *refWorker) GroupEnd() {
	if w.prof.Kind != GPUKind {
		return
	}
	ww := w.prof.WarpWidth
	for lo := 0; lo < w.groupN; lo += ww {
		w.processWarp(lo, min(lo+ww, w.groupN))
	}
}

func (w *refWorker) processWarp(lo, hi int) {
	var maxInstr int64
	for wi := lo; wi < hi && wi < len(w.wiInstrs); wi++ {
		maxInstr = max(maxInstr, w.wiInstrs[wi])
	}
	w.cycles += int64(float64(maxInstr) * w.prof.IssueCost)
	maxLen := 0
	for wi := lo; wi < hi && wi < len(w.group); wi++ {
		maxLen = max(maxLen, len(w.group[wi]))
	}
	for k := 0; k < maxLen; k++ {
		var addrs []uint64
		var sizes []int
		var first *ir.Instr
		uniform := true
		var store bool
		var space clc.AddrSpace
		for wi := lo; wi < hi && wi < len(w.group); wi++ {
			lane := w.group[wi]
			if k >= len(lane) {
				continue
			}
			a := lane[k]
			if first == nil {
				first, store, space = a.in, a.store, a.space
			} else if a.in != first {
				uniform = false
			}
			_, off := vm.SplitAddr(a.addr)
			addrs = append(addrs, off)
			sizes = append(sizes, a.size)
		}
		if len(addrs) == 0 {
			continue
		}
		if !uniform {
			for i, a := range addrs {
				w.chargeWarpAccess([]uint64{a}, sizes[i:i+1], space, store)
			}
			continue
		}
		w.chargeWarpAccess(addrs, sizes, space, store)
	}
}

func (w *refWorker) chargeWarpAccess(addrs []uint64, sizes []int, space clc.AddrSpace, store bool) {
	switch space {
	case clc.ASPrivate:
		w.cycles += w.prof.PrivCost
	case clc.ASLocal:
		perBank := map[uint64]map[uint64]struct{}{}
		for _, a := range addrs {
			word := (localBase + a) / uint64(w.prof.BankWidth)
			b := word % uint64(w.prof.SPMBanks)
			if perBank[b] == nil {
				perBank[b] = map[uint64]struct{}{}
			}
			perBank[b][word] = struct{}{}
		}
		deg := 1
		for _, m := range perBank {
			deg = max(deg, len(m))
		}
		w.cycles += int64(deg) * w.prof.SPMLat
	default:
		seen := map[uint64]struct{}{}
		for i, a := range addrs {
			firstSeg := a / uint64(w.prof.Segment)
			lastSeg := (a + uint64(sizes[i]) - 1) / uint64(w.prof.Segment)
			for s := firstSeg; s <= lastSeg; s++ {
				if _, ok := seen[s]; ok {
					continue
				}
				seen[s] = struct{}{}
				w.cycles += w.prof.TransCost + w.walk(s*uint64(w.prof.Segment), w.prof.Segment, store)
			}
		}
		w.transactions += int64(len(seen))
	}
}

// refResult runs each core's stream through the reference model and sums
// up like Simulator.Result.
func refResult(t *testing.T, p *Profile, streams [][]event) Result {
	t.Helper()
	var r Result
	for wi, evs := range streams {
		h, err := memsim.NewHierarchy(p.Caches, p.DRAMLatency)
		if err != nil {
			t.Fatal(err)
		}
		w := &refWorker{prof: p, hier: h}
		feedPerAccess(w, evs)
		r.Cycles = max(r.Cycles, w.cycles)
		r.TotalCycles += w.cycles
		r.Instrs += w.instrs
		r.Accesses += w.accesses
		r.Transactions += w.transactions
		for li, c := range h.Levels {
			if wi == 0 {
				r.Caches = append(r.Caches, LevelStats{Name: c.Name()})
			}
			r.Caches[li].Add(c.Stats())
		}
		r.DRAMAccesses += h.Mem.Accesses
	}
	r.TimeMS = float64(r.Cycles) / (p.FreqGHz * 1e6)
	return r
}

// deliveries holds one simulator per way of delivering a stream. They are
// reused (Reset) from check to check, so buffers sized by one stream's
// groups meet the next stream's.
type deliveries struct {
	prof           *Profile
	batched, mixed *Simulator
	// What feedMixed made of the streams so far.
	ops, priv, recs int
}

func newDeliveries(t *testing.T, p *Profile) *deliveries {
	t.Helper()
	d := &deliveries{prof: p}
	for _, s := range []**Simulator{&d.batched, &d.mixed} {
		sim, err := NewSimulator(p)
		if err != nil {
			t.Fatal(err)
		}
		*s = sim
	}
	return d
}

// onCore stamps a generated stream's groups with the linear ids a launch
// gives the groups of core c on a device of that many cores: c, c+cores, …
func onCore(evs []event, c, cores int) []event {
	for i := range evs {
		if evs[i].kind == evGroupBegin {
			evs[i].wi = c
			c += cores
		}
	}
	return evs
}

// simResult feeds each core's stream to the simulator's tracer, one stream
// after the other: a core waits for no group but its own.
func simResult(sim *Simulator, streams [][]event, feed func(vm.BatchTracer, []event)) Result {
	sim.Reset()
	tr := sim.Opts().TracerFor(0).(vm.BatchTracer)
	for _, evs := range streams {
		feed(tr, evs)
	}
	return sim.Result()
}

// run delivers the streams (groups of n work-items) as batches of records
// and as batches of columns and records.
func (d *deliveries) run(streams [][]event, n int) (batched, mixed Result) {
	batched = simResult(d.batched, streams, func(tr vm.BatchTracer, evs []event) { feedBatches(tr, evs, n) })
	mixed = simResult(d.mixed, streams, func(tr vm.BatchTracer, evs []event) {
		ops, priv, recs := feedMixed(tr, evs, n)
		d.ops, d.priv, d.recs = d.ops+ops, d.priv+priv, d.recs+recs
	})
	return batched, mixed
}

// memoized sums what the CPU walk of each delivery's simulator charged
// without a walk in its last run.
func (d *deliveries) memoized() (batched, mixed int64) {
	return simMemoized(d.batched), simMemoized(d.mixed)
}

func simMemoized(sim *Simulator) int64 {
	var n int64
	for _, w := range sim.cores {
		n += w.memoized
	}
	return n
}

// check requires the reference model and all deliveries to agree on
// every counter, and returns the agreed Result.
func (d *deliveries) check(t *testing.T, streams [][]event, n int) Result {
	t.Helper()
	want := refResult(t, d.prof, streams)
	batched, mixed := d.run(streams, n)
	if !reflect.DeepEqual(batched, want) {
		t.Errorf("%s: batch delivery\n got %+v\nwant %+v", d.prof.Name, batched, want)
	}
	if !reflect.DeepEqual(mixed, want) {
		t.Errorf("%s: column delivery\n got %+v\nwant %+v", d.prof.Name, mixed, want)
	}
	if want.Accesses == 0 || want.Cycles == 0 {
		t.Errorf("%s: empty stream proves nothing: %+v", d.prof.Name, want)
	}
	return want
}

// streamShape says how far a random stream's work-items stray from
// lockstep, as one-in-N odds (0: never): an item sits a region out, stops
// early, or picks another instruction at one position.
type streamShape struct{ idle, short, diverge int }

// ragged strays in every way at once; hardly any access of such a stream
// is converged.
var ragged = streamShape{idle: 9, short: 3, diverge: 16}

func (s streamShape) String() string { return fmt.Sprintf("%d/%d/%d", s.idle, s.short, s.diverge) }

func oneIn(r *rand.Rand, n int) bool { return n > 0 && r.Intn(n) == 0 }

// randomStream draws one core's stream of a few groups of n items.
// As far as the shape has them stray, lanes are ragged (different access
// counts per item and region, some items idle) and positions diverge (an
// item may pick another instruction); spaces, sizes and directions are
// mixed.
func randomStream(r *rand.Rand, n int, instrs []*ir.Instr, sizes []int, shape streamShape) []event {
	var evs []event
	for g := 0; g < 3; g++ {
		evs = append(evs, event{kind: evGroupBegin})
		regions := 1 + r.Intn(3)
		for reg := 0; reg < regions; reg++ {
			// The region's common access sequence.
			type step struct {
				in     *ir.Instr
				space  clc.AddrSpace
				base   uint64
				stride uint64
				size   int
				store  bool
			}
			steps := make([]step, 1+r.Intn(12))
			for i := range steps {
				steps[i] = step{
					in:     instrs[r.Intn(len(instrs))],
					space:  []clc.AddrSpace{clc.ASGlobal, clc.ASGlobal, clc.ASLocal, clc.ASPrivate}[r.Intn(4)],
					base:   uint64(r.Intn(1<<18)) &^ 3,
					stride: uint64([]int{0, 4, 4, 8, 128, 132, 4096}[r.Intn(7)]),
					size:   sizes[r.Intn(len(sizes))],
					store:  r.Intn(3) == 0,
				}
			}
			for wi := 0; wi < n; wi++ {
				if oneIn(r, shape.idle) {
					continue // an idle item: no accesses, nothing retired
				}
				count := len(steps)
				if oneIn(r, shape.short) {
					count = r.Intn(len(steps) + 1)
				}
				for k := 0; k < count; k++ {
					s := steps[k]
					if oneIn(r, shape.diverge) {
						s = steps[r.Intn(len(steps))] // diverge at this position
					}
					addr := vm.MakeAddr(s.space, s.base+uint64(wi)*s.stride)
					evs = append(evs, event{kind: evAccess, in: s.in, wi: wi, addr: addr, size: s.size, store: s.store})
				}
				if ret := int64(r.Intn(40)); ret > 0 {
					evs = append(evs, event{kind: evInstrs, wi: wi, n: ret})
				}
			}
			if reg+1 < regions {
				evs = append(evs, event{kind: evBarrier, wi: n})
			}
		}
		evs = append(evs, event{kind: evGroupEnd})
	}
	return evs
}

// skipRejoinStream is one group of n items in which lanes leave lockstep
// and come back: the even items below 40 make an access of their own, then
// all make one together, then the first five another of their own, then
// all two more together. A warp holding such items aligns its lanes by
// position, so after the first access its even lanes are a position ahead
// of its odd ones for good; a warp without is one instruction per position.
func skipRejoinStream(n int, instrs []*ir.Instr) []event {
	evs := []event{{kind: evGroupBegin}}
	for wi := 0; wi < n; wi++ {
		access := func(in int, space clc.AddrSpace, off uint64, store bool) {
			evs = append(evs, event{kind: evAccess, in: instrs[in], wi: wi, addr: vm.MakeAddr(space, off), size: 4, store: store})
		}
		u := uint64(wi)
		if wi%2 == 0 && wi < 40 {
			access(0, clc.ASGlobal, 1<<16+512*u, false)
		}
		access(1, clc.ASGlobal, 4*u, false)
		if wi < 5 {
			access(2, clc.ASLocal, 128*u, true)
		}
		access(3, clc.ASLocal, 4*u, true)
		access(4, clc.ASGlobal, 1<<20+132*u, true)
		evs = append(evs, event{kind: evInstrs, wi: wi, n: int64(10 + wi%3)})
	}
	return append(evs, event{kind: evGroupEnd})
}

// privateVarsStream is one group of n items that access private variables
// in lockstep — every item at the same private address, which the column
// delivery turns into ops without a column — in every place such an op can
// take. Region one: a private access first, between two converged ones and
// last, and before the one in the middle items 8 to 12 make an access of
// their own, so their records' Seq falls on a private op and their warp is
// charged lane by lane, its lanes a position apart, while the other warps
// run on the columns. The global accesses of the region are 4 KiB apart —
// one set of a CPU's L1 and L2, thrashing — and the converged one after an
// item's own goes back seven lines, to the line next to be evicted: whether
// it hits depends on the record having been placed before it, by op index
// and not by column. Region two: private accesses and nothing
// else, so not a single column. Region three: a converged private access
// at a different address per item, which keeps its column, next to one at a
// shared address, and an access of every third item's own at the very end.
func privateVarsStream(n int, instrs []*ir.Instr) []event {
	evs := []event{{kind: evGroupBegin}}
	region := func(body func(wi int, access func(in int, space clc.AddrSpace, off uint64, size int, store bool))) {
		for wi := 0; wi < n; wi++ {
			wi := wi
			body(wi, func(in int, space clc.AddrSpace, off uint64, size int, store bool) {
				evs = append(evs, event{kind: evAccess, in: instrs[in], wi: wi, addr: vm.MakeAddr(space, off), size: size, store: store})
			})
			evs = append(evs, event{kind: evInstrs, wi: wi, n: int64(10 + wi%3)})
		}
	}
	region(func(wi int, access func(int, clc.AddrSpace, uint64, int, bool)) {
		const line = 4096
		u := uint64(wi)
		access(0, clc.ASPrivate, 16, 4, false)
		access(1, clc.ASGlobal, line*u, 4, false)
		if 8 <= wi && wi < 13 {
			access(5, clc.ASGlobal, line*(1000+u), 4, false)
		}
		access(2, clc.ASPrivate, 32, 8, true)
		if wi >= 7 {
			access(3, clc.ASGlobal, line*(u-7), 4, true)
		} else {
			access(3, clc.ASGlobal, line*u+64, 4, true)
		}
		access(4, clc.ASPrivate, 48, 4, false)
	})
	evs = append(evs, event{kind: evBarrier, wi: n})
	region(func(wi int, access func(int, clc.AddrSpace, uint64, int, bool)) {
		access(2, clc.ASPrivate, 32, 8, false)
		access(0, clc.ASPrivate, 16, 4, true)
		access(2, clc.ASPrivate, 32, 8, true)
	})
	evs = append(evs, event{kind: evBarrier, wi: n})
	region(func(wi int, access func(int, clc.AddrSpace, uint64, int, bool)) {
		u := uint64(wi)
		access(3, clc.ASPrivate, 64+4*u, 4, false)
		access(4, clc.ASPrivate, 48, 4, true)
		access(1, clc.ASGlobal, 1<<20+132*u, 4, true)
		if wi%3 == 0 {
			access(5, clc.ASGlobal, 1<<16+512*u, 4, false)
		}
	})
	return append(evs, event{kind: evGroupEnd})
}

// repeatStream draws one core's stream of a few groups of n items that
// come in runs: the items of a run touch the same lines in the same order,
// each at its own byte offset within them, so the CPU walk can charge all
// but the first two items of a run from its memo. A region's steps mix a
// burst of lines in one set of every level, more than it has ways; stores
// whose dirty lines such a burst evicts later; an access spanning two lines
// for every item; and private variables, at one shared address and at one
// address per item. Now and then an item in the middle of a run makes an
// access of its own, which breaks the run.
func repeatStream(r *rand.Rand, n int, instrs []*ir.Instr) []event {
	type step struct {
		in     int
		space  clc.AddrSpace
		base   uint64
		perRun uint64 // how far apart the runs' lines are
		size   int
		store  bool
		whole  bool // every item at the run's address, no offset of its own
	}
	var evs []event
	for g := 0; g < 2; g++ {
		evs = append(evs, event{kind: evGroupBegin})
		regions := 1 + r.Intn(2)
		for reg := 0; reg < regions; reg++ {
			run := []int{3, 4, 8, 16}[r.Intn(4)]
			var steps []step
			add := func(st step) {
				st.in = len(steps) % (len(instrs) - 1)
				steps = append(steps, st)
			}
			// A line the run stores to, then lines of its set at every level
			// — 16 KiB apart is one set of each CPU profile's L1, L2 and LLC
			// — more of them than any level has ways.
			hot := uint64(r.Intn(64)) << 14
			add(step{space: clc.ASGlobal, base: hot, perRun: 64, size: 4, store: true})
			add(step{space: clc.ASPrivate, base: 16, size: 4, whole: true})
			burst := uint64(9 + r.Intn(10))
			for k := uint64(1); k <= burst; k++ {
				add(step{space: clc.ASGlobal, base: hot + k<<14, size: 4, store: r.Intn(3) == 0})
			}
			add(step{space: clc.ASLocal, base: uint64(r.Intn(1<<12)) &^ 63, perRun: 64, size: 4, store: r.Intn(2) == 0})
			add(step{space: clc.ASPrivate, base: 64, size: 4}) // an address per item
			add(step{space: clc.ASGlobal, base: 1<<24 + 60, perRun: 128, size: 8, whole: true})
			add(step{space: clc.ASGlobal, base: hot + 64, perRun: 64, size: 8})
			r.Shuffle(len(steps)-1, func(i, j int) { steps[i+1], steps[j+1] = steps[j+1], steps[i+1] })
			for wi := 0; wi < n; wi++ {
				u, at := uint64(wi/run), wi%run
				// An item that is not the first of its run breaks it.
				breaker := at > 0 && r.Intn(4*run) == 0
				for k, st := range steps {
					if breaker && k == len(steps)/2 {
						evs = append(evs, event{kind: evAccess, in: instrs[len(instrs)-1], wi: wi,
							addr: vm.MakeAddr(clc.ASGlobal, 1<<26+64*uint64(wi)), size: 4})
					}
					off := st.base + st.perRun*u
					if !st.whole {
						off += uint64(4 * at % 48)
					}
					if st.space == clc.ASPrivate && !st.whole {
						off = st.base + 4*uint64(wi)
					}
					evs = append(evs, event{kind: evAccess, in: instrs[st.in], wi: wi,
						addr: vm.MakeAddr(st.space, off), size: st.size, store: st.store})
				}
				evs = append(evs, event{kind: evInstrs, wi: wi, n: int64(10 + wi%3)})
			}
			if reg+1 < regions {
				evs = append(evs, event{kind: evBarrier, wi: n})
			}
		}
		evs = append(evs, event{kind: evGroupEnd})
	}
	return evs
}

func TestDeliveriesMatchReferenceModel(t *testing.T) {
	instrs := make([]*ir.Instr, 6)
	for i := range instrs {
		instrs[i] = &ir.Instr{}
	}
	// From no lockstep to speak of to nothing but: the converged accesses
	// of a stream are what the column delivery turns into columns.
	shapes := []streamShape{ragged, {}, {diverge: 40}, {short: 6}, {short: 12, diverge: 100}, {idle: 30, diverge: 60}}
	for _, p := range All() {
		d := newDeliveries(t, p)
		r := rand.New(rand.NewSource(12))
		for trial := 0; trial < 60; trial++ {
			// 7 and 100 are multiples of neither a warp nor an item tile.
			n := []int{1, 7, 32, 48, 64, 100}[r.Intn(6)]
			shape := shapes[trial%len(shapes)]
			streams := make([][]event, 1+r.Intn(3))
			for w := range streams {
				streams[w] = onCore(randomStream(r, n, instrs, []int{1, 2, 4, 4, 8, 16}, shape), w, p.Cores)
			}
			d.check(t, streams, n)
			if t.Failed() {
				t.Fatalf("%s: trial %d (n=%d, shape %v) differs", p.Name, trial, n, shape)
			}
		}
		for _, n := range []int{48, 100} {
			if d.check(t, [][]event{skipRejoinStream(n, instrs)}, n); t.Failed() {
				t.Fatalf("%s: lanes that skip an access and rejoin (n=%d) differ", p.Name, n)
			}
		}
		for _, n := range []int{1, 48, 100} {
			before := d.priv
			if d.check(t, [][]event{privateVarsStream(n, instrs)}, n); t.Failed() {
				t.Fatalf("%s: private variables accessed in lockstep (n=%d) differ", p.Name, n)
			}
			// Three in region one, three in region two, one in region three
			// — two where a group of one has every address to itself.
			want := 7
			if n == 1 {
				want = 8
			}
			if fed := d.priv - before; fed != want {
				t.Fatalf("%s: the column delivery made %d private ops of the stream (n=%d), want %d", p.Name, fed, n, want)
			}
		}
		if d.ops < 1000 || d.recs < 1000 || d.priv < 100 {
			t.Errorf("%s: the column delivery fed %d ops with a column, %d private ops and %d records: too few of one to prove anything", p.Name, d.ops, d.priv, d.recs)
		}
	}

	// Items that repeat their predecessors' lines, on each CPU profile and
	// on the three as one set: the CPU walk charges most of them from its
	// memo, and every counter must still be the reference model's.
	many := make([]*ir.Instr, 32)
	for i := range many {
		many[i] = &ir.Instr{}
	}
	for _, p := range CPUs() {
		d := newDeliveries(t, p)
		r := rand.New(rand.NewSource(45))
		var memo [2]int64
		var l1 int64
		for trial := 0; trial < 12; trial++ {
			n := []int{16, 48, 64, 100}[r.Intn(4)]
			streams := make([][]event, 1+r.Intn(3))
			for w := range streams {
				streams[w] = onCore(repeatStream(r, n, many), w, p.Cores)
			}
			want := d.check(t, streams, n)
			if t.Failed() {
				t.Fatalf("%s: repeating items, trial %d (n=%d) differ", p.Name, trial, n)
			}
			a, b := d.memoized()
			memo[0], memo[1] = memo[0]+a, memo[1]+b
			l1 += want.Caches[0].Accesses
		}
		requireMemo(t, p.Name, memo[:], l1)
	}
	set, err := NewSet(CPUs())
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(46))
	for trial := 0; trial < 3; trial++ {
		// More groups than MIC has cores, so that some cores take two.
		var groups []event
		for g := 0; g < 64; g += 2 {
			groups = append(groups, repeatStream(r, 16, many)...)
		}
		checkSet(t, set, groups, 16)
		if t.Failed() {
			t.Fatalf("the three CPUs as one set: repeating items, trial %d differ", trial)
		}
	}
}

// requireMemo fails unless each delivery's CPU walk charged a fair share
// of the l1 first-level accesses from its memo: a check of the memo that
// never uses it proves nothing.
func requireMemo(t *testing.T, name string, memo []int64, l1 int64) {
	t.Helper()
	for i, m := range memo {
		if m*4 < l1 {
			t.Errorf("%s: delivery %d charged %d of %d first-level accesses from the memo, want a quarter at least", name, i, m, l1)
		}
	}
}

// checkSet delivers one launch's work-groups — evs, the groups in the order
// of their linear ids — to the set's first host worker as batches of
// records and as batches of columns and records, and requires of
// every model the Result the reference model computes from that model's
// per-core streams, and the memo to have fired.
func checkSet(t *testing.T, set *Set, evs []event, n int) {
	t.Helper()
	g := -1
	for i := range evs {
		if evs[i].kind == evGroupBegin {
			g++
			evs[i].wi = g
		}
	}
	want := make([]Result, len(set.models))
	for i, m := range set.models {
		streams := make([][]event, m.Prof.Cores)
		core := 0
		for _, e := range evs {
			if e.kind == evGroupBegin {
				core = e.wi % m.Prof.Cores
			}
			streams[core] = append(streams[core], e)
		}
		want[i] = refResult(t, m.Prof, streams)
	}
	feeds := map[string]func(vm.BatchTracer){
		"batch":  func(tr vm.BatchTracer) { feedBatches(tr, evs, n) },
		"column": func(tr vm.BatchTracer) { feedMixed(tr, evs, n) },
	}
	for name, feed := range feeds {
		set.Reset()
		feed(set.Opts().TracerFor(0).(vm.BatchTracer))
		for i, m := range set.models {
			if got := set.Result(i); !reflect.DeepEqual(got, want[i]) {
				t.Errorf("%s in the set, %s delivery\n got %+v\nwant %+v", m.Prof.Name, name, got, want[i])
			}
			requireMemo(t, m.Prof.Name+" in the set, "+name, []int64{simMemoized(m)}, want[i].Caches[0].Accesses)
		}
	}
}

// The reference model cannot take size 0 (its segment walk wraps at
// address 0), so here the two deliveries only have to agree with each
// other and terminate.
func TestDeliveriesAgreeOnSizeZero(t *testing.T) {
	instrs := []*ir.Instr{{}, {}}
	for _, p := range []*Profile{Kepler(), MIC()} {
		for _, shape := range []streamShape{ragged, {diverge: 40}} {
			r := rand.New(rand.NewSource(3))
			streams := [][]event{randomStream(r, 32, instrs, []int{0, 0, 4}, shape)}
			streams[0] = onCore(append([]event{
				{kind: evGroupBegin},
				{kind: evAccess, in: instrs[0], wi: 0, addr: vm.MakeAddr(clc.ASGlobal, 0), size: 0},
				{kind: evGroupEnd},
			}, streams[0]...), 0, p.Cores)
			batched, mixed := newDeliveries(t, p).run(streams, 32)
			if !reflect.DeepEqual(batched, mixed) {
				t.Errorf("%s, shape %v:\nbatched %+v\ncolumns %+v", p.Name, shape, batched, mixed)
			}
		}
	}
}

// raggedSrc makes lanes do different numbers of accesses on both sides of
// a barrier and diverge inside the second region.
const raggedSrc = `
__kernel void ragged(__global float* out, __global float* in, __local float* tmp, int n) {
    int l = get_local_id(0);
    int g = get_global_id(0);
    float acc = 0.0f;
    for (int i = 0; i < (l % 5) + 1; i++) {
        acc += in[(g + i * 37) % n];
    }
    tmp[l] = acc;
    barrier(CLK_LOCAL_MEM_FENCE);
    if (l % 3 == 0) {
        acc += tmp[(l * 2 + 1) % 48];
    } else if (l % 3 == 1) {
        acc += in[(g * 33) % n];
    }
    out[g] = acc;
}
`

// TestEnginesMatchRecordedStream launches one kernel through every engine
// — wgvec's batches hold columns, interp's records alone — on all six
// models at once and on each alone, with fewer work-groups than the
// smallest device has cores and with more than the largest, and requires
// of every model the Result the reference model computes from the per-core
// streams a recorder launch writes down: group g on core g mod Cores, each
// core's groups in ascending order, whichever models share the set.
func TestEnginesMatchRecordedStream(t *testing.T) {
	const local = 48
	prog := compile(t, raggedSrc)
	launch := func(backend string, groups int, opts *vm.LaunchOpts) {
		t.Helper()
		n := local * groups
		g := vm.NewGlobalMem(1 << 20)
		out, in := g.Alloc(n*4), g.Alloc(n*4)
		cfg := vm.Config{
			GlobalSize: [3]int{n, 1, 1}, LocalSize: [3]int{local, 1, 1}, Backend: backend,
			Args: []vm.Arg{vm.BufArg(out), vm.BufArg(in), vm.LocalArg(local * 4), vm.IntArg(int64(n))},
		}
		if err := prog.Launch("ragged", cfg, g, opts); err != nil {
			t.Fatalf("%s: %v", backend, err)
		}
	}
	profiles := All()
	for _, groups := range []int{3, 150} {
		want := make([]Result, len(profiles))
		for i, p := range profiles {
			recs := make([]*recorder, p.Cores)
			for c := range recs {
				recs[c] = &recorder{}
			}
			launch(wgvec.Name, groups, &vm.LaunchOpts{Workers: p.Cores, TracerFor: func(w int) vm.Tracer { return recs[w] }})
			streams := make([][]event, len(recs))
			for c, r := range recs {
				streams[c] = r.evs
			}
			want[i] = newDeliveries(t, p).check(t, streams, local)
		}
		for _, backend := range enginetest.Engines() {
			set, err := NewSet(profiles)
			if err != nil {
				t.Fatal(err)
			}
			launch(backend, groups, set.Opts())
			for i, p := range profiles {
				if got := set.Result(i); !reflect.DeepEqual(got, want[i]) {
					t.Errorf("%s, %d groups on %s, in the set of six:\n got %+v\nwant %+v", p.Name, groups, backend, got, want[i])
				}
				one, err := NewSimulator(p)
				if err != nil {
					t.Fatal(err)
				}
				launch(backend, groups, one.Opts())
				if got := one.Result(); !reflect.DeepEqual(got, want[i]) {
					t.Errorf("%s, %d groups on %s, as a set of one:\n got %+v\nwant %+v", p.Name, groups, backend, got, want[i])
				}
			}
		}
	}
}

// steadyGroup is one uniform work-group for the allocation guard and the
// benchmark, as a lockstep engine records it: 256 items, two regions of
// six ops — coalesced and strided global accesses and conflict-free and
// conflicting local ones with a column each, and a load and a store of a
// private variable without. The first own items also make an access of
// their own between the ops, so that their warp is charged lane by lane.
// When repeat is set, the strided ops stride 0 instead, so each run of 16
// items touches the same lines: a CPU charges most of them from its memo.
func steadyGroup(own int, repeat bool) *vm.AccessBatch {
	b := new(vm.AccessBatch)
	b.Reset(256)
	ops := []struct {
		space  clc.AddrSpace
		stride uint64
		store  bool
	}{{clc.ASGlobal, 4, false}, {clc.ASGlobal, 4096, false}, {clc.ASLocal, 4, true}, {clc.ASLocal, 128, false}}
	for k, op := range ops {
		if k == 2 {
			for wi := 0; wi < own; wi++ {
				b.Items[wi] = append(b.Items[wi], vm.AccessRec{Addr: vm.MakeAddr(clc.ASGlobal, 1<<20+64*uint64(wi)),
					Instr: b.Intern(&ir.Instr{}), Size: 4, Seq: int32(len(b.Ops))})
			}
		}
		if k%2 == 1 {
			b.AppendPrivate(&ir.Instr{}, 4, k == 3, 16)
		}
		stride := op.stride
		if repeat && stride > 4 {
			stride = 0
		}
		for wi, col := 0, b.AppendOp(&ir.Instr{}, 4, op.store); wi < len(col); wi++ {
			col[wi] = vm.MakeAddr(op.space, stride*uint64(wi))
		}
	}
	for wi := range b.Retired {
		b.Retired[wi] = 20
	}
	return b
}

// runSteadyGroup delivers b twice over as work-group linear.
func runSteadyGroup(tr vm.BatchTracer, b *vm.AccessBatch, linear int) {
	tr.GroupBegin([3]int{}, linear)
	tr.AccessBatch(b)
	tr.Barrier(len(b.Items))
	tr.AccessBatch(b)
	tr.GroupEnd()
}

// The GPUs form warps over the group's columns and records; the CPU packs
// it tile by tile into lines and walks them, or charges them from its memo
// when they repeat. All the groups are core 0's — ids a multiple of Cores
// apart — so each takes its turn on the core and passes it on.
func TestSteadyStateGroupDoesNotAllocate(t *testing.T) {
	for _, p := range All() {
		for _, own := range []int{0, 5} {
			for _, repeat := range []bool{false, true} {
				sim, err := NewSimulator(p)
				if err != nil {
					t.Fatal(err)
				}
				tr := sim.Opts().TracerFor(0).(vm.BatchTracer)
				b := steadyGroup(own, repeat)
				id := 0
				run := func() {
					runSteadyGroup(tr, b, id)
					id += p.Cores
				}
				run() // warm-up: buffers grow here
				if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
					t.Errorf("%s, %d items on their own, repeating %v: a steady-state work-group allocates %.0f objects, want 0", p.Name, own, repeat, allocs)
				}
				sim.Reset()
				id = 0
				if allocs := testing.AllocsPerRun(1, run); allocs != 0 {
					t.Errorf("%s, %d items on their own, repeating %v: the first group after Reset allocates %.0f objects, want 0", p.Name, own, repeat, allocs)
				}
				if p.Kind == CPUKind && repeat && simMemoized(sim) == 0 {
					t.Errorf("%s, %d items on their own: the repeating group charged nothing from the memo", p.Name, own)
				}
			}
		}
	}
}

// BenchmarkWarpModel charges the GPUs the steady-state group, and Fermi
// and Tahiti a staged and a de-staged matmul work-group (matmulRegions),
// whose columns are rows of 16 lanes: two runs to a 32-lane warp, four to
// a 64-lane one.
func BenchmarkWarpModel(b *testing.B) {
	for _, p := range []*Profile{Fermi(), Kepler(), Tahiti()} {
		b.Run(p.Name, func(b *testing.B) {
			sim, err := NewSimulator(p)
			if err != nil {
				b.Fatal(err)
			}
			tr := sim.Opts().TracerFor(0).(vm.BatchTracer)
			group := steadyGroup(0, false)
			runSteadyGroup(tr, group, 0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 1; i <= b.N; i++ {
				runSteadyGroup(tr, group, i*p.Cores)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(2*len(group.Ops)*len(group.Items)), "ns/access")
		})
	}
	for _, p := range []*Profile{Fermi(), Tahiti()} {
		for _, staged := range []bool{true, false} {
			b.Run(p.Name+"/"+stagedName(staged), func(b *testing.B) {
				benchmarkRegions(b, p, matmulRegions(staged))
			})
		}
	}
}

// matmulRegions is what one 16×16 work-group of a 128×128 float matmul
// hands the device model, region by region: staged, each 16-wide tile of A
// and B copied into local memory and read from there between two barriers,
// or de-staged, one region of loads straight from global memory. Either
// way the store to C comes last.
func matmulRegions(staged bool) []*vm.AccessBatch {
	const n, tile = 128, 16
	const a, b, c = 0, 4 * n * n, 8 * n * n
	var regions []*vm.AccessBatch
	region := func(ops ...func(x, y uint64) (clc.AddrSpace, uint64, bool)) {
		r := new(vm.AccessBatch)
		r.Reset(tile * tile)
		for _, op := range ops {
			_, _, store := op(0, 0)
			col := r.AppendOp(&ir.Instr{}, 4, store)
			for wi := range col {
				space, off, _ := op(uint64(wi%tile), uint64(wi/tile))
				col[wi] = vm.MakeAddr(space, off)
			}
		}
		for wi := range r.Retired {
			r.Retired[wi] = int64(4 * len(ops))
		}
		regions = append(regions, r)
	}
	type op = func(x, y uint64) (clc.AddrSpace, uint64, bool)
	global := func(base uint64, at func(x, y uint64) uint64, store bool) op {
		return func(x, y uint64) (clc.AddrSpace, uint64, bool) { return clc.ASGlobal, base + 4*at(x, y), store }
	}
	local := func(base uint64, at func(x, y uint64) uint64, store bool) op {
		return func(x, y uint64) (clc.AddrSpace, uint64, bool) { return clc.ASLocal, base + 4*at(x, y), store }
	}
	if staged {
		for t := uint64(0); t < n/tile; t++ {
			region(global(a, func(x, y uint64) uint64 { return y*n + t*tile + x }, false),
				local(0, func(x, y uint64) uint64 { return y*tile + x }, true),
				global(b, func(x, y uint64) uint64 { return (t*tile+y)*n + x }, false),
				local(4*tile*tile, func(x, y uint64) uint64 { return y*tile + x }, true))
			var ops []op
			for k := uint64(0); k < tile; k++ {
				ops = append(ops, local(0, func(x, y uint64) uint64 { return y*tile + k }, false),
					local(4*tile*tile, func(x, y uint64) uint64 { return k*tile + x }, false))
			}
			region(ops...)
		}
	} else {
		var ops []op
		for k := uint64(0); k < n; k++ {
			ops = append(ops, global(a, func(x, y uint64) uint64 { return y*n + k }, false),
				global(b, func(x, y uint64) uint64 { return k*n + x }, false))
		}
		region(ops...)
	}
	region(global(c, func(x, y uint64) uint64 { return y*n + x }, true))
	return regions
}

// BenchmarkCPUWalk charges a staged and a de-staged matmul work-group
// (matmulRegions) to an SNB core, group after group, and reports the time
// per access and the share of first-level accesses the memo charged.
func BenchmarkCPUWalk(b *testing.B) {
	for _, staged := range []bool{true, false} {
		b.Run(stagedName(staged), func(b *testing.B) {
			sim := benchmarkRegions(b, SNB(), matmulRegions(staged))
			b.ReportMetric(float64(simMemoized(sim))/float64(sim.Result().Caches[0].Accesses), "memo-share")
		})
	}
}

func stagedName(staged bool) string {
	if staged {
		return "staged"
	}
	return "de-staged"
}

// benchmarkRegions charges p's core 0 a work-group made of regions, group
// after group, and reports the time per access.
func benchmarkRegions(b *testing.B, p *Profile, regions []*vm.AccessBatch) *Simulator {
	sim, err := NewSimulator(p)
	if err != nil {
		b.Fatal(err)
	}
	tr := sim.Opts().TracerFor(0).(vm.BatchTracer)
	accesses := 0
	group := func(id int) {
		tr.GroupBegin([3]int{}, id)
		for i, r := range regions {
			if i > 0 {
				tr.Barrier(len(r.Items))
			}
			tr.AccessBatch(r)
		}
		tr.GroupEnd()
	}
	for _, r := range regions {
		accesses += len(r.Ops) * len(r.Items)
	}
	group(0)
	sim.Reset()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		group(i * p.Cores)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(accesses), "ns/access")
	return sim
}
