package device

import (
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
	wi    int // evBarrier: the work-item count
	addr  uint64
	size  int
	store bool
	n     int64
}

// recorder is a plain vm.Tracer, so engines deliver to it per access.
type recorder struct{ evs []event }

func (r *recorder) GroupBegin([3]int, int) { r.evs = append(r.evs, event{kind: evGroupBegin}) }
func (r *recorder) Access(in *ir.Instr, wi int, addr uint64, size int, store bool) {
	r.evs = append(r.evs, event{kind: evAccess, in: in, wi: wi, addr: addr, size: size, store: store})
}
func (r *recorder) Barrier(n int) { r.evs = append(r.evs, event{kind: evBarrier, wi: n}) }
func (r *recorder) Instrs(wi int, n int64) {
	r.evs = append(r.evs, event{kind: evInstrs, wi: wi, n: n})
}
func (r *recorder) GroupEnd() { r.evs = append(r.evs, event{kind: evGroupEnd}) }

// feedPerAccess replays a recorded stream call by call, as the
// interpreter delivers it.
func feedPerAccess(tr vm.Tracer, evs []event) {
	for _, e := range evs {
		switch e.kind {
		case evGroupBegin:
			tr.GroupBegin([3]int{}, 0)
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

// feedBatches replays a recorded stream a barrier region at a time, as
// wgvec delivers it: one batch shaped for the whole group of n items.
func feedBatches(tr vm.BatchTracer, evs []event, n int) {
	var b vm.AccessBatch
	for _, e := range evs {
		switch e.kind {
		case evGroupBegin:
			b.Reset(n)
			tr.GroupBegin([3]int{}, 0)
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
			w.cycles += w.hier.Access(localBase+off, size, store)
		default:
			w.cycles += w.hier.Access(off, size, store)
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
				w.cycles += w.prof.TransCost + w.hier.Access(s*uint64(w.prof.Segment), w.prof.Segment, store)
			}
		}
		w.transactions += int64(len(seen))
	}
}

// refResult runs each worker's stream through the reference model and
// sums up like Simulator.Result.
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
		for li, lvl := range h.Levels {
			if wi == 0 {
				r.Caches = append(r.Caches, LevelStats{Name: lvl.Name()})
			}
			st := lvl.Stats()
			r.Caches[li].Accesses += st.Accesses
			r.Caches[li].Hits += st.Hits
			r.Caches[li].Misses += st.Misses
			r.Caches[li].Writebacks += st.Writebacks
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
	prof               *Profile
	perAccess, batched *Simulator
}

func newDeliveries(t *testing.T, p *Profile) *deliveries {
	t.Helper()
	d := &deliveries{prof: p}
	for _, s := range []**Simulator{&d.perAccess, &d.batched} {
		sim, err := NewSimulator(p)
		if err != nil {
			t.Fatal(err)
		}
		*s = sim
	}
	return d
}

// simResult feeds each worker's stream to the simulator's tracers.
func simResult(sim *Simulator, streams [][]event, feed func(vm.BatchTracer, []event)) Result {
	sim.Reset()
	opts := sim.Opts()
	for w, evs := range streams {
		feed(opts.TracerFor(w).(vm.BatchTracer), evs)
	}
	return sim.Result()
}

// run delivers the streams (groups of n work-items) per access through
// the adapter and as batches.
func (d *deliveries) run(streams [][]event, n int) (perAccess, batched Result) {
	perAccess = simResult(d.perAccess, streams, func(tr vm.BatchTracer, evs []event) { feedPerAccess(tr, evs) })
	batched = simResult(d.batched, streams, func(tr vm.BatchTracer, evs []event) { feedBatches(tr, evs, n) })
	return perAccess, batched
}

// check requires the reference model and both deliveries to agree on
// every counter, and returns the agreed Result.
func (d *deliveries) check(t *testing.T, streams [][]event, n int) Result {
	t.Helper()
	want := refResult(t, d.prof, streams)
	perAccess, batched := d.run(streams, n)
	if !reflect.DeepEqual(perAccess, want) {
		t.Errorf("%s: per-access delivery\n got %+v\nwant %+v", d.prof.Name, perAccess, want)
	}
	if !reflect.DeepEqual(batched, want) {
		t.Errorf("%s: batch delivery\n got %+v\nwant %+v", d.prof.Name, batched, want)
	}
	if want.Accesses == 0 || want.Cycles == 0 {
		t.Errorf("%s: empty stream proves nothing: %+v", d.prof.Name, want)
	}
	return want
}

// randomStream draws one worker's stream of a few groups of n items.
// Lanes are ragged (different access counts per item and region, some
// items idle), positions diverge (an item may pick another instruction),
// and spaces, sizes and directions are mixed.
func randomStream(r *rand.Rand, n int, instrs []*ir.Instr, sizes []int) []event {
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
				if r.Intn(9) == 0 {
					continue // an idle item: no accesses, nothing retired
				}
				count := len(steps)
				if r.Intn(3) == 0 {
					count = r.Intn(len(steps) + 1)
				}
				for k := 0; k < count; k++ {
					s := steps[k]
					if r.Intn(16) == 0 {
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

func TestDeliveriesMatchReferenceModel(t *testing.T) {
	instrs := make([]*ir.Instr, 6)
	for i := range instrs {
		instrs[i] = &ir.Instr{}
	}
	for _, p := range []*Profile{Fermi(), Tahiti(), SNB()} {
		d := newDeliveries(t, p)
		r := rand.New(rand.NewSource(12))
		for trial := 0; trial < 30; trial++ {
			n := []int{1, 7, 32, 48, 64, 100}[r.Intn(6)]
			streams := make([][]event, 1+r.Intn(3))
			for w := range streams {
				streams[w] = randomStream(r, n, instrs, []int{1, 2, 4, 4, 8, 16})
			}
			d.check(t, streams, n)
			if t.Failed() {
				t.Fatalf("%s: trial %d (n=%d) differs", p.Name, trial, n)
			}
		}
	}
}

// The reference model cannot take size 0 (its segment walk wraps at
// address 0), so here the two deliveries only have to agree with each
// other and terminate.
func TestDeliveriesAgreeOnSizeZero(t *testing.T) {
	instrs := []*ir.Instr{{}, {}}
	for _, p := range []*Profile{Kepler(), MIC()} {
		r := rand.New(rand.NewSource(3))
		streams := [][]event{randomStream(r, 32, instrs, []int{0, 0, 4})}
		streams[0] = append([]event{
			{kind: evGroupBegin},
			{kind: evAccess, in: instrs[0], wi: 0, addr: vm.MakeAddr(clc.ASGlobal, 0), size: 0},
			{kind: evGroupEnd},
		}, streams[0]...)
		perAccess, batched := newDeliveries(t, p).run(streams, 32)
		if !reflect.DeepEqual(perAccess, batched) {
			t.Errorf("%s:\nper-access %+v\n   batched %+v", p.Name, perAccess, batched)
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
// on a simulator — wgvec hands over batches, interp goes through the
// adapter — and requires the Result the reference model computes from
// the recorded per-access stream.
func TestEnginesMatchRecordedStream(t *testing.T) {
	const n, local = 48 * 40, 48
	prog := compile(t, raggedSrc)
	launch := func(backend string, opts *vm.LaunchOpts) {
		t.Helper()
		g := vm.NewGlobalMem(1 << 20)
		out, in := g.Alloc(n*4), g.Alloc(n*4)
		cfg := vm.Config{
			GlobalSize: [3]int{n, 1, 1}, LocalSize: [3]int{local, 1, 1}, Backend: backend,
			Args: []vm.Arg{vm.BufArg(out), vm.BufArg(in), vm.LocalArg(local * 4), vm.IntArg(n)},
		}
		if err := prog.Launch("ragged", cfg, g, opts); err != nil {
			t.Fatalf("%s: %v", backend, err)
		}
	}
	for _, p := range []*Profile{Fermi(), SNB()} {
		recs := make([]*recorder, p.Cores)
		for i := range recs {
			recs[i] = &recorder{}
		}
		launch(wgvec.Name, &vm.LaunchOpts{Workers: p.Cores, TracerFor: func(w int) vm.Tracer { return recs[w] }})
		streams := make([][]event, len(recs))
		for i, r := range recs {
			streams[i] = r.evs
		}
		want := newDeliveries(t, p).check(t, streams, local)
		for _, backend := range enginetest.Engines() {
			sim, err := NewSimulator(p)
			if err != nil {
				t.Fatal(err)
			}
			launch(backend, sim.Opts())
			if got := sim.Result(); !reflect.DeepEqual(got, want) {
				t.Errorf("%s on %s:\n got %+v\nwant %+v", backend, p.Name, got, want)
			}
		}
	}
}

// steadyGroup is one uniform work-group for the allocation guard and the
// benchmark: 256 items, two regions, coalesced and strided global
// accesses and conflict-free and conflicting local ones.
func steadyGroup() *vm.AccessBatch {
	b := new(vm.AccessBatch)
	b.Reset(256)
	instrs := []*ir.Instr{{}, {}, {}, {}}
	for wi := range b.Items {
		u := uint64(wi)
		b.Items[wi] = append(b.Items[wi],
			vm.AccessRec{Addr: vm.MakeAddr(clc.ASGlobal, 4*u), Instr: b.Intern(instrs[0]), Size: 4},
			vm.AccessRec{Addr: vm.MakeAddr(clc.ASGlobal, 4096*u), Instr: b.Intern(instrs[1]), Size: 4},
			vm.AccessRec{Addr: vm.MakeAddr(clc.ASLocal, 4*u), Instr: b.Intern(instrs[2]), Size: 4, Store: true},
			vm.AccessRec{Addr: vm.MakeAddr(clc.ASLocal, 128*u), Instr: b.Intern(instrs[3]), Size: 4},
		)
		b.Retired[wi] = 20
	}
	return b
}

func runSteadyGroup(tr vm.BatchTracer, b *vm.AccessBatch) {
	tr.GroupBegin([3]int{}, 0)
	tr.AccessBatch(b)
	tr.Barrier(len(b.Items))
	tr.AccessBatch(b)
	tr.GroupEnd()
}

func TestSteadyStateGroupDoesNotAllocate(t *testing.T) {
	for _, p := range []*Profile{Fermi(), Kepler(), Tahiti()} {
		sim, err := NewSimulator(p)
		if err != nil {
			t.Fatal(err)
		}
		tr := sim.Opts().TracerFor(0).(vm.BatchTracer)
		b := steadyGroup()
		runSteadyGroup(tr, b) // warm-up: buffers grow here
		if allocs := testing.AllocsPerRun(20, func() { runSteadyGroup(tr, b) }); allocs != 0 {
			t.Errorf("%s: a steady-state work-group allocates %.0f objects, want 0", p.Name, allocs)
		}
		sim.Reset()
		if allocs := testing.AllocsPerRun(1, func() { runSteadyGroup(tr, b) }); allocs != 0 {
			t.Errorf("%s: the first group after Reset allocates %.0f objects, want 0", p.Name, allocs)
		}
	}
}

func BenchmarkWarpModel(b *testing.B) {
	for _, p := range []*Profile{Fermi(), Kepler(), Tahiti()} {
		b.Run(p.Name, func(b *testing.B) {
			sim, err := NewSimulator(p)
			if err != nil {
				b.Fatal(err)
			}
			tr := sim.Opts().TracerFor(0).(vm.BatchTracer)
			group := steadyGroup()
			runSteadyGroup(tr, group)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				runSteadyGroup(tr, group)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(2*4*len(group.Items)), "ns/access")
		})
	}
}
