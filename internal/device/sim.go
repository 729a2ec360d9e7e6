package device

import (
	"fmt"
	"slices"
	"sync"

	"grover/internal/clc"
	"grover/internal/ir"
	"grover/internal/memsim"
	"grover/internal/vm"
)

// Simulator turns a VM execution trace into simulated device time for one
// profile. It supplies one tracer per VM worker (one worker models one
// core / compute unit); workers accumulate cycles independently and the
// device time is the maximum across workers (they run in parallel).
type Simulator struct {
	Prof    *Profile
	workers []*accessAdapter

	// free holds the group traces no GPU worker is filling. A launch has
	// one worker per compute unit but the host runs only GOMAXPROCS of
	// them at a time, so a shared list grows a few buffers to full size
	// where per-worker buffers would grow one per unit.
	mu   sync.Mutex
	free []*vm.AccessBatch
}

// NewSimulator prepares per-core state for the profile.
func NewSimulator(p *Profile) (*Simulator, error) {
	s := &Simulator{Prof: p, workers: make([]*accessAdapter, p.Cores)}
	for i := range s.workers {
		h, err := memsim.NewHierarchy(p.Caches, p.DRAMLatency)
		if err != nil {
			return nil, fmt.Errorf("device %s: %w", p.Name, err)
		}
		s.workers[i] = &accessAdapter{
			workerSim:    workerSim{sim: s, prof: p, hier: h},
			regionGather: regionGather{intern: p.Kind == GPUKind},
		}
	}
	return s, nil
}

// Opts returns the launch options wiring this simulator into a VM launch.
// The tracers take a barrier region at a time (vm.BatchTracer) from the
// engines that produce one, and gather the per-access calls of the others
// into the same batches.
func (s *Simulator) Opts() *vm.LaunchOpts {
	return &vm.LaunchOpts{
		Workers:   s.Prof.Cores,
		TracerFor: func(w int) vm.Tracer { return s.workers[w%len(s.workers)] },
	}
}

// LevelStats is one cache level's aggregate activity across all workers.
type LevelStats struct {
	Name string
	memsim.Stats
}

// Result summarizes one simulated launch.
type Result struct {
	// Cycles is the device makespan: the maximum worker cycle count.
	Cycles int64
	// TotalCycles sums all workers (device throughput work).
	TotalCycles int64
	// Instrs, Accesses, Transactions aggregate the whole launch.
	Instrs       int64
	Accesses     int64
	Transactions int64
	// TimeMS converts the makespan to milliseconds at the profile clock.
	TimeMS float64
	// Caches aggregates every cache level's counters across workers, and
	// DRAMAccesses the backstop traffic — the evidence behind the
	// conflict-miss explanations in EXPERIMENTS.md.
	Caches       []LevelStats
	DRAMAccesses int64
}

// Result collects the per-worker counters (counters keep accumulating
// until Reset).
func (s *Simulator) Result() Result {
	var r Result
	for wi, w := range s.workers {
		if w.cycles > r.Cycles {
			r.Cycles = w.cycles
		}
		r.TotalCycles += w.cycles
		r.Instrs += w.instrs
		r.Accesses += w.accesses
		r.Transactions += w.transactions
		for li, lvl := range w.hier.Levels {
			if wi == 0 {
				r.Caches = append(r.Caches, LevelStats{Name: lvl.Name()})
			}
			st := lvl.Stats()
			agg := &r.Caches[li]
			agg.Accesses += st.Accesses
			agg.Hits += st.Hits
			agg.Misses += st.Misses
			agg.Writebacks += st.Writebacks
		}
		r.DRAMAccesses += w.hier.Mem.Accesses
	}
	r.TimeMS = float64(r.Cycles) / (s.Prof.FreqGHz * 1e6)
	return r
}

// Reset clears all worker state (cycles and cache contents). Buffers keep
// their capacity.
func (s *Simulator) Reset() {
	for _, w := range s.workers {
		w.cycles, w.instrs, w.accesses, w.transactions = 0, 0, 0, 0
		w.hier.Reset()
		// An aborted launch may have left a group half-delivered.
		w.group = nil
		w.regionGather.reset()
	}
}

// getGroup lends out an empty group trace: on a GPU a work-group's trace
// is collected as one batch spanning all its barrier regions (the ops and
// columns so far and, per work-item, its records and retired count; the
// instruction table stays the producer's). It is pointer-free and keeps its
// capacity from group to group.
func (s *Simulator) getGroup() *vm.AccessBatch {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n := len(s.free); n > 0 {
		g := s.free[n-1]
		s.free = s.free[:n-1]
		return g
	}
	return new(vm.AccessBatch)
}

func (s *Simulator) putGroup(g *vm.AccessBatch) {
	g.Reset(0)
	s.mu.Lock()
	s.free = append(s.free, g)
	s.mu.Unlock()
}

// workerSim is one simulated core / compute unit. It consumes the trace a
// barrier region at a time and has one charging path per device kind: a
// CPU walks each region item-major through its cache hierarchy as it
// arrives; a GPU collects the group's regions and forms warps over them at
// GroupEnd.
type workerSim struct {
	sim  *Simulator
	prof *Profile
	hier *memsim.Hierarchy

	cycles       int64
	instrs       int64
	accesses     int64
	transactions int64

	// group is the current work-group's trace (GPU only), borrowed from
	// the simulator between GroupBegin and GroupEnd.
	group *vm.AccessBatch

	// rows holds a tile of work-items' slots of every column, item-major
	// (vm.AccessBatch.Transpose).
	rows []uint64
	// walk lists the ops of the region a CPU is walking that have a column.
	walk []walkOp
	// lanes holds, for a warp some of whose lanes made accesses of their
	// own, every lane's accesses in program order.
	lanes [][]vm.AccessRec

	// Scratch for one warp position: the lanes' addresses and sizes, and
	// the segments they coalesce into.
	addrs []uint64
	sizes []int
	segs  []uint64
}

// localBase maps the per-core local-memory arena into a distinct region of
// the simulated physical address space. The arena is reused from group to
// group on the same core, exactly like a CPU OpenCL runtime's per-thread
// local buffer, so it stays cache-resident.
const localBase = uint64(1) << 40

// GroupBegin implements vm.Tracer.
func (w *workerSim) GroupBegin(group [3]int, linear int) {
	if w.prof.Kind == GPUKind {
		w.group = w.sim.getGroup()
	}
}

// AccessBatch implements vm.BatchTracer.
func (w *workerSim) AccessBatch(b *vm.AccessBatch) {
	if w.prof.Kind == CPUKind {
		w.chargeRegion(b)
		return
	}
	// GPU: collect for warp-level processing at GroupEnd.
	accesses, instrs := appendRegion(w.group, b)
	w.accesses += accesses
	w.instrs += instrs
}

// walkOp is an op with a column as chargeRegion's walk meets it: seq is
// its index in the region's Ops, which is what records' Seq count in.
type walkOp struct {
	seq, size int32
	store     bool
}

// chargeRegion walks a barrier region through this core's cache hierarchy
// item-major — each work-item's accesses in program order, then its issue
// cost — a tile of work-items' column slots transposed at a time.
//
// The walk leaves out the ops that are Private. Each costs every item
// PrivCost and touches no cache state, so where in the item's stream it is
// charged changes nothing: they are all charged up front.
func (w *workerSim) chargeRegion(b *vm.AccessBatch) {
	walk, priv := w.walk[:0], w.prof.PrivCost
	for k := range b.Ops {
		if op := &b.Ops[k]; !op.Private {
			walk = append(walk, walkOp{seq: int32(k), size: op.Size, store: op.Store})
		}
	}
	w.walk = walk
	privOps := int64(len(b.Ops) - len(walk))
	for lo := 0; lo < len(b.Items); lo += vm.ItemTile {
		hi := min(lo+vm.ItemTile, len(b.Items))
		w.rows = b.Transpose(w.rows, lo, hi)
		for wi := lo; wi < hi; wi++ {
			row, recs := w.rows[(wi-lo)*len(walk):(wi-lo+1)*len(walk)], b.Items[wi]
			w.accesses += int64(len(b.Ops) + len(recs))
			cycles := privOps * priv
			for j := 0; ; {
				// The item's next access: a record of its own that comes
				// before the walk's op j, else its slot of that op's column.
				var addr uint64
				var size int32
				var store bool
				if len(recs) > 0 && (j == len(walk) || recs[0].Seq <= walk[j].seq) {
					addr, size, store = recs[0].Addr, recs[0].Size, recs[0].Store
					recs = recs[1:]
				} else if j < len(row) {
					addr, size, store = row[j], walk[j].size, walk[j].store
					j++
				} else {
					break
				}
				switch space, off := vm.SplitAddr(addr); space {
				case clc.ASPrivate:
					cycles += priv
				case clc.ASLocal:
					// Local memory on a cache-only processor is ordinary memory.
					cycles += w.hier.Access(localBase+off, int(size), store)
				default:
					cycles += w.hier.Access(off, int(size), store)
				}
			}
			w.instrs += b.Retired[wi]
			w.cycles += cycles + int64(float64(b.Retired[wi])*w.prof.IssueCost)
		}
	}
}

// appendRegion adds barrier region b to the whole-group trace g — its
// columns after g's, its records work-item by work-item with Seq counting
// on from g's ops — and returns the accesses and retired instructions it
// held.
func appendRegion(g, b *vm.AccessBatch) (accesses, instrs int64) {
	g.Extend(len(b.Items))
	before := int32(len(g.Ops))
	g.Ops = append(g.Ops, b.Ops...)
	g.Cols = append(vm.GrowCols(g.Cols, len(b.Cols)), b.Cols...)
	accesses = int64(len(b.Ops)) * int64(len(b.Items))
	for wi, recs := range b.Items {
		if len(recs) > 0 {
			had := len(g.Items[wi])
			g.Items[wi] = append(g.Items[wi], recs...)
			if before > 0 {
				added := g.Items[wi][had:]
				for i := range added {
					added[i].Seq += before
				}
			}
			accesses += int64(len(recs))
		}
		g.Retired[wi] += b.Retired[wi]
		instrs += b.Retired[wi]
	}
	return accesses, instrs
}

// Barrier implements vm.Tracer.
func (w *workerSim) Barrier(wiCount int) {
	if w.prof.Kind == CPUKind {
		w.cycles += int64(wiCount) * w.prof.BarrierCost
		return
	}
	warps := (wiCount + w.prof.WarpWidth - 1) / w.prof.WarpWidth
	w.cycles += int64(warps) * w.prof.BarrierCost
}

// GroupEnd implements vm.Tracer. For GPUs this is where warps are formed
// and the coalescing/bank models run: over the whole group, warp by warp,
// because the warps share this compute unit's cache state and charging
// them in any other order would change what hits.
func (w *workerSim) GroupEnd() {
	if w.prof.Kind != GPUKind {
		return
	}
	w.chargeGroup(w.group)
	w.sim.putGroup(w.group)
	w.group = nil
}

// chargeGroup charges a whole work-group's trace to this compute unit, warp
// by warp. It only reads g.
func (w *workerSim) chargeGroup(g *vm.AccessBatch) {
	ww := w.prof.WarpWidth
	n := len(g.Items)
	for lo := 0; lo < n; lo += ww {
		hi := min(lo+ww, n)
		w.chargeIssue(g.Retired[lo:hi])
		if onColumns(g.Items[lo:hi]) {
			w.chargeColumns(g, lo, hi)
		} else {
			w.processWarp(w.mergeLanes(g, lo, hi))
		}
	}
}

// chargeIssue charges a warp's instruction issue: lockstep execution costs
// the longest lane.
func (w *workerSim) chargeIssue(retired []int64) {
	var maxInstr int64
	for _, n := range retired {
		maxInstr = max(maxInstr, n)
	}
	w.cycles += int64(float64(maxInstr) * w.prof.IssueCost)
}

// onColumns reports whether none of a warp's lanes made an access of its
// own: then every lane's stream is the group's ops, one for one.
func onColumns(lanes [][]vm.AccessRec) bool {
	for _, recs := range lanes {
		if len(recs) > 0 {
			return false
		}
	}
	return true
}

// chargeColumns charges the memory accesses of a warp whose lanes all ran
// converged with the group: its position k is op k — one instruction, one
// size, one direction — and the lanes' addresses are the slots lo to hi of
// that op's column, or private without one to look at.
func (w *workerSim) chargeColumns(g *vm.AccessBatch, lo, hi int) {
	n := len(g.Items)
	addrs := slices.Grow(w.addrs[:0], hi-lo)[:hi-lo]
	sizes := slices.Grow(w.sizes[:0], hi-lo)[:hi-lo]
	filled, size := false, int32(0) // whether sizes is filled, and with what
	c := 0                          // the next op's column
	for k := range g.Ops {
		op := &g.Ops[k]
		if op.Private {
			w.chargeWarpAccess(addrs, sizes, clc.ASPrivate, op.Store)
			continue
		}
		col := g.Cols[c*n+lo : c*n+hi]
		c++
		// The position's space is its first lane's, and a private access
		// costs the same wherever it goes.
		space, _ := vm.SplitAddr(col[0])
		if space != clc.ASPrivate {
			for i, a := range col {
				_, addrs[i] = vm.SplitAddr(a)
			}
			if !filled || op.Size != size {
				filled, size = true, op.Size
				for i := range sizes {
					sizes[i] = int(size)
				}
			}
		}
		w.chargeWarpAccess(addrs, sizes, space, op.Store)
	}
	w.addrs, w.sizes = addrs, sizes
}

// mergeLanes spells out work-items lo to hi's accesses in program order,
// each lane's column slots merged with its own records, in w.lanes.
func (w *workerSim) mergeLanes(g *vm.AccessBatch, lo, hi int) [][]vm.AccessRec {
	for len(w.lanes) < hi-lo {
		w.lanes = append(w.lanes, nil)
	}
	cols := g.NumCols()
	for tlo := lo; tlo < hi; tlo += vm.ItemTile {
		thi := min(tlo+vm.ItemTile, hi)
		w.rows = g.Transpose(w.rows, tlo, thi)
		for wi := tlo; wi < thi; wi++ {
			recs, lane := g.Items[wi], w.lanes[wi-lo][:0]
			row := w.rows[(wi-tlo)*cols : (wi-tlo+1)*cols]
			for k := range g.Ops {
				for len(recs) > 0 && int(recs[0].Seq) <= k {
					lane = append(lane, recs[0])
					recs = recs[1:]
				}
				// A private op keeps its position in the lane: a warp with
				// records aligns its lanes position by position.
				op := &g.Ops[k]
				addr := op.Addr
				if !op.Private {
					addr, row = row[0], row[1:]
				}
				lane = append(lane, vm.AccessRec{Addr: addr, Instr: op.Instr, Size: op.Size, Store: op.Store})
			}
			w.lanes[wi-lo] = append(lane, recs...)
		}
	}
	return w.lanes[:hi-lo]
}

// processWarp charges the memory accesses of a warp given lane by lane:
// lanes are aligned position by position. Uniform kernels produce
// identical access sequences per lane; on divergence (differing
// instructions at one position) each lane is charged separately.
func (w *workerSim) processWarp(lanes [][]vm.AccessRec) {
	maxLen := 0
	for _, lane := range lanes {
		maxLen = max(maxLen, len(lane))
	}
	for k := 0; k < maxLen; k++ {
		addrs, sizes := w.addrs[:0], w.sizes[:0]
		var first *vm.AccessRec
		uniform := true
		for _, lane := range lanes {
			if k >= len(lane) {
				continue
			}
			a := &lane[k]
			if first == nil {
				first = a
			} else if a.Instr != first.Instr {
				uniform = false
			}
			_, off := vm.SplitAddr(a.Addr)
			addrs = append(addrs, off)
			sizes = append(sizes, int(a.Size))
		}
		w.addrs, w.sizes = addrs, sizes
		if first == nil {
			continue
		}
		// The position's space and direction are its first lane's.
		space, _ := vm.SplitAddr(first.Addr)
		if !uniform {
			// Divergent warp position: serialize each lane.
			for i := range addrs {
				w.chargeWarpAccess(addrs[i:i+1], sizes[i:i+1], space, first.Store)
			}
			continue
		}
		w.chargeWarpAccess(addrs, sizes, space, first.Store)
	}
}

// chargeWarpAccess charges one warp-wide access. addrs is scratch the
// caller is done with.
func (w *workerSim) chargeWarpAccess(addrs []uint64, sizes []int, space clc.AddrSpace, store bool) {
	switch space {
	case clc.ASPrivate:
		w.cycles += w.prof.PrivCost
	case clc.ASLocal:
		for i := range addrs {
			addrs[i] += localBase
		}
		deg := memsim.BankConflictDegree(addrs, w.prof.SPMBanks, w.prof.BankWidth)
		w.cycles += int64(deg) * w.prof.SPMLat
	default:
		// Each transaction pays the issue cost plus the hierarchy cost of
		// one segment.
		w.segs = memsim.Segments(w.segs[:0], addrs, sizes, w.prof.Segment)
		w.transactions += int64(len(w.segs))
		seg := uint64(w.prof.Segment)
		for _, s := range w.segs {
			w.cycles += w.prof.TransCost + w.hier.Access(s*seg, w.prof.Segment, store)
		}
	}
}

// regionGather gathers the per-access calls of an engine that reports one
// access at a time (the interpreter) into one barrier region's batch, for
// its owner to deliver before the Barrier or GroupEnd that closes the
// region.
type regionGather struct {
	region  vm.AccessBatch
	pending bool
	// intern is set when a consumer forms warps: only warp formation looks
	// at the instruction, and such an engine switches instruction with every
	// access, so each one is a table lookup worth skipping otherwise.
	intern bool
}

// Access implements vm.Tracer.
func (r *regionGather) Access(in *ir.Instr, wi int, addr uint64, size int, store bool) {
	if wi >= len(r.region.Items) {
		r.region.Extend(wi + 1)
	}
	rec := vm.AccessRec{Addr: addr, Size: int32(size), Store: store}
	if r.intern {
		rec.Instr = r.region.Intern(in)
	}
	r.region.Items[wi] = append(r.region.Items[wi], rec)
	r.pending = true
}

// Instrs implements vm.Tracer.
func (r *regionGather) Instrs(wi int, n int64) {
	if wi >= len(r.region.Items) {
		r.region.Extend(wi + 1)
	}
	r.region.Retired[wi] += n
	r.pending = true
}

// take returns the gathered region, or nil when nothing is pending; the
// caller delivers it and calls drop.
func (r *regionGather) take() *vm.AccessBatch {
	if !r.pending {
		return nil
	}
	return &r.region
}

// drop empties the region: after delivery, or an aborted group's leftovers.
func (r *regionGather) drop() {
	if r.pending {
		r.region.Clear()
		r.pending = false
	}
}

// reset is drop plus the instruction table, between launches.
func (r *regionGather) reset() {
	r.region.Reset(0)
	r.pending = false
}

// accessAdapter is the tracer a worker hands the VM. Engines that buffer
// a barrier region (wgvec) reach the embedded workerSim's AccessBatch
// directly; for the ones that report one access at a time the adapter
// gathers the region and delivers it the same way.
type accessAdapter struct {
	workerSim
	regionGather
}

// GroupBegin implements vm.Tracer.
func (t *accessAdapter) GroupBegin(group [3]int, linear int) {
	t.drop()
	t.workerSim.GroupBegin(group, linear)
}

// Barrier implements vm.Tracer.
func (t *accessAdapter) Barrier(wiCount int) {
	t.flush()
	t.workerSim.Barrier(wiCount)
}

// GroupEnd implements vm.Tracer.
func (t *accessAdapter) GroupEnd() {
	t.flush()
	t.workerSim.GroupEnd()
}

func (t *accessAdapter) flush() {
	if b := t.take(); b != nil {
		t.workerSim.AccessBatch(b)
		t.drop()
	}
}
