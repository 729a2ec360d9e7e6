package device

import (
	"fmt"
	"slices"

	"grover/internal/clc"
	"grover/internal/memsim"
	"grover/internal/vm"
)

// Simulator is the model of one device: the state of each simulated core /
// compute unit and what they add up to. Cores accumulate cycles
// independently and the device time is the maximum across them (they run
// in parallel). A launch reaches it through a Set — NewSet's, or the set of
// one behind Opts.
type Simulator struct {
	Prof  *Profile
	cores []*workerSim
	// next[c] is the work-group core c takes next: group g of a launch runs
	// on core g mod Cores, and a core takes its groups in ascending order.
	next []int
	// one is the set of one Opts launches through.
	one *Set
}

// NewSimulator prepares per-core state for the profile.
func NewSimulator(p *Profile) (*Simulator, error) {
	s := &Simulator{Prof: p, cores: make([]*workerSim, p.Cores), next: make([]int, p.Cores)}
	for c := range s.cores {
		h, err := memsim.NewHierarchy(p.Caches, p.DRAMLatency)
		if err != nil {
			return nil, fmt.Errorf("device %s: %w", p.Name, err)
		}
		s.cores[c] = &workerSim{prof: p, hier: h}
		s.next[c] = c
	}
	return s, nil
}

// Opts returns the launch options wiring this simulator into a VM launch:
// those of a set of one over it.
func (s *Simulator) Opts() *vm.LaunchOpts {
	if s.one == nil {
		s.one = newSet([]*Simulator{s})
	}
	return s.one.Opts()
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

// Result collects the per-core counters (counters keep accumulating
// until Reset).
func (s *Simulator) Result() Result {
	var r Result
	for wi, w := range s.cores {
		if w.cycles > r.Cycles {
			r.Cycles = w.cycles
		}
		r.TotalCycles += w.cycles
		r.Instrs += w.instrs
		r.Accesses += w.accesses
		r.Transactions += w.transactions
		for li, c := range w.hier.Levels {
			if wi == 0 {
				r.Caches = append(r.Caches, LevelStats{Name: c.Name()})
			}
			r.Caches[li].Add(c.Stats())
		}
		r.DRAMAccesses += w.hier.Mem.Accesses
	}
	r.TimeMS = float64(r.Cycles) / (s.Prof.FreqGHz * 1e6)
	return r
}

// Reset clears all core state (cycles and cache contents) and whatever a
// failed launch through Opts left behind; the next launch starts at group
// 0. Buffers keep their capacity.
func (s *Simulator) Reset() {
	for c, w := range s.cores {
		w.cycles, w.instrs, w.accesses, w.transactions, w.memoized = 0, 0, 0, 0, 0
		w.hier.Reset()
		s.next[c] = c
	}
	if s.one != nil {
		s.one.resetHosts()
	}
}

// workerSim is one simulated core / compute unit: what a work-group's trace
// is charged with. It has one charging path per device kind: a CPU walks
// each barrier region item-major through its cache hierarchy as it arrives
// (chargeTile); a GPU forms warps over the whole group (chargeGroup). Both
// work in the scratch of the host worker that holds the core.
type workerSim struct {
	prof *Profile
	hier *memsim.Hierarchy

	cycles       int64
	instrs       int64
	accesses     int64
	transactions int64
	// memoized counts the lines of the CPU walk charged without a walk
	// (memsim.Memo); it is in no Result.
	memoized int64
}

// scratch is what one host worker charges groups in, whichever simulated
// cores it holds: buffers that keep their capacity from group to group.
type scratch struct {
	// q holds a tile of work-items' accesses as the lines they touch, item
	// lo+i's in q[items[i].from:items[i].to] (packTile), built once for all
	// the CPU cores a worker holds, or a GPU warp access's lines; memos[j]
	// is what held core j was charged last, from the group's beginning on.
	q     []uint64
	items [vm.ItemTile]packed
	memos []memsim.Memo
	// walk lists the ops of the region that have a column.
	walk []walkOp

	// rows holds a tile of work-items' slots of every column, item-major
	// (vm.AccessBatch.Transpose), for a warp whose lanes are merged.
	rows []uint64
	// lanes holds, for a warp some of whose lanes made accesses of their
	// own, every lane's accesses in program order.
	lanes [][]vm.AccessRec

	// One warp position: the lanes' addresses and sizes, and the segments
	// they coalesce into.
	addrs []uint64
	sizes []int
	segs  []uint64
}

// packed is one work-item of a tile as packTile lays it out: its lines are
// q[from:to], and priv of its accesses were private, which touch no line.
type packed struct{ from, to, priv int }

// localBase maps the per-core local-memory arena into a distinct region of
// the simulated physical address space. The arena is reused from group to
// group on the same core, exactly like a CPU OpenCL runtime's per-thread
// local buffer, so it stays cache-resident.
const localBase = uint64(1) << 40

// chargeRegion walks barrier region b through the cache hierarchies of the
// CPU cores held, item-major — each work-item's accesses in program order,
// then its issue cost — a tile of work-items packed at a time, once for all
// the cores whose first level has the same line size: each core still sees
// the items in order.
func (s *scratch) chargeRegion(b *vm.AccessBatch, held []*workerSim) {
	if len(held) == 0 {
		return
	}
	s.walk = s.walk[:0]
	for k := range b.Ops {
		if op := &b.Ops[k]; !op.Private {
			s.walk = append(s.walk, walkOp{last: uint64(max(op.Size, 1) - 1), store: op.Store})
		}
	}
	for lo := 0; lo < len(b.Items); lo += vm.ItemTile {
		hi := min(lo+vm.ItemTile, len(b.Items))
		var shift uint
		for j, w := range held {
			if sh := w.hier.LineShift(); j == 0 || sh != shift {
				shift = sh
				s.packTile(b, lo, hi, shift)
			}
			w.chargeTile(b, s, &s.memos[j], lo, hi)
		}
	}
}

// walkOp is an op with a column as packTile meets it: the offset of its
// last byte from its first, and whether it stores.
type walkOp struct {
	last  uint64
	store bool
}

// packTile lays work-items lo to hi of region b out in s.q as the lines
// their accesses touch — memsim.Entry's for lines of 1<<shift bytes — and
// counts their private accesses. The tile's slots of every column are
// transposed into rows, one cache line of each column read once per tile,
// and an item that made no access of its own — nearly every item — has its
// row packed in place (packRow); any other item, or one with a slot that
// spans lines, is laid out again after the rows, its records merged in
// (appendItem).
func (s *scratch) packTile(b *vm.AccessBatch, lo, hi int, shift uint) {
	cols := b.NumCols()
	s.q = b.Transpose(s.q, lo, hi)
	for i := range hi - lo {
		if len(b.Items[lo+i]) == 0 {
			if kept, priv, ok := packRow(s.q[i*cols:(i+1)*cols], s.walk, shift); ok {
				s.items[i] = packed{from: i * cols, to: i*cols + kept, priv: len(b.Ops) - cols + priv}
				continue
			}
		}
		from, priv := len(s.q), 0
		s.q, priv = appendItem(s.q, b, lo+i, shift)
		s.items[i] = packed{from: from, to: len(s.q), priv: priv}
	}
}

// packRow turns a row of an item's slots, one per op in walk, into the
// lines they touch, in place, and returns how many it kept and how many
// slots were private, which touch none; it gives up on a slot that spans
// lines.
func packRow(row []uint64, walk []walkOp, shift uint) (kept, priv int, ok bool) {
	walk = walk[:len(row)]
	for j, a := range row {
		space, off := vm.SplitAddr(a)
		switch space {
		case clc.ASPrivate:
			priv++
			continue
		case clc.ASLocal:
			// Local memory on a cache-only processor is ordinary memory.
			off += localBase
		}
		line := off >> shift
		if (off+walk[j].last)>>shift != line {
			return 0, 0, false
		}
		row[kept] = memsim.Entry(line, walk[j].store)
		kept++
	}
	return kept, priv, true
}

// appendItem appends work-item wi's accesses of region b to q in program
// order — its slot of every op, each of its records before the op its Seq
// names — as the lines they touch, and returns q and how many of them were
// private.
func appendItem(q []uint64, b *vm.AccessBatch, wi int, shift uint) ([]uint64, int) {
	recs, n, priv := b.Items[wi], len(b.Items), 0
	add := func(addr uint64, size int32, store bool) {
		space, off := vm.SplitAddr(addr)
		switch space {
		case clc.ASPrivate:
			priv++
			return
		case clc.ASLocal:
			// Local memory on a cache-only processor is ordinary memory.
			off += localBase
		}
		q = memsim.AppendLines(q, off, int(size), store, shift)
	}
	c := 0
	for k := range b.Ops {
		for len(recs) > 0 && int(recs[0].Seq) <= k {
			add(recs[0].Addr, recs[0].Size, recs[0].Store)
			recs = recs[1:]
		}
		if op := &b.Ops[k]; op.Private {
			priv++
		} else {
			add(b.Cols[c*n+wi], op.Size, op.Store)
			c++
		}
	}
	for i := range recs {
		add(recs[i].Addr, recs[i].Size, recs[i].Store)
	}
	return q, priv
}

// chargeTile charges this core work-items lo to hi of region b, as s
// packed them, through m: an item whose lines repeat its predecessor's on
// this core once walking them has been seen to change nothing is charged
// what that walk did, without a walk (memsim.Memo). A private access costs
// PrivCost and touches no cache state, so where in the item's stream it is
// charged changes nothing.
func (w *workerSim) chargeTile(b *vm.AccessBatch, s *scratch, m *memsim.Memo, lo, hi int) {
	for wi := lo; wi < hi; wi++ {
		it := s.items[wi-lo]
		q := s.q[it.from:it.to]
		cycles, memo := w.hier.Charge(m, q)
		if memo {
			w.memoized += int64(len(q))
		}
		w.accesses += int64(len(b.Ops) + len(b.Items[wi]))
		w.instrs += b.Retired[wi]
		w.cycles += cycles + int64(it.priv)*w.prof.PrivCost + int64(float64(b.Retired[wi])*w.prof.IssueCost)
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

// Barrier charges one work-group barrier executed by wiCount items.
func (w *workerSim) Barrier(wiCount int) {
	if w.prof.Kind == CPUKind {
		w.cycles += int64(wiCount) * w.prof.BarrierCost
		return
	}
	warps := (wiCount + w.prof.WarpWidth - 1) / w.prof.WarpWidth
	w.cycles += int64(warps) * w.prof.BarrierCost
}

// chargeGroup charges a whole work-group's trace to this compute unit: this
// is where warps are formed and the coalescing/bank models run — over the
// whole group, warp by warp, because the warps share this compute unit's
// cache state and charging them in any other order would change what hits.
// It only reads g.
func (w *workerSim) chargeGroup(g *vm.AccessBatch, s *scratch) {
	ww := w.prof.WarpWidth
	n := len(g.Items)
	for lo := 0; lo < n; lo += ww {
		hi := min(lo+ww, n)
		w.chargeIssue(g.Retired[lo:hi])
		if onColumns(g.Items[lo:hi]) {
			w.chargeColumns(g, s, lo, hi)
		} else {
			w.processWarp(s, s.mergeLanes(g, lo, hi))
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
func (w *workerSim) chargeColumns(g *vm.AccessBatch, s *scratch, lo, hi int) {
	n := len(g.Items)
	addrs := slices.Grow(s.addrs[:0], hi-lo)[:hi-lo]
	sizes := slices.Grow(s.sizes[:0], hi-lo)[:hi-lo]
	filled, size := false, int32(0) // whether sizes is filled, and with what
	c := 0                          // the next op's column
	for k := range g.Ops {
		op := &g.Ops[k]
		if op.Private {
			w.chargeWarpAccess(s, addrs, sizes, clc.ASPrivate, op.Store)
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
		w.chargeWarpAccess(s, addrs, sizes, space, op.Store)
	}
	s.addrs, s.sizes = addrs, sizes
}

// mergeLanes spells out work-items lo to hi's accesses in program order,
// each lane's column slots merged with its own records, in s.lanes.
func (s *scratch) mergeLanes(g *vm.AccessBatch, lo, hi int) [][]vm.AccessRec {
	for len(s.lanes) < hi-lo {
		s.lanes = append(s.lanes, nil)
	}
	cols := g.NumCols()
	for tlo := lo; tlo < hi; tlo += vm.ItemTile {
		thi := min(tlo+vm.ItemTile, hi)
		s.rows = g.Transpose(s.rows, tlo, thi)
		for wi := tlo; wi < thi; wi++ {
			recs, lane := g.Items[wi], s.lanes[wi-lo][:0]
			row := s.rows[(wi-tlo)*cols : (wi-tlo+1)*cols]
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
			s.lanes[wi-lo] = append(lane, recs...)
		}
	}
	return s.lanes[:hi-lo]
}

// processWarp charges the memory accesses of a warp given lane by lane:
// lanes are aligned position by position. Uniform kernels produce
// identical access sequences per lane; on divergence (differing
// instructions at one position) each lane is charged separately.
func (w *workerSim) processWarp(s *scratch, lanes [][]vm.AccessRec) {
	maxLen := 0
	for _, lane := range lanes {
		maxLen = max(maxLen, len(lane))
	}
	for k := 0; k < maxLen; k++ {
		addrs, sizes := s.addrs[:0], s.sizes[:0]
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
		s.addrs, s.sizes = addrs, sizes
		if first == nil {
			continue
		}
		// The position's space and direction are its first lane's.
		space, _ := vm.SplitAddr(first.Addr)
		if !uniform {
			// Divergent warp position: serialize each lane.
			for i := range addrs {
				w.chargeWarpAccess(s, addrs[i:i+1], sizes[i:i+1], space, first.Store)
			}
			continue
		}
		w.chargeWarpAccess(s, addrs, sizes, space, first.Store)
	}
}

// chargeWarpAccess charges one warp-wide access: addrs are the lanes'
// offsets in space, and sizes their sizes.
func (w *workerSim) chargeWarpAccess(s *scratch, addrs []uint64, sizes []int, space clc.AddrSpace, store bool) {
	switch space {
	case clc.ASPrivate:
		w.cycles += w.prof.PrivCost
	case clc.ASLocal:
		// The offsets are charged without localBase: a shift common to every
		// lane moves each word to another bank by the same amount, which
		// leaves the degree as it is.
		deg := memsim.BankConflictDegree(addrs, w.prof.SPMBanks, w.prof.BankWidth)
		w.cycles += int64(deg) * w.prof.SPMLat
	default:
		// Each transaction pays the issue cost, and the hierarchy is walked
		// through every segment's lines, segment after segment.
		s.segs = memsim.Segments(s.segs[:0], addrs, sizes, w.prof.Segment)
		w.transactions += int64(len(s.segs))
		q, seg, shift := s.q[:0], uint64(w.prof.Segment), w.hier.LineShift()
		for _, b := range s.segs {
			q = memsim.AppendLines(q, b*seg, w.prof.Segment, store, shift)
		}
		s.q = q
		w.cycles += int64(len(s.segs))*w.prof.TransCost + w.hier.Walk(q)
	}
}
