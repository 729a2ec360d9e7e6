package vm

import (
	"slices"

	"grover/internal/clc"
	"grover/internal/ir"
)

// AccessOp is one converged memory instruction of an AccessBatch: every
// work-item of the group executed it together, so the instruction, the
// size and the direction are held once and the addresses as a column —
// or, for a Private op, not at all.
type AccessOp struct {
	Instr int32
	Size  int32
	Store bool
	// Private marks an access to a private variable in the function's
	// frame: every work-item accessed its own copy at the one private
	// address Addr, and the op has no column.
	Private bool
	Addr    uint64
}

// AccessRec is one memory access a work-item made on its own — under a
// partial lockstep mask, or reported by an engine that runs one work-item
// at a time. It holds no pointer: the instruction is an index into the
// batch's Instrs table, so record buffers are neither scanned by the
// garbage collector nor need write barriers on append.
type AccessRec struct {
	Addr  uint64
	Instr int32
	Size  int32
	// Seq places the access among the batch's Ops: it is the number of ops
	// recorded before it, so the work-item made it after op Seq-1 and
	// before op Seq.
	Seq   int32
	Store bool
}

// ItemTile is how many work-items a reader that walks a batch item-major
// transposes at a time (see Transpose): the eight address slots that share
// a cache line of each column. Measured, not configurable.
const ItemTile = 8

// AccessBatch is one barrier region of one work-group's trace, written
// down the way a lockstep engine runs it. A memory instruction the whole
// group executed together is one entry of Ops plus one column of
// len(Items) addresses in Cols — or, when it accesses a private variable at
// its place in the frame, an entry of Ops marked Private that holds the
// address and has no column; an access a work-item made on its own is a
// record in Items. A work-item's accesses in program order are the merge of
// the two: its address at every op in op order, with each of its records
// before the op its Seq names (records with Seq == len(Ops) come last).
// That merge, work-item after work-item, is the stream an AccessTracer
// takes, and Replay spells it out.
//
// Columns are counted as they are met: op k's column is the number of ops
// before it that are not Private, so a reader walking Ops keeps a column
// cursor beside its op index and the batch holds len(Cols)/len(Items)
// columns in all (NumCols).
//
// A consumer that reads only Items sees a complete region only from a
// producer that records no Ops (the interpreter, which runs one work-item
// at a time); from wgvec it would miss every converged access — most of
// them.
// Read Ops and Cols too, or go through Replay.
type AccessBatch struct {
	// Instrs is the table AccessOp.Instr and AccessRec.Instr index. It holds
	// each instruction once and only grows between Resets — at least a
	// whole work-group — so equal indices mean the same instruction across
	// all batches of one group.
	Instrs []*ir.Instr
	// Ops are the converged memory instructions in execution order, and
	// Cols the addresses of those that are not Private, column after
	// column: work-item wi's address in column c is Cols[c*len(Items)+wi].
	// The stride is len(Items), so a batch keeps its shape from its first
	// op to the next Reset.
	Ops  []AccessOp
	Cols []uint64
	// Items[wi] are the accesses work-item wi made on its own, in program
	// order; Retired[wi] is its retired-instruction count. Both have one
	// entry per work-item of the group.
	Items   [][]AccessRec
	Retired []int64

	// Producer side of Instrs (see Intern); lastIn/lastIdx cache the
	// previous lookup, since lockstep engines emit per-instruction runs.
	index   map[*ir.Instr]int32
	lastIn  *ir.Instr
	lastIdx int32

	rows []uint64 // Replay's transposition scratch
}

// BatchTracer is a Tracer that takes a barrier region's accesses at a time:
// Program.Launch calls AccessBatch once per region, before the Barrier or
// GroupEnd that closes it. The batch and everything it points to belong to
// the caller again when AccessBatch returns.
type BatchTracer interface {
	Tracer
	AccessBatch(b *AccessBatch)
}

// Reset shapes the batch for a work-group of n work-items: an empty
// region, an empty instruction table, every buffer's capacity kept.
func (b *AccessBatch) Reset(n int) {
	b.Items, b.Retired = b.Items[:0], b.Retired[:0]
	b.Ops, b.Cols = b.Ops[:0], b.Cols[:0]
	b.Extend(n)
	clear(b.Instrs) // drop the pointers, not just the length
	b.Instrs = b.Instrs[:0]
	clear(b.index)
	b.lastIn = nil
}

// Extend lengthens the batch to n work-items if it has fewer. The new
// items are empty with nothing retired, and take up the buffers an
// earlier, larger shape left behind. A batch that holds Ops cannot grow:
// its columns are as long as it had work-items when they were recorded.
func (b *AccessBatch) Extend(n int) {
	had := len(b.Items)
	if had >= n {
		return
	}
	if len(b.Ops) > 0 {
		panic("vm: AccessBatch extended with columns recorded")
	}
	if c := cap(b.Items); c < n {
		b.Items = append(b.Items[:c], make([][]AccessRec, n-c)...)
	}
	b.Items = b.Items[:n]
	if c := cap(b.Retired); c < n {
		b.Retired = append(b.Retired[:c], make([]int64, n-c)...)
	}
	b.Retired = b.Retired[:n]
	for wi := had; wi < n; wi++ {
		b.Items[wi] = b.Items[wi][:0]
	}
	clear(b.Retired[had:])
}

// Intern returns in's index in Instrs, adding it on first sight.
func (b *AccessBatch) Intern(in *ir.Instr) int32 {
	if in == b.lastIn {
		return b.lastIdx
	}
	idx, ok := b.index[in]
	if !ok {
		if b.index == nil {
			b.index = make(map[*ir.Instr]int32)
		}
		idx = int32(len(b.Instrs))
		b.Instrs = append(b.Instrs, in)
		b.index[in] = idx
	}
	b.lastIn, b.lastIdx = in, idx
	return idx
}

// AppendOp records instruction in as executed by the whole group and
// returns its address column, one slot per work-item, for the caller to
// fill: the slots hold whatever the buffer held before.
func (b *AccessBatch) AppendOp(in *ir.Instr, size int32, store bool) []uint64 {
	b.Ops = append(b.Ops, AccessOp{Instr: b.Intern(in), Size: size, Store: store})
	off, n := len(b.Cols), len(b.Items)
	b.Cols = GrowCols(b.Cols, n)[:off+n]
	return b.Cols[off:]
}

// AppendPrivate records instruction in as executed by the whole group on
// the private variable at offset off of the work-items' stacks: one op, no
// column. It takes an offset, not an address — the one address a whole
// group can share is a private one.
func (b *AccessBatch) AppendPrivate(in *ir.Instr, size int32, store bool, off uint64) {
	b.Ops = append(b.Ops, AccessOp{Instr: b.Intern(in), Size: size, Store: store,
		Private: true, Addr: MakeAddr(clc.ASPrivate, off)})
}

// NumCols returns how many columns the batch holds: its ops that are not
// Private.
func (b *AccessBatch) NumCols() int {
	if len(b.Items) == 0 {
		return 0
	}
	return len(b.Cols) / len(b.Items)
}

// GrowCols returns cols with room for n more slots. When that takes a new
// buffer it is at least twice the old one's size: a region's columns come
// one at a time and a group's region by region, and append's own growth —
// a quarter at a time at these sizes — would copy them four times over on
// the way up.
func GrowCols(cols []uint64, n int) []uint64 {
	if cap(cols)-len(cols) >= n {
		return cols
	}
	return slices.Grow(cols, max(n, cap(cols)))
}

// Transpose lays work-items lo to hi's slots of every column out item by
// item in rows, which it grows as needed and returns: item wi's address in
// column c is rows[(wi-lo)*NumCols()+c]. Walking a batch item-major a tile
// of ItemTile items at a time reads each cache line of Cols once.
func (b *AccessBatch) Transpose(rows []uint64, lo, hi int) []uint64 {
	cols, n := b.NumCols(), len(b.Items)
	rows = slices.Grow(rows[:0], (hi-lo)*cols)[:(hi-lo)*cols]
	for c := 0; c < cols; c++ {
		for i, a := range b.Cols[c*n+lo : c*n+hi] {
			rows[i*cols+c] = a
		}
	}
	return rows
}

// Replay delivers the region to t one access at a time, work-item-major:
// each item's accesses, then its retired count when non-zero.
//
// The merge step is spelled out here and again in the device model's two
// readers (the CPU walk, and the GPU warp model's processWarp/mergeLanes).
// A cursor type owning it has been tried twice and measured slower both
// times: once at 45 % more wall time on the Fig. 10 sweep, and once,
// shared by Replay, the device model's appendItem and processWarp with no
// lane spelled out, at a median tune-all wall time of 0.710 s against
// 0.535 s (6 of 6 alternated pairs worse; the cursor's Next 9.3 % of flat
// samples, processWarp 5.3 → 11.7 %), every count unchanged. The cursor
// and the record it returns go through memory on every access.
func (b *AccessBatch) Replay(t AccessTracer) {
	ops, cols := b.Ops, b.NumCols()
	for lo := 0; lo < len(b.Items); lo += ItemTile {
		hi := min(lo+ItemTile, len(b.Items))
		b.rows = b.Transpose(b.rows, lo, hi)
		for wi := lo; wi < hi; wi++ {
			row, recs := b.rows[(wi-lo)*cols:(wi-lo+1)*cols], b.Items[wi]
			for k, c := 0, 0; ; {
				// The item's next access: a record of its own that comes
				// before op k, else op k — at its slot of the next column,
				// or at the op's own address when it has no column.
				if len(recs) > 0 && int(recs[0].Seq) <= k {
					r := &recs[0]
					t.Access(b.Instrs[r.Instr], wi, r.Addr, int(r.Size), r.Store)
					recs = recs[1:]
				} else if k < len(ops) {
					op := &ops[k]
					addr := op.Addr
					if !op.Private {
						addr = row[c]
						c++
					}
					t.Access(b.Instrs[op.Instr], wi, addr, int(op.Size), op.Store)
					k++
				} else {
					break
				}
			}
			if n := b.Retired[wi]; n > 0 {
				t.Instrs(wi, n)
			}
		}
	}
}

// Clear empties the region, keeping the instruction table.
func (b *AccessBatch) Clear() {
	for wi := range b.Items {
		b.Items[wi] = b.Items[wi][:0]
	}
	clear(b.Retired)
	b.Ops, b.Cols = b.Ops[:0], b.Cols[:0]
}
