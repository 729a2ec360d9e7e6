package vm

import "grover/internal/ir"

// AccessRec is one memory access of an AccessBatch. It holds no pointer:
// the instruction is an index into the batch's Instrs table, so record
// buffers are neither scanned by the garbage collector nor need write
// barriers on append.
type AccessRec struct {
	Addr  uint64
	Instr int32
	Size  int32
	Store bool
}

// AccessBatch is one barrier region of one work-group's trace: per
// work-item, the accesses it made in program order and the instructions
// it retired. It carries the same stream as the per-access Tracer calls
// (Replay spells that stream out).
type AccessBatch struct {
	// Instrs is the table AccessRec.Instr indexes. It holds each
	// instruction once and only grows between Resets — at least a whole
	// work-group — so equal indices mean the same instruction across all
	// batches of one group.
	Instrs []*ir.Instr
	// Items[wi] are work-item wi's accesses in the region, in program
	// order; Retired[wi] is its retired-instruction count. Both have one
	// entry per work-item of the group.
	Items   [][]AccessRec
	Retired []int64

	// Producer side of Instrs (see Intern); lastIn/lastIdx cache the
	// previous lookup, since lockstep engines emit per-instruction runs.
	index   map[*ir.Instr]int32
	lastIn  *ir.Instr
	lastIdx int32
}

// BatchTracer is the optional extension of Tracer for consumers that take
// a barrier region at a time. An engine that buffers a region anyway
// (wgvec) calls AccessBatch once per region in place of that region's
// Access and Instrs calls; GroupBegin, Barrier and GroupEnd arrive as for
// any Tracer. The batch and everything it points to belong to the caller
// again when AccessBatch returns.
type BatchTracer interface {
	Tracer
	AccessBatch(b *AccessBatch)
}

// Reset shapes the batch for a work-group of n work-items: an empty
// region, an empty instruction table, every buffer's capacity kept.
func (b *AccessBatch) Reset(n int) {
	b.Items, b.Retired = b.Items[:0], b.Retired[:0]
	b.Extend(n)
	clear(b.Instrs) // drop the pointers, not just the length
	b.Instrs = b.Instrs[:0]
	clear(b.index)
	b.lastIn = nil
}

// Extend lengthens the batch to n work-items if it has fewer. The new
// items are empty with nothing retired, and take up the buffers an
// earlier, larger shape left behind.
func (b *AccessBatch) Extend(n int) {
	had := len(b.Items)
	if had >= n {
		return
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

// Replay delivers the region to t one access at a time, work-item-major:
// each item's accesses, then its retired count when non-zero — the stream
// the work-item-at-a-time engines produce.
func (b *AccessBatch) Replay(t Tracer) {
	for wi, recs := range b.Items {
		for i := range recs {
			r := &recs[i]
			t.Access(b.Instrs[r.Instr], wi, r.Addr, int(r.Size), r.Store)
		}
		if n := b.Retired[wi]; n > 0 {
			t.Instrs(wi, n)
		}
	}
}

// Clear empties the region, keeping the instruction table.
func (b *AccessBatch) Clear() {
	for wi := range b.Items {
		b.Items[wi] = b.Items[wi][:0]
	}
	clear(b.Retired)
}
