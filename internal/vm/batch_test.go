package vm

import (
	"fmt"
	"reflect"
	"testing"
	"unsafe"

	"grover/internal/clc"
	"grover/internal/ir"
)

// callLog is a Tracer that writes down what it is told.
type callLog struct{ calls []string }

func (l *callLog) GroupBegin([3]int, int) { l.calls = append(l.calls, "begin") }
func (l *callLog) Access(in *ir.Instr, wi int, addr uint64, size int, store bool) {
	l.calls = append(l.calls, accessCall(in, wi, addr, size, store))
}
func (l *callLog) Barrier(n int) { l.calls = append(l.calls, fmt.Sprint("barrier ", n)) }
func (l *callLog) Instrs(wi int, n int64) {
	l.calls = append(l.calls, fmt.Sprintf("wi%d retired %d", wi, n))
}
func (l *callLog) GroupEnd() { l.calls = append(l.calls, "end") }

func accessCall(in *ir.Instr, wi int, addr uint64, size int, store bool) string {
	return fmt.Sprintf("wi%d %p addr %d size %d store %v", wi, in, addr, size, store)
}

// TestReplaySpellsOutMixedBatch: a batch of columns and records replays as
// the per-access stream — item after item, each item's slot of every
// column in op order with its records where their Seq puts them (Seq k
// before op k, Seq len(Ops) after the last op), then its retired count when
// it has one. 11 items: a whole tile and a short one.
func TestReplaySpellsOutMixedBatch(t *testing.T) {
	const n, ops = 11, 3
	// A fresh literal per instruction: distinct pointers, as in a program.
	opIn := []*ir.Instr{{Op: ir.OpLoad}, {Op: ir.OpStore}, {Op: ir.OpLoad}}
	recIn := []*ir.Instr{{Op: ir.OpLoad}, {Op: ir.OpStore}}
	// recsAt(wi, seq) is how many records item wi makes with that Seq.
	recsAt := func(wi, seq int) int { return (wi*7 + seq*3) % 4 % 3 * (wi % 2) }

	var b AccessBatch
	b.Reset(n)
	var want []string
	wantItem := make([][]string, n)
	record := func(wi, seq, i int) {
		in := recIn[(wi+i)%2]
		addr, size, store := uint64(1000*wi+10*seq+i), 1<<((wi+seq)%4), in.Op == ir.OpStore
		b.Items[wi] = append(b.Items[wi], AccessRec{Addr: addr, Instr: b.Intern(in), Size: int32(size), Seq: int32(len(b.Ops)), Store: store})
		wantItem[wi] = append(wantItem[wi], accessCall(in, wi, addr, size, store))
	}
	for k := 0; k <= ops; k++ {
		for wi := 0; wi < n; wi++ {
			for i := 0; i < recsAt(wi, k); i++ {
				record(wi, k, i)
			}
		}
		if k == ops {
			break
		}
		size, store := 4<<k, opIn[k].Op == ir.OpStore
		col := b.AppendOp(opIn[k], int32(size), store)
		if len(col) != n {
			t.Fatalf("op %d: a column of %d slots for %d items", k, len(col), n)
		}
		for wi := range col {
			col[wi] = uint64(100000*(k+1) + wi)
			wantItem[wi] = append(wantItem[wi], accessCall(opIn[k], wi, col[wi], size, store))
		}
	}
	records := 0
	for wi := 0; wi < n; wi++ {
		records += len(b.Items[wi])
		want = append(want, wantItem[wi]...)
		if wi%3 != 1 { // items 1, 4, 7, 10 retire nothing and get no Instrs call
			b.Retired[wi] = int64(5 + wi)
			want = append(want, fmt.Sprintf("wi%d retired %d", wi, 5+wi))
		}
	}
	if records < n || len(b.Items[0]) != 0 {
		t.Fatalf("%d records, %d of item 0: want a mix of items with and without", records, len(b.Items[0]))
	}

	var got callLog
	b.Replay(&got)
	if !reflect.DeepEqual(got.calls, want) {
		t.Errorf("replayed stream differs:\n got %q\nwant %q", got.calls, want)
	}

	// Cleared, the batch is an empty region of the same group: same shape,
	// same instruction table, nothing to replay.
	instrs := len(b.Instrs)
	b.Clear()
	got.calls = nil
	b.Replay(&got)
	if len(got.calls) != 0 || len(b.Items) != n || len(b.Ops) != 0 || len(b.Cols) != 0 || len(b.Instrs) != instrs {
		t.Errorf("after Clear: replays %q; %d items, %d ops, %d slots, %d instructions", got.calls, len(b.Items), len(b.Ops), len(b.Cols), len(b.Instrs))
	}
}

// TestReplayOfRecordsOrColumnsAlone: a batch without ops — what an engine
// running one work-item at a time records — and one without records are
// both whole batches.
func TestReplayOfRecordsOrColumnsAlone(t *testing.T) {
	ld, st := &ir.Instr{Op: ir.OpLoad}, &ir.Instr{Op: ir.OpStore}

	var recs AccessBatch
	recs.Reset(2)
	recs.Items[1] = append(recs.Items[1],
		AccessRec{Addr: 8, Instr: recs.Intern(ld), Size: 4},
		AccessRec{Addr: 16, Instr: recs.Intern(st), Size: 8, Store: true})
	recs.Retired[0] = 3
	var got callLog
	recs.Replay(&got)
	want := []string{"wi0 retired 3", accessCall(ld, 1, 8, 4, false), accessCall(st, 1, 16, 8, true)}
	if !reflect.DeepEqual(got.calls, want) {
		t.Errorf("records alone:\n got %q\nwant %q", got.calls, want)
	}

	var cols AccessBatch
	cols.Reset(2)
	copy(cols.AppendOp(ld, 4, false), []uint64{40, 44})
	copy(cols.AppendOp(st, 2, true), []uint64{80, 82})
	got.calls = nil
	cols.Replay(&got)
	want = []string{accessCall(ld, 0, 40, 4, false), accessCall(st, 0, 80, 2, true),
		accessCall(ld, 1, 44, 4, false), accessCall(st, 1, 82, 2, true)}
	if !reflect.DeepEqual(got.calls, want) {
		t.Errorf("columns alone:\n got %q\nwant %q", got.calls, want)
	}
}

// Seq went into AccessRec's padding: a record is as large as it was
// without.
func TestAccessRecSize(t *testing.T) {
	if sz := unsafe.Sizeof(AccessRec{}); sz != 24 {
		t.Errorf("AccessRec is %d bytes, want 24", sz)
	}
}

// TestReplayPlacesPrivateOps: an op marked Private replays as one access
// per item at the op's own address, in its place among the columns and the
// records — first, between two columns, last, and where a record's Seq
// falls on it — and takes no column: the batch transposes to fewer columns
// than it has ops.
func TestReplayPlacesPrivateOps(t *testing.T) {
	ld, st, own := &ir.Instr{Op: ir.OpLoad}, &ir.Instr{Op: ir.OpStore}, &ir.Instr{Op: ir.OpLoad}
	priv := func(off uint64) uint64 { return MakeAddr(clc.ASPrivate, off) }
	var b AccessBatch
	b.Reset(2)
	record := func(wi int, addr uint64) {
		b.Items[wi] = append(b.Items[wi], AccessRec{Addr: addr, Instr: b.Intern(own), Size: 1, Seq: int32(len(b.Ops))})
	}
	b.AppendPrivate(ld, 4, false, 16)
	copy(b.AppendOp(st, 8, true), []uint64{100, 108})
	record(1, 7) // before the private op in the middle
	b.AppendPrivate(st, 4, true, 32)
	copy(b.AppendOp(ld, 2, false), []uint64{200, 202})
	record(0, 8) // before the last op, which is private
	b.AppendPrivate(ld, 8, false, 48)
	record(0, 9) // after it
	b.Retired[1] = 6

	if len(b.Ops) != 5 || b.NumCols() != 2 || len(b.Cols) != 4 {
		t.Fatalf("%d ops, %d columns, %d slots; want 5, 2, 4", len(b.Ops), b.NumCols(), len(b.Cols))
	}
	if rows := b.Transpose(nil, 0, 2); !reflect.DeepEqual(rows, []uint64{100, 200, 108, 202}) {
		t.Errorf("transposed %v, want each item's two column slots side by side", rows)
	}
	if rows := b.Transpose(nil, 1, 2); !reflect.DeepEqual(rows, []uint64{108, 202}) {
		t.Errorf("item 1 transposed %v, want [108 202]", rows)
	}
	want := []string{
		accessCall(ld, 0, priv(16), 4, false), accessCall(st, 0, 100, 8, true), accessCall(st, 0, priv(32), 4, true),
		accessCall(ld, 0, 200, 2, false), accessCall(own, 0, 8, 1, false), accessCall(ld, 0, priv(48), 8, false),
		accessCall(own, 0, 9, 1, false),
		accessCall(ld, 1, priv(16), 4, false), accessCall(st, 1, 108, 8, true), accessCall(own, 1, 7, 1, false),
		accessCall(st, 1, priv(32), 4, true), accessCall(ld, 1, 202, 2, false), accessCall(ld, 1, priv(48), 8, false),
		"wi1 retired 6",
	}
	var got callLog
	b.Replay(&got)
	if !reflect.DeepEqual(got.calls, want) {
		t.Errorf("replayed stream differs:\n got %q\nwant %q", got.calls, want)
	}

	// Private ops alone: a region without a single column.
	b.Clear()
	b.AppendPrivate(st, 4, true, 0)
	b.AppendPrivate(ld, 4, false, 0)
	if b.NumCols() != 0 || len(b.Transpose(nil, 0, 2)) != 0 {
		t.Errorf("%d columns, want none", b.NumCols())
	}
	want = []string{
		accessCall(st, 0, priv(0), 4, true), accessCall(ld, 0, priv(0), 4, false),
		accessCall(st, 1, priv(0), 4, true), accessCall(ld, 1, priv(0), 4, false),
	}
	got.calls = nil
	b.Replay(&got)
	if !reflect.DeepEqual(got.calls, want) {
		t.Errorf("private ops alone:\n got %q\nwant %q", got.calls, want)
	}
}
