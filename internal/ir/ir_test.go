package ir

import (
	"strings"
	"testing"

	"grover/internal/clc"
)

// buildTestFunc constructs: kernel with one loop summing a buffer.
func buildTestFunc() (*Module, *Function) {
	fn := &Function{Name: "k", IsKernel: true, Ret: clc.TypeVoid}
	p := &Param{Name_: "buf", Typ: &clc.PointerType{Elem: clc.TypeFloat, Space: clc.ASGlobal}, Index: 0}
	fn.Params = []*Param{p}
	b := NewBuilder(fn)
	acc := b.Alloca(clc.TypeFloat, clc.ASPrivate, "acc", clc.Pos{})
	i := b.Alloca(clc.TypeInt, clc.ASPrivate, "i", clc.Pos{})
	b.Store(acc, FloatConst(0), clc.Pos{})
	b.Store(i, IntConst(0), clc.Pos{})
	cond := fn.NewBlock("cond")
	body := fn.NewBlock("body")
	exit := fn.NewBlock("exit")
	b.Br(cond, clc.Pos{})
	b.SetBlock(cond)
	iv := b.Load(i, clc.Pos{})
	cmp := b.Cmp(OpLt, iv, IntConst(8), clc.Pos{})
	b.CondBr(cmp, body, exit, clc.Pos{})
	b.SetBlock(body)
	iv2 := b.Load(i, clc.Pos{})
	idxL := b.Convert(iv2, clc.TypeLong, clc.Pos{})
	ptr := b.Index(p, idxL, clc.Pos{})
	v := b.Load(ptr, clc.Pos{})
	a := b.Load(acc, clc.Pos{})
	sum := b.Bin(OpAdd, clc.TypeFloat, a, v, clc.Pos{})
	b.Store(acc, sum, clc.Pos{})
	next := b.Bin(OpAdd, clc.TypeInt, iv2, IntConst(1), clc.Pos{})
	b.Store(i, next, clc.Pos{})
	b.Br(cond, clc.Pos{})
	b.SetBlock(exit)
	b.Ret(nil, clc.Pos{})
	m := &Module{Name: "t", Funcs: []*Function{fn}}
	return m, fn
}

func TestVerifyValid(t *testing.T) {
	m, _ := buildTestFunc()
	if err := Verify(m); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

func TestVerifyCatchesMissingTerminator(t *testing.T) {
	m, fn := buildTestFunc()
	// Chop the terminator off the last block.
	last := fn.Blocks[len(fn.Blocks)-1]
	last.Instrs = last.Instrs[:0]
	if err := Verify(m); err == nil {
		t.Fatal("expected error for empty/unterminated block")
	}
}

func TestVerifyCatchesBadOperand(t *testing.T) {
	m, fn := buildTestFunc()
	// Use a value from a different function.
	foreign := &Instr{Op: OpWorkItem, Typ: clc.TypeULong, Func: "get_local_id", ID: 999}
	for _, b := range fn.Blocks {
		for _, in := range b.Instrs {
			if in.Op == OpAdd {
				in.Args[0] = foreign
				if err := Verify(m); err == nil {
					t.Fatal("expected undefined-operand error")
				}
				return
			}
		}
	}
}

func TestVerifyCatchesNonPointerLoad(t *testing.T) {
	m, fn := buildTestFunc()
	for _, b := range fn.Blocks {
		for _, in := range b.Instrs {
			if in.Op == OpLoad {
				in.Args[0] = IntConst(3)
				if err := Verify(m); err == nil {
					t.Fatal("expected non-pointer load error")
				}
				return
			}
		}
	}
}

// TestVerifyPointerChainShape exercises the chain-shape rule: pointer
// values reaching an index base (or load/store address) must come from
// a param, alloca, index, pointer convert, or pointer load — never from
// a call (or arithmetic, which the typing rules refuse first). The valid
// fixture already contains a param-rooted chain used across blocks
// (alloca in entry, loads in the loop body), which TestVerifyValid
// accepts; here we corrupt a base and expect rejection.
func TestVerifyPointerChainShape(t *testing.T) {
	m, fn := buildTestFunc()
	ptrTy := &clc.PointerType{Elem: clc.TypeFloat, Space: clc.ASGlobal}
	id := &Function{Name: "id", Ret: ptrTy, Params: []*Param{{Name_: "p", Typ: ptrTy}}}
	NewBuilder(id).Ret(id.Params[0], clc.Pos{})
	m.Funcs = append(m.Funcs, id)
	for _, b := range fn.Blocks {
		for _, in := range b.Instrs {
			if in.Op != OpIndex {
				continue
			}
			// Synthesize a pointer with a call and slide it in as the
			// index base, keeping defs-dominate-uses intact. InsertBefore
			// gives it an ID of its own, so the ID rule holds.
			bad := InsertBefore(in, &Instr{Op: OpCall, Typ: ptrTy, Callee: id, Args: []Value{in.Args[0]}})
			in.Args[0] = bad
			err := Verify(m)
			if err == nil {
				t.Fatal("expected chain-shape error for a call-produced pointer")
			}
			if !strings.Contains(err.Error(), "pointer produced by call") {
				t.Fatalf("wrong error: %v", err)
			}
			return
		}
	}
	t.Fatal("fixture has no OpIndex")
}

// TestVerifyPointerConvertSource: a pointer-typed convert must consume a
// pointer (pointer casts), never an integer.
func TestVerifyPointerConvertSource(t *testing.T) {
	m, fn := buildTestFunc()
	ptrTy := &clc.PointerType{Elem: clc.TypeFloat, Space: clc.ASGlobal}
	for _, b := range fn.Blocks {
		for _, in := range b.Instrs {
			if in.Op == OpIndex {
				cast := &Instr{Op: OpConvert, Typ: ptrTy, Args: []Value{IntConst(64)}, Block: b}
				InsertBefore(in, cast)
				in.Args[0] = cast
				err := Verify(m)
				if err == nil {
					t.Fatal("expected pointer-convert-from-integer error")
				}
				if !strings.Contains(err.Error(), "pointer convert from non-pointer") {
					t.Fatalf("wrong error: %v", err)
				}
				return
			}
		}
	}
	t.Fatal("fixture has no OpIndex")
}

func TestCloneModuleIndependence(t *testing.T) {
	m, fn := buildTestFunc()
	clone := CloneModule(m)
	if err := Verify(clone); err != nil {
		t.Fatalf("clone verify: %v", err)
	}
	cfn := clone.Func("k")
	if cfn == nil || cfn == fn {
		t.Fatal("clone should contain a distinct function")
	}
	if len(cfn.Blocks) != len(fn.Blocks) {
		t.Fatalf("clone has %d blocks, want %d", len(cfn.Blocks), len(fn.Blocks))
	}
	// Mutating the clone must not affect the original.
	nInstr := func(f *Function) int {
		total := 0
		for _, b := range f.Blocks {
			total += len(b.Instrs)
		}
		return total
	}
	before := nInstr(fn)
	cfn.Blocks[0].Instrs = cfn.Blocks[0].Instrs[:1]
	if nInstr(fn) != before {
		t.Fatal("mutating clone affected original")
	}
	// Cloned instructions must not reference original blocks or values.
	origInstrs := map[*Instr]bool{}
	for _, b := range fn.Blocks {
		for _, in := range b.Instrs {
			origInstrs[in] = true
		}
	}
	for _, b := range clone.Func("k").Blocks {
		for _, in := range b.Instrs {
			if origInstrs[in] {
				t.Fatal("clone shares an instruction with the original")
			}
			for _, a := range in.Args {
				if ai, ok := a.(*Instr); ok && origInstrs[ai] {
					t.Fatal("clone references an original instruction")
				}
			}
		}
	}
}

func TestInsertRemoveReplace(t *testing.T) {
	m, fn := buildTestFunc()
	_ = m
	var add *Instr
	for _, b := range fn.Blocks {
		for _, in := range b.Instrs {
			if in.Op == OpAdd && clc.TypesEqual(in.Typ, clc.TypeFloat) {
				add = in
			}
		}
	}
	if add == nil {
		t.Fatal("no add found")
	}
	neg := &Instr{Op: OpNeg, Typ: clc.TypeFloat, Args: []Value{add.Args[0]}}
	InsertBefore(add, neg)
	if neg.Block != add.Block {
		t.Error("InsertBefore should set block link")
	}
	pos := -1
	for i, in := range add.Block.Instrs {
		if in == neg {
			pos = i
		}
		if in == add && pos == -1 {
			t.Error("neg not inserted before add")
		}
	}
	ReplaceUses(fn, add.Args[0], neg)
	if add.Args[0] != neg {
		t.Error("ReplaceUses missed the add")
	}
	// Undo to keep the self-reference out, then remove.
	RemoveInstr(neg)
	for _, in := range add.Block.Instrs {
		if in == neg {
			t.Error("RemoveInstr left the instruction behind")
		}
	}
}

func TestAssignIDs(t *testing.T) {
	_, fn := buildTestFunc()
	fn.AssignIDs()
	seen := map[int]bool{}
	for _, b := range fn.Blocks {
		for _, in := range b.Instrs {
			if in.Producing() {
				if in.ID < 0 || seen[in.ID] {
					t.Fatalf("bad or duplicate ID %d", in.ID)
				}
				seen[in.ID] = true
			} else if in.ID != -1 {
				t.Fatalf("non-producing instruction has ID %d", in.ID)
			}
		}
	}
}

func TestPrinting(t *testing.T) {
	m, _ := buildTestFunc()
	s := m.String()
	for _, frag := range []string{"kernel void k", "alloca", "load", "store", "condbr", "ret", "index"} {
		if !strings.Contains(s, frag) {
			t.Errorf("printed IR missing %q:\n%s", frag, s)
		}
	}
}

func TestPointeeSize(t *testing.T) {
	fptr := &clc.PointerType{Elem: clc.TypeFloat, Space: clc.ASGlobal}
	if PointeeSize(fptr) != 4 {
		t.Error("float* step should be 4")
	}
	arr := &clc.PointerType{Elem: &clc.ArrayType{Elem: clc.TypeFloat, Len: 16}, Space: clc.ASLocal}
	if PointeeSize(arr) != 4 {
		t.Error("(*[16]float) step should be elem size 4")
	}
	arr2 := &clc.PointerType{Elem: &clc.ArrayType{Elem: &clc.ArrayType{Elem: clc.TypeFloat, Len: 16}, Len: 8}, Space: clc.ASLocal}
	if PointeeSize(arr2) != 64 {
		t.Error("(*[8][16]float) step should be inner array size 64")
	}
	it := IndexResultType(arr2).(*clc.PointerType)
	if _, ok := it.Elem.(*clc.ArrayType); !ok {
		t.Error("indexing [8][16] should yield pointer to [16]")
	}
}

func TestModuleLookups(t *testing.T) {
	m, fn := buildTestFunc()
	if m.Kernel("k") != fn {
		t.Error("Kernel lookup failed")
	}
	if m.Kernel("absent") != nil {
		t.Error("Kernel should return nil for unknown names")
	}
	if len(m.Kernels()) != 1 {
		t.Error("Kernels() should list the kernel")
	}
}

func TestPointerRoot(t *testing.T) {
	gptr := &clc.PointerType{Elem: clc.TypeFloat, Space: clc.ASGlobal}
	p := &Param{Name_: "p", Typ: gptr}
	n := &Param{Name_: "n", Typ: clc.TypeInt, Index: 1}
	tile := &clc.ArrayType{Elem: &clc.ArrayType{Elem: clc.TypeFloat, Len: 8}, Len: 4}
	a := &Instr{Op: OpAlloca, Typ: &clc.PointerType{Elem: tile, Space: clc.ASLocal}, Space: clc.ASLocal}
	row := &Instr{Op: OpIndex, Typ: IndexResultType(a.Typ), Args: []Value{a, IntConst(1)}}
	cast := &Instr{Op: OpConvert, Typ: row.Typ, Args: []Value{row}}
	elem := &Instr{Op: OpIndex, Typ: IndexResultType(cast.Typ), Args: []Value{cast, IntConst(2)}}
	pv := &Instr{Op: OpAlloca, Typ: &clc.PointerType{Elem: gptr, Space: clc.ASPrivate}, Space: clc.ASPrivate}
	loaded := &Instr{Op: OpLoad, Typ: gptr, Args: []Value{pv}}
	called := &Instr{Op: OpCall, Typ: gptr}
	pidx := &Instr{Op: OpIndex, Typ: gptr, Args: []Value{p, IntConst(3)}}
	for _, tc := range []struct {
		name  string
		v     Value
		root  Value
		chain []*Instr
	}{
		{"global pointer param", p, p, nil},
		{"index of a param", pidx, p, []*Instr{pidx}},
		{"non-pointer param", n, nil, nil},
		{"alloca through index, convert, index", elem, a, []*Instr{row, elem}},
		{"bare alloca", a, a, nil},
		{"load result", &Instr{Op: OpIndex, Typ: gptr, Args: []Value{loaded, IntConst(0)}}, nil, nil},
		{"call result", called, nil, nil},
	} {
		root, chain := PointerRoot(tc.v)
		if root != tc.root || len(chain) != len(tc.chain) {
			t.Errorf("%s: PointerRoot = %v, %d links; want %v, %d", tc.name, root, len(chain), tc.root, len(tc.chain))
			continue
		}
		for i := range tc.chain {
			if chain[i] != tc.chain[i] {
				t.Errorf("%s: chain[%d] = %v, want %v (outermost first)", tc.name, i, chain[i], tc.chain[i])
			}
		}
		if r := RootOf(tc.v); r != tc.root {
			t.Errorf("%s: RootOf = %v, want %v", tc.name, r, tc.root)
		}
	}
}
