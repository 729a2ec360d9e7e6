package ir

import (
	"strings"
	"testing"

	"grover/internal/clc"
)

// TestVerifyTypingRules builds one ill-typed instruction per typing rule
// with a Builder, in a kernel that verifies without it: Verify must refuse
// each one and name its opcode.
func TestVerifyTypingRules(t *testing.T) {
	pos := clc.Pos{}
	f4 := &clc.VectorType{Elem: clc.TypeFloat, Len: 4}
	i4 := &clc.VectorType{Elem: clc.TypeInt, Len: 4}
	fptr := &clc.PointerType{Elem: clc.TypeFloat, Space: clc.ASGlobal}
	type vals struct {
		p       *Param // __global float*
		i, f    Value  // int, float
		vf, vi  Value  // float4, int4
		callee  *Function
		foreign *Function
	}
	cases := []struct {
		name, op string
		emit     func(b *Builder, v vals)
	}{
		{"bin operands", "add", func(b *Builder, v vals) { b.Bin(OpAdd, clc.TypeInt, v.i, v.f, pos) }},
		{"bin on a pointer", "add", func(b *Builder, v vals) { b.Bin(OpAdd, fptr, v.p, v.p, pos) }},
		{"un operand", "neg", func(b *Builder, v vals) { b.Un(OpNeg, clc.TypeFloat, v.i, pos) }},
		{"not on float", "not", func(b *Builder, v vals) { b.Un(OpNot, clc.TypeFloat, v.f, pos) }},
		{"not on a float vector", "not", func(b *Builder, v vals) { b.Un(OpNot, f4, v.vf, pos) }},
		{"cmp operands", "eq", func(b *Builder, v vals) { b.Cmp(OpEq, v.i, v.f, pos) }},
		{"cmp on vectors", "lt", func(b *Builder, v vals) { b.Cmp(OpLt, v.vi, v.vi, pos) }},
		{"cmp result", "ne", func(b *Builder, v vals) {
			b.Cmp(OpNe, v.i, v.i, pos).Typ = clc.TypeFloat
		}},
		{"convert vector lengths", "convert", func(b *Builder, v vals) {
			b.Convert(v.vf, &clc.VectorType{Elem: clc.TypeInt, Len: 2}, pos)
		}},
		{"convert pointer to float", "convert", func(b *Builder, v vals) { b.Convert(v.p, clc.TypeFloat, pos) }},
		{"convert vector to scalar", "convert", func(b *Builder, v vals) { b.Convert(v.vf, clc.TypeFloat, pos) }},
		{"extract lane", "extract", func(b *Builder, v vals) { b.Extract(v.vf, 4, pos) }},
		{"insert scalar", "insert", func(b *Builder, v vals) { b.Insert(v.vf, v.i, 0, pos) }},
		{"shuffle element", "shuffle", func(b *Builder, v vals) {
			b.Shuffle(v.vf, []int{0, 1}, &clc.VectorType{Elem: clc.TypeInt, Len: 2}, pos)
		}},
		{"shuffle lanes", "shuffle", func(b *Builder, v vals) {
			b.Shuffle(v.vf, []int{0, 1, 2}, &clc.VectorType{Elem: clc.TypeFloat, Len: 2}, pos)
		}},
		{"build lane count", "build", func(b *Builder, v vals) { b.BuildVec(f4, []Value{v.f, v.f}, pos) }},
		{"build lane type", "build", func(b *Builder, v vals) { b.BuildVec(i4, []Value{v.i, v.i, v.i, v.f}, pos) }},
		{"load result", "load", func(b *Builder, v vals) { b.Load(v.p, pos).Typ = clc.TypeInt }},
		{"store value", "store", func(b *Builder, v vals) { b.Store(v.p, v.i, pos) }},
		{"index by float", "index", func(b *Builder, v vals) { b.Index(v.p, v.f, pos) }},
		{"math operand", "math", func(b *Builder, v vals) { b.Math("sqrt", clc.TypeFloat, []Value{v.i}, pos) }},
		{"math arity", "math", func(b *Builder, v vals) { b.Math("fmax", clc.TypeFloat, []Value{v.f}, pos) }},
		{"dot of integers", "math", func(b *Builder, v vals) { b.Math("dot", clc.TypeInt, []Value{v.vi, v.vi}, pos) }},
		{"length result", "math", func(b *Builder, v vals) { b.Math("length", clc.TypeInt, []Value{v.vf}, pos) }},
		{"workitem result", "workitem", func(b *Builder, v vals) { b.WorkItem("get_local_id", IntConst(0), pos).Typ = clc.TypeFloat }},
		{"call argument", "call", func(b *Builder, v vals) { b.Call(v.callee, []Value{v.f}, pos) }},
		{"callee outside the module", "call", func(b *Builder, v vals) { b.Call(v.foreign, []Value{v.i}, pos) }},
		{"vector-typed constant", "add", func(b *Builder, v vals) {
			b.Bin(OpAdd, i4, v.vi, &ConstInt{Val: 1, Typ: i4}, pos)
		}},
		{"condbr on a vector", "condbr", func(b *Builder, v vals) {
			b.CondBr(v.vi, b.Fn.Blocks[0], b.Fn.Blocks[0], pos)
		}},
		{"ret value", "ret", func(b *Builder, v vals) { b.Ret(v.i, pos) }},
	}
	for _, c := range cases {
		build := func(bad bool) *Module {
			callee := &Function{Name: "sq", Ret: clc.TypeInt, Params: []*Param{{Name_: "x", Typ: clc.TypeInt}}}
			cb := NewBuilder(callee)
			cb.Ret(cb.Bin(OpMul, clc.TypeInt, callee.Params[0], callee.Params[0], pos), pos)
			foreign := &Function{Name: "sq", Ret: clc.TypeInt, Params: callee.Params}
			NewBuilder(foreign).Ret(callee.Params[0], pos)

			fn := &Function{Name: "k", IsKernel: true, Ret: clc.TypeVoid}
			fn.Params = []*Param{{Name_: "p", Typ: fptr}, {Name_: "i", Typ: clc.TypeInt, Index: 1}}
			b := NewBuilder(fn)
			b.SetBlock(fn.NewBlock("body"))
			v := vals{p: fn.Params[0], i: fn.Params[1], callee: callee, foreign: foreign}
			v.f = b.Load(v.p, pos)
			v.vf = b.BuildVec(f4, []Value{v.f, v.f, v.f, v.f}, pos)
			v.vi = b.BuildVec(i4, []Value{v.i, v.i, v.i, v.i}, pos)
			if bad {
				c.emit(b, v)
			}
			if !b.Terminated() {
				b.Ret(nil, pos)
			}
			b.SetBlock(fn.Blocks[0])
			b.Br(fn.Blocks[1], pos)
			return &Module{Name: "t", Funcs: []*Function{fn, callee}}
		}
		if err := Verify(build(false)); err != nil {
			t.Fatalf("%s: the fixture itself: %v", c.name, err)
		}
		err := Verify(build(true))
		if err == nil {
			t.Errorf("%s: verified", c.name)
			continue
		}
		t.Logf("%s: %v", c.name, err)
		if !strings.Contains(err.Error(), c.op+" ") {
			t.Errorf("%s: error does not name %s: %v", c.name, c.op, err)
		}
	}
}

// TestVerifyIDRule: every producing instruction has an ID of its own below
// the function's NextID. Verify refuses an ID shared with another
// instruction, one at NextID and a negative one, and names the
// instruction it refuses.
func TestVerifyIDRule(t *testing.T) {
	cases := []struct {
		name, want string
		id         func(fn *Function) int
	}{
		{"shared", "shares ID 0 with the alloca", func(*Function) int { return 0 }},
		{"at NextID", "outside [0,", func(fn *Function) int { return fn.NextID() }},
		{"negative", "outside [0,", func(*Function) int { return -1 }},
	}
	for _, c := range cases {
		m, fn := buildTestFunc()
		// The compare in block cond.
		in := fn.Blocks[1].Instrs[1]
		if in.Op != OpLt {
			t.Fatalf("fixture: %s is no compare", in.Format())
		}
		in.ID = c.id(fn)
		err := Verify(m)
		if err == nil {
			t.Errorf("%s: verified", c.name)
			continue
		}
		t.Logf("%s: %v", c.name, err)
		if !strings.Contains(err.Error(), in.Format()) || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error does not name %s and say %q: %v", c.name, in.Format(), c.want, err)
		}
	}
}
