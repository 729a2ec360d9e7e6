package opt

import (
	"math"
	"slices"
	"testing"

	"grover/internal/clc"
	"grover/internal/ir"
)

// TestCSEEquality builds pairs of pure instructions, each pair in a
// function of its own, and checks which pairs CSE merges: two
// instructions are equal when they agree on op, printed result type, Func
// and Comps, and their operands are the same value after earlier
// replacements, or constants equal in value and printed type, floats by
// their shortest round-trip text (0 and −0 differ, every NaN is equal).
func TestCSEEquality(t *testing.T) {
	pos := clc.Pos{}
	f2 := &clc.VectorType{Elem: clc.TypeFloat, Len: 2}
	f4 := &clc.VectorType{Elem: clc.TypeFloat, Len: 4}
	otherNaN := math.Float64frombits(0xfff0000000000123)
	// vals are the operands each pair draws on.
	type vals struct {
		p  *ir.Param // int
		f  ir.Value  // float
		vf ir.Value  // float4
	}
	cases := []struct {
		name  string
		merge bool
		// pair emits the two instructions; CSE may drop the second.
		pair func(b *ir.Builder, v vals) (first, second ir.Value)
	}{
		{"add %p, 1 twice", true, func(b *ir.Builder, v vals) (ir.Value, ir.Value) {
			return b.Bin(ir.OpAdd, clc.TypeInt, v.p, ir.IntConst(1), pos),
				b.Bin(ir.OpAdd, clc.TypeInt, v.p, ir.IntConst(1), pos)
		}},
		{"two NaN operands", true, func(b *ir.Builder, v vals) (ir.Value, ir.Value) {
			return b.Bin(ir.OpMul, clc.TypeFloat, v.f, ir.FloatConst(math.NaN()), pos),
				b.Bin(ir.OpMul, clc.TypeFloat, v.f, ir.FloatConst(otherNaN), pos)
		}},
		{"equal shuffles", true, func(b *ir.Builder, v vals) (ir.Value, ir.Value) {
			return b.Shuffle(v.vf, []int{3, 1}, f2, pos), b.Shuffle(v.vf, []int{3, 1}, f2, pos)
		}},
		{"an operand replaced earlier in the pass", true, func(b *ir.Builder, v vals) (ir.Value, ir.Value) {
			x := b.Bin(ir.OpAdd, clc.TypeInt, v.p, ir.IntConst(1), pos)
			dup := b.Bin(ir.OpAdd, clc.TypeInt, v.p, ir.IntConst(1), pos)
			return b.Bin(ir.OpMul, clc.TypeInt, dup, ir.IntConst(2), pos),
				b.Bin(ir.OpMul, clc.TypeInt, x, ir.IntConst(2), pos)
		}},
		{"0.0 and -0.0", false, func(b *ir.Builder, v vals) (ir.Value, ir.Value) {
			return b.Bin(ir.OpMul, clc.TypeFloat, v.f, ir.FloatConst(0), pos),
				b.Bin(ir.OpMul, clc.TypeFloat, v.f, ir.FloatConst(math.Copysign(0, -1)), pos)
		}},
		{"1 : int and 1 : long", false, func(b *ir.Builder, v vals) (ir.Value, ir.Value) {
			return b.Convert(ir.IntConst(1), clc.TypeFloat, pos), b.Convert(ir.LongConst(1), clc.TypeFloat, pos)
		}},
		{"one operand converted to int and to long", false, func(b *ir.Builder, v vals) (ir.Value, ir.Value) {
			return b.Convert(v.f, clc.TypeInt, pos), b.Convert(v.f, clc.TypeLong, pos)
		}},
		{"get_local_id and get_global_id", false, func(b *ir.Builder, v vals) (ir.Value, ir.Value) {
			return b.WorkItem("get_local_id", ir.IntConst(0), pos), b.WorkItem("get_global_id", ir.IntConst(0), pos)
		}},
		{"different shuffles", false, func(b *ir.Builder, v vals) (ir.Value, ir.Value) {
			return b.Shuffle(v.vf, []int{0, 1}, f2, pos), b.Shuffle(v.vf, []int{1, 0}, f2, pos)
		}},
	}
	for _, c := range cases {
		fn, b, p, _ := newFunc()
		v := vals{p: p, f: b.Convert(p, clc.TypeFloat, pos)}
		v.vf = b.BuildVec(f4, []ir.Value{v.f, v.f, v.f, v.f}, pos)
		first, second := c.pair(b, v)
		b.Ret(nil, pos)
		if err := ir.VerifyFunc(fn); err != nil {
			t.Fatalf("%s: the fixture: %v", c.name, err)
		}
		CSE(fn)
		kept := slices.Contains(fn.Blocks[0].Instrs, first.(*ir.Instr))
		merged := !slices.Contains(fn.Blocks[0].Instrs, second.(*ir.Instr))
		if !kept || merged != c.merge {
			t.Errorf("%s: first kept %v, second merged %v, want merged %v:\n%s", c.name, kept, merged, c.merge, fn.Format())
		}
	}
}
