package exprtree

import (
	"fmt"

	"grover/internal/clc"
	"grover/internal/ir"
	"grover/internal/linsolve"
)

// Materializer emits the IR computing affine forms over a registry's terms
// in front of one instruction, each term once however often it is used: a
// work-item query is issued afresh, a representative the caller's reload
// rule names is re-loaded from the variable it loaded, and any other
// representative is referenced as it is. The Grover pass re-loads every
// variable load at its local load; stage-local re-loads only the loads
// inside the loop whose preheader it emits into.
type Materializer struct {
	at     *ir.Instr
	reg    *Registry
	reload func(rep *ir.Instr) bool
	vals   map[string]ir.Value
}

// NewMaterializer returns a materializer inserting before at.
func NewMaterializer(at *ir.Instr, reg *Registry, reload func(rep *ir.Instr) bool) *Materializer {
	return &Materializer{at: at, reg: reg, reload: reload, vals: map[string]ir.Value{}}
}

// At is the insertion point.
func (m *Materializer) At() *ir.Instr { return m.at }

// Insert places in before the insertion point.
func (m *Materializer) Insert(in *ir.Instr) *ir.Instr { return ir.InsertBefore(m.at, in) }

// Affine emits a long value computing a. The caller has checked that a's
// coefficients and constant are integers.
func (m *Materializer) Affine(a *linsolve.Affine) (ir.Value, error) {
	var acc ir.Value
	add := func(v ir.Value) {
		if acc == nil {
			acc = v
			return
		}
		acc = m.Insert(&ir.Instr{Op: ir.OpAdd, Typ: clc.TypeLong, Args: []ir.Value{acc, v}, Pos: m.at.Pos})
	}
	for _, key := range a.Terms() {
		tv, err := m.term(key)
		if err != nil {
			return nil, err
		}
		switch c := a.Coeff(key).Num().Int64(); c {
		case 1:
			add(tv)
		case -1:
			add(m.Insert(&ir.Instr{Op: ir.OpNeg, Typ: clc.TypeLong, Args: []ir.Value{tv}, Pos: m.at.Pos}))
		default:
			add(m.Insert(&ir.Instr{Op: ir.OpMul, Typ: clc.TypeLong, Args: []ir.Value{tv, ir.LongConst(c)}, Pos: m.at.Pos}))
		}
	}
	if cv := a.Const.Num().Int64(); cv != 0 || acc == nil {
		add(ir.LongConst(cv))
	}
	return acc, nil
}

// term emits one term as a long value, or returns the one emitted before.
func (m *Materializer) term(key string) (ir.Value, error) {
	if v, ok := m.vals[key]; ok {
		return v, nil
	}
	t := m.reg.Term(key)
	if t == nil {
		return nil, fmt.Errorf("exprtree: unknown term %q", key)
	}
	v := t.Rep
	if t.WorkItemFn != "" {
		v = m.Insert(&ir.Instr{Op: ir.OpWorkItem, Typ: clc.TypeULong, Func: t.WorkItemFn,
			Args: []ir.Value{ir.IntConst(int64(t.Dim))}, Pos: m.at.Pos})
	} else if rep, ok := t.Rep.(*ir.Instr); ok && m.reload(rep) {
		v = m.Insert(&ir.Instr{Op: ir.OpLoad, Typ: rep.Typ, Args: []ir.Value{rep.Args[0]}, Pos: m.at.Pos})
	}
	if st, ok := v.Type().(*clc.ScalarType); !ok || st.Kind != clc.KLong {
		v = m.Insert(&ir.Instr{Op: ir.OpConvert, Typ: clc.TypeLong, Args: []ir.Value{v}, Pos: m.at.Pos})
	}
	m.vals[key] = v
	return v, nil
}
