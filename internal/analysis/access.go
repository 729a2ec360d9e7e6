package analysis

import (
	"grover/internal/clc"
	"grover/internal/exprtree"
	"grover/internal/ir"
	"grover/internal/linsolve"
)

// access is one load or store of a __local buffer.
type access struct {
	instr *ir.Instr
	store bool
	// aff is the access's byte offset from the buffer base as an affine
	// form, nil when some index is not affine.
	aff *linsolve.Affine
}

// localBuffer groups every collected access to one __local alloca.
type localBuffer struct {
	alloca   *ir.Instr
	accesses []*access
}

// collectLocalBuffers gathers all loads and stores rooted at __local
// allocas, in block order. Unlike the Grover candidate matcher it is
// total: escaping uses don't abort collection, they are simply not
// accesses (the legality detector reports escapes separately).
func collectLocalBuffers(fn *ir.Function, tb *exprtree.Builder, reg *exprtree.Registry) []*localBuffer {
	byAlloca := map[*ir.Instr]*localBuffer{}
	var order []*localBuffer
	for _, b := range fn.Blocks {
		for _, in := range b.Instrs {
			if in.Op != ir.OpLoad && in.Op != ir.OpStore {
				continue
			}
			base, ok := ir.RootOf(in.Args[0]).(*ir.Instr)
			if !ok || base.Space != clc.ASLocal {
				continue
			}
			buf := byAlloca[base]
			if buf == nil {
				buf = &localBuffer{alloca: base}
				byAlloca[base] = buf
				order = append(order, buf)
			}
			acc := &access{instr: in, store: in.Op == ir.OpStore}
			_, chain := ir.PointerRoot(in.Args[0])
			acc.aff, _ = tb.Offset(chain, reg)
			buf.accesses = append(buf.accesses, acc)
		}
	}
	return order
}

// accessSize is the number of bytes the access reads or writes.
func (a *access) accessSize() int {
	if a.store {
		return a.instr.Args[1].Type().Size()
	}
	return a.instr.Typ.Size()
}

// bufferSize is the allocation size of a __local alloca in bytes.
func bufferSize(alloca *ir.Instr) int {
	pt, ok := alloca.Typ.(*clc.PointerType)
	if !ok {
		return 0
	}
	return pt.Elem.Size()
}

// isWorkItemDimKey reports whether key is a get_local_id or
// get_global_id term (a per-work-item-varying dimension).
func isWorkItemDimKey(key string) bool {
	for d := 0; d < 3; d++ {
		if key == exprtree.LocalIDKey(d) || key == exprtree.WorkItemKey("get_global_id", d) {
			return true
		}
	}
	return false
}
