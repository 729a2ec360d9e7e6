package ir

import (
	"fmt"
	"math"
	"strings"
)

// String renders the module in a readable textual form.
func (m *Module) String() string { return m.render(false) }

// Key renders the module as String does plus what lowering reads and
// String leaves out: each constant's type and bits, each parameter's index.
// Source positions are left out. Two prepared modules (vm.Prepare numbers
// the instructions) with equal keys lower to the same program.
func (m *Module) Key() string { return m.render(true) }

func (m *Module) render(key bool) string {
	var sb strings.Builder
	for i, f := range m.Funcs {
		if i > 0 {
			sb.WriteString("\n")
		}
		sb.WriteString(f.format(key))
	}
	return sb.String()
}

// Format renders the function in a readable textual form.
func (f *Function) Format() string { return f.format(false) }

func (f *Function) format(key bool) string {
	var sb strings.Builder
	kw := "func"
	if f.IsKernel {
		kw = "kernel"
	}
	var params []string
	for _, p := range f.Params {
		s := fmt.Sprintf("%s %%%s", p.Typ, p.Name_)
		if key {
			s += fmt.Sprintf(" #%d", p.Index)
		}
		params = append(params, s)
	}
	fmt.Fprintf(&sb, "%s %s %s(%s) {\n", kw, f.Ret, f.Name, strings.Join(params, ", "))
	for _, b := range f.Blocks {
		fmt.Fprintf(&sb, "%s:\n", b.Name)
		for _, in := range b.Instrs {
			sb.WriteString("  ")
			sb.WriteString(in.format(key))
			sb.WriteString("\n")
		}
	}
	sb.WriteString("}\n")
	return sb.String()
}

// Format renders one instruction.
func (in *Instr) Format() string { return in.format(false) }

func (in *Instr) format(key bool) string {
	var sb strings.Builder
	if in.Producing() {
		fmt.Fprintf(&sb, "%%%d = ", in.ID)
	}
	sb.WriteString(in.Op.String())
	switch in.Op {
	case OpAlloca:
		fmt.Fprintf(&sb, " %s %s", in.Space, in.Typ.(interface{ String() string }))
		if in.VarName != "" {
			fmt.Fprintf(&sb, " ; %s", in.VarName)
		}
		return sb.String()
	case OpWorkItem, OpMath:
		fmt.Fprintf(&sb, " %s", in.Func)
	case OpCall:
		if in.Callee != nil {
			fmt.Fprintf(&sb, " %s", in.Callee.Name)
		}
	}
	for i, a := range in.Args {
		if i == 0 {
			sb.WriteString(" ")
		} else {
			sb.WriteString(", ")
		}
		sb.WriteString(operand(a, key))
	}
	if len(in.Comps) > 0 {
		fmt.Fprintf(&sb, " lanes%v", in.Comps)
	}
	for i, t := range in.Targets {
		if i == 0 && len(in.Args) == 0 {
			sb.WriteString(" ")
		} else {
			sb.WriteString(", ")
		}
		sb.WriteString(t.Name)
	}
	if in.Producing() {
		fmt.Fprintf(&sb, " : %s", in.Typ)
	}
	return sb.String()
}

// operand renders an argument; in a key a constant carries its type and a
// float its bits.
func operand(a Value, key bool) string {
	if c, ok := a.(*ConstFloat); ok && key {
		return fmt.Sprintf("%s %#x", c.Typ, math.Float64bits(c.Val))
	} else if c, ok := a.(*ConstInt); ok && key {
		return fmt.Sprintf("%s %d", c.Typ, c.Val)
	}
	return a.String()
}
