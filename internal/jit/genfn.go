package jit

import (
	"fmt"
	"math"
	"regexp"
	"strings"

	"grover/internal/bcode"
	"grover/internal/clc"
)

// fnEmit emits one bcode function as a native Go lane function.
// Kernels become `kern<i>(e *env, resume int) (int, error)` state
// machines (0 = done, k>0 = suspended at barrier site k); callees
// become `fn<i>(e *env, fb int, args...) (int64, float64, []int64,
// []float64, error)` with wgvec's return-stash semantics.
type fnEmit struct {
	g       *srcGen
	bf      *bcode.BFunc
	kernel  bool
	name    string
	targets map[int]bool
	barSite map[int]int
	// buf redirects wl output during the computeBarLive dry render;
	// dry additionally suppresses barrier spill emission there.
	buf     *strings.Builder
	dry     bool
	barLive map[int]map[string]bool
	// Promoted private slots (see genpromote.go): promAt intercepts the
	// promoted access pcs, promList orders the slots for declaration,
	// entry init, writeback, and barrier spill.
	promAt   map[int]*pmSlot
	promList []*pmSlot
}

// prepFunc runs the emission-independent analyses (goto targets,
// barrier sites, private-slot promotion, barrier liveness) so the
// dispatch table can size spill arrays before any body is emitted.
func (g *srcGen) prepFunc(bf *bcode.BFunc, id int, kernel bool) *fnEmit {
	fe := &fnEmit{g: g, bf: bf, kernel: kernel}
	if kernel {
		fe.name = fmt.Sprintf("kern%d", id)
	} else {
		fe.name = fmt.Sprintf("fn%d", id)
	}
	fe.scan()
	if kernel {
		fe.computePromote()
	}
	if len(fe.barSite) > 0 {
		fe.computeBarLive()
	}
	return fe
}

func (fe *fnEmit) emit() {
	fe.header()
	fe.body()
	fe.g.wl("}")
	fe.g.wl("")
}

func (g *srcGen) emitFunc(bf *bcode.BFunc, id int, kernel bool) {
	g.prepFunc(bf, id, kernel).emit()
}

// scan collects goto targets (only pcs an emitted goto will reference)
// and numbers barrier sites in pc order.
func (fe *fnEmit) scan() {
	fe.targets = map[int]bool{}
	fe.barSite = map[int]int{}
	code := fe.bf.Code
	for pc := range code {
		in := &code[pc]
		switch in.Op {
		case bcode.OpJmp:
			if int(in.Imm) != pc+1 {
				fe.targets[int(in.Imm)] = true
			}
		case bcode.OpCondBrI, bcode.OpCondBrF:
			t, f := int(in.Imm), int(in.N)
			switch {
			case f == pc+1:
				fe.targets[t] = true
			case t == pc+1:
				fe.targets[f] = true
			default:
				fe.targets[t] = true
				fe.targets[f] = true
			}
		case bcode.OpBarrier:
			if fe.kernel {
				fe.barSite[pc] = len(fe.barSite) + 1
			}
		}
	}
}

func (fe *fnEmit) wl(f string, a ...any) {
	if fe.buf != nil {
		fmt.Fprintf(fe.buf, f+"\n", a...)
		return
	}
	fe.g.wl(f, a...)
}

// regToken matches the register and promoted-slot names (r0, f3, v1,
// w2, pm4) an emitted instruction references; every such reference
// emitInst produces has exactly this shape, so scanning the rendered
// text recovers the instruction's register set without a per-opcode
// operand table. ("pm" never matches inside "e.pmem" — no digit
// follows.)
var regToken = regexp.MustCompile(`\b(?:pm|[rfvw])[0-9]+\b`)

// computeBarLive renders every instruction once into a scratch buffer
// and computes, per barrier site, the register names referenced in
// code reachable from that barrier's resume point. Only those
// registers spill across the barrier — a superset of the live set (a
// referenced register may be redefined before any read), never a
// subset, so a resumed lane always sees every value it can still read.
// Barrier-heavy kernels with large register files (tiled matmul,
// n-body) otherwise pay a full register-file round-trip through e.si/
// e.sf per lane per round.
func (fe *fnEmit) computeBarLive() {
	code := fe.bf.Code
	refs := make([][]string, len(code))
	var sb strings.Builder
	fe.buf, fe.dry = &sb, true
	for pc := range code {
		sb.Reset()
		fe.emitInst(pc, &code[pc])
		refs[pc] = regToken.FindAllString(sb.String(), -1)
	}
	fe.buf, fe.dry = nil, false

	succ := func(pc int) []int {
		in := &code[pc]
		switch in.Op {
		case bcode.OpJmp:
			return []int{int(in.Imm)}
		case bcode.OpCondBrI, bcode.OpCondBrF:
			return []int{int(in.Imm), int(in.N)}
		case bcode.OpRet, bcode.OpRetI, bcode.OpRetF, bcode.OpRetVI, bcode.OpRetVF, bcode.OpTrap:
			return nil
		}
		if pc+1 < len(code) {
			return []int{pc + 1}
		}
		return nil
	}

	fe.barLive = make(map[int]map[string]bool, len(fe.barSite))
	for pc, site := range fe.barSite {
		live := map[string]bool{}
		seen := make([]bool, len(code))
		stack := succ(pc)
		for len(stack) > 0 {
			p := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if p >= len(code) || seen[p] {
				continue
			}
			seen[p] = true
			for _, r := range refs[p] {
				live[r] = true
			}
			stack = append(stack, succ(p)...)
		}
		fe.barLive[site] = live
	}
}

// errRet returns the error-return statement for this function shape.
func (fe *fnEmit) errRet(expr string) string {
	if fe.kernel {
		return "return 0, " + expr
	}
	return "return 0, 0, nil, nil, " + expr
}

// header emits the signature, register declarations, the barrier
// resume prologue, and constant/parameter initialization.
func (fe *fnEmit) header() {
	bf := fe.bf
	if fe.kernel {
		fe.wl("func %s(e *env, resume int) (int, error) {", fe.name)
	} else {
		params := []string{"e *env", "fb int"}
		for i, p := range bf.Params {
			params = append(params, fmt.Sprintf("p%d %s", i, bankType(bf, p)))
		}
		fe.wl("func %s(%s) (int64, float64, []int64, []float64, error) {",
			fe.name, strings.Join(params, ", "))
	}

	// Register file as locals. Everything is declared up front so gotos
	// never jump over declarations, then blank-used so dead registers
	// stay legal.
	var names []string
	if bf.NInt > 0 {
		fe.wl("var %s int64", regList("r", bf.NInt))
		names = append(names, regNames("r", bf.NInt)...)
	}
	if bf.NFlt > 0 {
		fe.wl("var %s float64", regList("f", bf.NFlt))
		names = append(names, regNames("f", bf.NFlt)...)
	}
	for i, l := range bf.VecILens {
		fe.wl("var v%d [%d]int64", i, l)
		names = append(names, fmt.Sprintf("v%d", i))
	}
	for i, l := range bf.VecFLens {
		fe.wl("var w%d [%d]float64", i, l)
		names = append(names, fmt.Sprintf("w%d", i))
	}
	for _, s := range fe.promList {
		typ := "int64"
		if s.flt {
			typ = "float64"
		}
		if s.lanes == 1 {
			fe.wl("var %s %s", s.name(), typ)
		} else {
			fe.wl("var %s [%d]%s", s.name(), s.lanes, typ)
		}
		names = append(names, s.name())
	}
	fe.wl("var ta, tb uint64")
	fe.wl("var ab []byte")
	fe.wl("var ts float64")
	names = append(names, "ta", "tb", "ab", "ts")
	for i := 0; i < len(names); i += 12 {
		end := min(i+12, len(names))
		chunk := names[i:end]
		fe.wl("%s = %s", strings.Repeat("_, ", len(chunk)-1)+"_", strings.Join(chunk, ", "))
	}

	if fe.kernel && len(fe.barSite) > 0 {
		fe.wl("if resume != 0 {")
		fe.wl("switch resume {")
		for pc := 0; pc < len(bf.Code); pc++ {
			if site, ok := fe.barSite[pc]; ok {
				fe.wl("case %d:", site)
				fe.emitSpill(fe.barLive[site], true)
				fe.wl("goto B%d", site)
			}
		}
		fe.wl("}")
		fe.wl("}")
	}

	// Constant region: locals are zero-valued, so only non-zero
	// constants need stores. Float constants go through exact bits.
	for ci, v := range bf.IntConsts {
		if v != 0 {
			fe.wl("r%d = %d", ci, v)
		}
	}
	for ci, v := range bf.FltConsts {
		if bits := math.Float64bits(v); bits != 0 {
			fe.wl("f%d = math.Float64frombits(0x%016x)", ci, bits)
		}
	}
	// Parameter region.
	for k, p := range bf.Params {
		if fe.kernel {
			switch p.Bank {
			case bcode.BankInt:
				fe.wl("r%d = e.pi[%d]", p.Idx, k)
			case bcode.BankFlt:
				fe.wl("f%d = e.pf[%d]", p.Idx, k)
			}
			continue
		}
		switch p.Bank {
		case bcode.BankInt:
			fe.wl("r%d = p%d", p.Idx, k)
		case bcode.BankFlt:
			fe.wl("f%d = p%d", p.Idx, k)
		case bcode.BankVecI:
			fe.wl("v%d = p%d", p.Idx, k)
		case bcode.BankVecF:
			fe.wl("w%d = p%d", p.Idx, k)
		}
	}
	// Promoted private slots pick up whatever bytes the arena holds on
	// fresh entry; barrier resumes restore them from the spill arrays
	// instead (the resume switch jumps past this).
	fe.emitPmInit()
}

// emitSpill writes the barrier spill (restore=false) or restore
// (restore=true) of the registers in set against e.si/e.sf; a nil set
// means the full register file. Slot layout is fixed — scalars first,
// then vector lanes in register order — so skipped registers never
// shift the slots of spilled ones, and a site's spill and restore
// always agree.
func (fe *fnEmit) emitSpill(set map[string]bool, restore bool) {
	bf := fe.bf
	want := func(name string) bool { return set == nil || set[name] }
	mov := func(slot int, si bool, reg string) {
		arr := "e.si"
		if !si {
			arr = "e.sf"
		}
		if restore {
			fe.wl("%s = %s[%d]", reg, arr, slot)
		} else {
			fe.wl("%s[%d] = %s", arr, slot, reg)
		}
	}
	s := 0
	for i := 0; i < bf.NInt; i++ {
		if want(fmt.Sprintf("r%d", i)) {
			mov(s, true, fmt.Sprintf("r%d", i))
		}
		s++
	}
	for i, l := range bf.VecILens {
		for j := 0; j < l; j++ {
			if want(fmt.Sprintf("v%d", i)) {
				mov(s, true, fmt.Sprintf("v%d[%d]", i, j))
			}
			s++
		}
	}
	for _, sl := range fe.promList {
		if sl.flt {
			continue
		}
		for j := 0; j < sl.lanes; j++ {
			if want(sl.name()) {
				mov(s, true, sl.elem(j))
			}
			s++
		}
	}
	s = 0
	for i := 0; i < bf.NFlt; i++ {
		if want(fmt.Sprintf("f%d", i)) {
			mov(s, false, fmt.Sprintf("f%d", i))
		}
		s++
	}
	for i, l := range bf.VecFLens {
		for j := 0; j < l; j++ {
			if want(fmt.Sprintf("w%d", i)) {
				mov(s, false, fmt.Sprintf("w%d[%d]", i, j))
			}
			s++
		}
	}
	for _, sl := range fe.promList {
		if !sl.flt {
			continue
		}
		for j := 0; j < sl.lanes; j++ {
			if want(sl.name()) {
				mov(s, false, sl.elem(j))
			}
			s++
		}
	}
}

// body emits the flat pc-ordered instruction stream with labels at
// goto targets and barrier suspend/resume points.
func (fe *fnEmit) body() {
	code := fe.bf.Code
	for pc := range code {
		if fe.targets[pc] {
			fe.wl("L%d:", pc)
		}
		fe.emitInst(pc, &code[pc])
	}
	// Defensive terminator: bcode functions always end in a terminator,
	// and this also guarantees Go's termination analysis is satisfied
	// when the last instruction is a goto or label.
	fe.wl("%s", fe.errRet(`errors.New("jit: fell off end of code")`))
}

// --- expression helpers -------------------------------------------------

func regNames(prefix string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s%d", prefix, i)
	}
	return out
}

func regList(prefix string, n int) string {
	return strings.Join(regNames(prefix, n), ", ")
}

// bankType is the Go parameter type for a callee parameter register.
func bankType(bf *bcode.BFunc, p bcode.Ref) string {
	switch p.Bank {
	case bcode.BankFlt:
		return "float64"
	case bcode.BankVecI:
		return fmt.Sprintf("[%d]int64", bf.VecILens[p.Idx])
	case bcode.BankVecF:
		return fmt.Sprintf("[%d]float64", bf.VecFLens[p.Idx])
	}
	return "int64"
}

// widthOf mirrors vm.widthBits.
func widthOf(k clc.ScalarKind) uint {
	switch k {
	case clc.KBool, clc.KChar, clc.KUChar:
		return 8
	case clc.KShort, clc.KUShort:
		return 16
	case clc.KInt, clc.KUInt:
		return 32
	}
	return 64
}

// normE wraps x in vm.normInt's width normalization for the kind.
func normE(k clc.ScalarKind, x string) string {
	switch k {
	case clc.KBool:
		return fmt.Sprintf("nb(%s)", x)
	case clc.KChar:
		return fmt.Sprintf("int64(int8(%s))", x)
	case clc.KUChar:
		return fmt.Sprintf("int64(uint8(%s))", x)
	case clc.KShort:
		return fmt.Sprintf("int64(int16(%s))", x)
	case clc.KUShort:
		return fmt.Sprintf("int64(uint16(%s))", x)
	case clc.KInt:
		return fmt.Sprintf("int64(int32(%s))", x)
	case clc.KUInt:
		return fmt.Sprintf("int64(uint32(%s))", x)
	}
	return x
}

// roundE wraps x in vm.math32's float32 rounding when the kind is
// KFloat.
func roundE(k clc.ScalarKind, x string) string {
	if k == clc.KFloat {
		return fmt.Sprintf("float64(float32(%s))", x)
	}
	return x
}

// ldIntE is wgvec loadIntLane's decode expression for one element.
func ldIntE(k clc.ScalarKind, off string) string {
	switch k {
	case clc.KBool, clc.KUChar:
		return fmt.Sprintf("int64(ab[%s])", off)
	case clc.KChar:
		return fmt.Sprintf("int64(int8(ab[%s]))", off)
	case clc.KShort:
		return fmt.Sprintf("int64(int16(binary.LittleEndian.Uint16(ab[%s:])))", off)
	case clc.KUShort:
		return fmt.Sprintf("int64(binary.LittleEndian.Uint16(ab[%s:]))", off)
	case clc.KInt:
		return fmt.Sprintf("int64(int32(binary.LittleEndian.Uint32(ab[%s:])))", off)
	case clc.KUInt:
		return fmt.Sprintf("int64(binary.LittleEndian.Uint32(ab[%s:]))", off)
	}
	return fmt.Sprintf("int64(binary.LittleEndian.Uint64(ab[%s:]))", off)
}

// stIntS is wgvec storeIntLane's encode statement for one element.
func stIntS(k clc.ScalarKind, off, x string) string {
	switch k {
	case clc.KBool, clc.KChar, clc.KUChar:
		return fmt.Sprintf("ab[%s] = byte(%s)", off, x)
	case clc.KShort, clc.KUShort:
		return fmt.Sprintf("binary.LittleEndian.PutUint16(ab[%s:], uint16(%s))", off, x)
	case clc.KInt, clc.KUInt:
		return fmt.Sprintf("binary.LittleEndian.PutUint32(ab[%s:], uint32(%s))", off, x)
	}
	return fmt.Sprintf("binary.LittleEndian.PutUint64(ab[%s:], uint64(%s))", off, x)
}

func ldFltE(k clc.ScalarKind, off string) string {
	if k == clc.KFloat {
		return fmt.Sprintf("float64(math.Float32frombits(binary.LittleEndian.Uint32(ab[%s:])))", off)
	}
	return fmt.Sprintf("math.Float64frombits(binary.LittleEndian.Uint64(ab[%s:]))", off)
}

func stFltS(k clc.ScalarKind, off, x string) string {
	if k == clc.KFloat {
		return fmt.Sprintf("binary.LittleEndian.PutUint32(ab[%s:], math.Float32bits(float32(%s)))", off, x)
	}
	return fmt.Sprintf("binary.LittleEndian.PutUint64(ab[%s:], math.Float64bits(%s))", off, x)
}

// mathFExpr is scalarMathF's expression for a builtin over the given
// argument expressions; ok=false for builtins the VM itself rejects.
func mathFExpr(name string, a []string) (string, bool) {
	arg := func(i int) string {
		if i < len(a) {
			return a[i]
		}
		return "0"
	}
	switch name {
	case "sqrt", "native_sqrt", "half_sqrt":
		return fmt.Sprintf("math.Sqrt(%s)", arg(0)), true
	case "rsqrt", "native_rsqrt", "half_rsqrt":
		return fmt.Sprintf("1 / math.Sqrt(%s)", arg(0)), true
	case "fabs", "abs":
		return fmt.Sprintf("math.Abs(%s)", arg(0)), true
	case "exp", "native_exp":
		return fmt.Sprintf("math.Exp(%s)", arg(0)), true
	case "exp2":
		return fmt.Sprintf("math.Exp2(%s)", arg(0)), true
	case "log", "native_log":
		return fmt.Sprintf("math.Log(%s)", arg(0)), true
	case "log2":
		return fmt.Sprintf("math.Log2(%s)", arg(0)), true
	case "sin", "native_sin":
		return fmt.Sprintf("math.Sin(%s)", arg(0)), true
	case "cos", "native_cos":
		return fmt.Sprintf("math.Cos(%s)", arg(0)), true
	case "tan":
		return fmt.Sprintf("math.Tan(%s)", arg(0)), true
	case "floor":
		return fmt.Sprintf("math.Floor(%s)", arg(0)), true
	case "ceil":
		return fmt.Sprintf("math.Ceil(%s)", arg(0)), true
	case "trunc":
		return fmt.Sprintf("math.Trunc(%s)", arg(0)), true
	case "round":
		return fmt.Sprintf("math.Round(%s)", arg(0)), true
	case "native_recip":
		return fmt.Sprintf("1 / %s", arg(0)), true
	case "pow":
		return fmt.Sprintf("math.Pow(%s, %s)", arg(0), arg(1)), true
	case "fmin", "min":
		return fmt.Sprintf("math.Min(%s, %s)", arg(0), arg(1)), true
	case "fmax", "max":
		return fmt.Sprintf("math.Max(%s, %s)", arg(0), arg(1)), true
	case "fmod":
		return fmt.Sprintf("math.Mod(%s, %s)", arg(0), arg(1)), true
	case "native_divide":
		return fmt.Sprintf("%s / %s", arg(0), arg(1)), true
	case "atan2":
		return fmt.Sprintf("math.Atan2(%s, %s)", arg(0), arg(1)), true
	case "hypot":
		return fmt.Sprintf("math.Hypot(%s, %s)", arg(0), arg(1)), true
	case "mad", "fma":
		return fmt.Sprintf("%s*%s + %s", arg(0), arg(1), arg(2)), true
	case "clamp":
		return fmt.Sprintf("math.Min(math.Max(%s, %s), %s)", arg(0), arg(1), arg(2)), true
	case "mix":
		return fmt.Sprintf("%s + (%s-%s)*%s", arg(0), arg(1), arg(0), arg(2)), true
	}
	return "", false
}
