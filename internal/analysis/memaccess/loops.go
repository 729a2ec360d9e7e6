package memaccess

import (
	"math/big"

	"grover/internal/analysis/intervals"
	"grover/internal/clc"
	"grover/internal/ir"
	"grover/internal/linsolve"
)

// summarizeLoops takes the CFG's natural loops, records each block's
// innermost loop, recognizes induction variables, and estimates trip
// counts.
func (s *Summary) summarizeLoops() {
	for _, il := range s.cfg.Loops() {
		l := &Loop{Loop: il}
		s.loopOf[il] = l
		s.Loops = append(s.Loops, l)
	}
	// Innermost loop per block: deeper wins.
	for _, l := range s.Loops {
		for b := range l.Blocks {
			if cur := s.inLoop[b]; cur == nil || l.Depth > cur.Depth {
				s.inLoop[b] = l
			}
		}
	}
	for _, l := range s.Loops {
		s.analyzeLoop(l)
	}
}

// parent returns the summary's loop around l, nil at top level.
func (s *Summary) parent(l *Loop) *Loop { return s.loopOf[l.Parent] }

// analyzeLoop recognizes the induction variable from the loop's exit
// comparison and estimates the trip count.
func (s *Summary) analyzeLoop(l *Loop) {
	l.Trip = s.Opts.DefaultTrip
	cond, contSide, ok := s.exitBranch(l)
	if !ok {
		return
	}
	diff, ok := intervals.CondDiff(cond, s.TB, s.Reg)
	if !ok {
		return
	}
	// Find the induction term: a diff term keyed to an alloca that is
	// stored inside the loop.
	var indKey string
	var indVar *ir.Instr
	for _, key := range diff.Terms() {
		t := s.Reg.Term(key)
		if t == nil {
			continue
		}
		ld, isInstr := t.Rep.(*ir.Instr)
		if !isInstr || ld.Op != ir.OpLoad {
			continue
		}
		alloca, isAlloca := ld.Args[0].(*ir.Instr)
		if !isAlloca || alloca.Op != ir.OpAlloca || alloca.Space != clc.ASPrivate {
			continue
		}
		if len(s.loopStores(l, alloca)) == 0 {
			continue
		}
		if indVar != nil {
			return // two mutating variables in the exit test: give up
		}
		indKey, indVar = key, alloca
	}
	if indVar == nil {
		return
	}
	l.IndVar, l.Key = indVar, indKey
	s.recurrence(l)
	s.estimateTrip(l, cond, contSide, diff)
}

// exitBranch finds the loop's conditional exit: a block of the loop
// whose CondBr has one target inside and one outside, preferring the
// header. contSide is the Targets index that continues the loop.
func (s *Summary) exitBranch(l *Loop) (cond *ir.Instr, contSide int, ok bool) {
	try := func(b *ir.Block) (*ir.Instr, int, bool) {
		t := b.Terminator()
		if t == nil || t.Op != ir.OpCondBr || len(t.Targets) != 2 {
			return nil, 0, false
		}
		in0, in1 := l.Blocks[t.Targets[0]], l.Blocks[t.Targets[1]]
		if in0 == in1 {
			return nil, 0, false
		}
		c, isInstr := t.Args[0].(*ir.Instr)
		if !isInstr {
			return nil, 0, false
		}
		side := 0
		if in1 {
			side = 1
		}
		return c, side, true
	}
	if c, side, found := try(l.Header); found {
		return c, side, true
	}
	for _, b := range l.Body {
		if c, side, found := try(b); found {
			return c, side, true
		}
	}
	return nil, 0, false
}

// recurrence proves the i = Init; i += Step shape: exactly one in-loop
// store whose value is load(i) + Step, and a dominating out-of-loop
// store of a resolvable initial value.
func (s *Summary) recurrence(l *Loop) {
	inStores := s.loopStores(l, l.IndVar)
	if len(inStores) == 1 {
		if aff, err := s.TB.Affine(inStores[0].Args[1], s.Reg); err == nil {
			one := big.NewRat(1, 1)
			if aff.Coeff(l.Key).Cmp(one) == 0 && len(aff.Terms()) == 1 {
				if step, ok := intervals.RatInt64(aff.Const); ok && step != 0 {
					l.Step, l.StepOK = step, true
				}
			}
		}
	}
	// Initial value: the last dominating out-of-loop store.
	var init *ir.Instr
	for _, st := range s.TB.Stores(l.IndVar) {
		if l.Blocks[st.Block] || !s.cfg.Dominates(st.Block, l.Header) {
			continue
		}
		init = st // stores are in block order; the last dominating one wins
	}
	if init != nil {
		if aff, err := s.TB.Affine(init.Args[1], s.Reg); err == nil {
			if iv, ok := intervals.EvalAffine(aff, s.Reg, s.WG, s.argGuards()); ok && !iv.LoInf && !iv.HiInf && iv.Lo == iv.Hi {
				l.Init, l.InitOK = iv.Lo, true
			}
		}
	}
}

// loopStores returns the direct stores to alloca inside the loop.
func (s *Summary) loopStores(l *Loop, alloca *ir.Instr) []*ir.Instr {
	var out []*ir.Instr
	for _, st := range s.TB.Stores(alloca) {
		if l.Blocks[st.Block] {
			out = append(out, st)
		}
	}
	return out
}

// estimateTrip bounds the induction variable from the exit comparison:
// the loop continues while c·i + rest OP 0, rest evaluated over
// guard-refined intervals with known argument values substituted.
func (s *Summary) estimateTrip(l *Loop, cond *ir.Instr, contSide int, diff *linsolve.Affine) {
	c, ok := intervals.RatInt64(diff.Coeff(l.Key))
	if !ok || c == 0 {
		return
	}
	rest := diff.Clone()
	rest.AddScaled(linsolve.TermAffine(l.Key), new(big.Rat).Neg(diff.Coeff(l.Key)))
	restIv, ok := intervals.EvalAffine(rest, s.Reg, s.WG, s.argGuards())
	if !ok {
		return
	}
	op := cond.Op
	if contSide == 1 {
		switch op {
		case ir.OpLt:
			op = ir.OpGe
		case ir.OpLe:
			op = ir.OpGt
		case ir.OpGt:
			op = ir.OpLe
		case ir.OpGe:
			op = ir.OpLt
		default:
			return
		}
	}
	// Continue while c·i + rest OP 0 with OP ∈ {<, ≤, >, ≥, ≠}.
	// Normalize to a one-sided bound on c·i, taking the loosest value of
	// rest's range (most iterations) when it is not a single point.
	var bound int64
	var upper bool
	exact := restIv.Lo == restIv.Hi && !restIv.LoInf && !restIv.HiInf
	switch op {
	case ir.OpLt, ir.OpLe: // continue while c·i ≤ -rest (−1 for <)
		if restIv.LoInf {
			return
		}
		bound = -restIv.Lo
		if op == ir.OpLt {
			bound--
		}
		upper = true
	case ir.OpGt, ir.OpGe: // continue while c·i ≥ -rest (+1 for >)
		if restIv.HiInf {
			return
		}
		bound = -restIv.Hi
		if op == ir.OpGt {
			bound++
		}
		upper = false
	case ir.OpNe:
		// i != bound with a recognized step lands exactly on the bound.
		if !exact || !l.StepOK {
			return
		}
		bound = -restIv.Lo
		if l.Step > 0 {
			bound--
			upper = true
		} else {
			bound++
			upper = false
		}
	default:
		return
	}
	// bound is on c·i: translate to i.
	var iMax, iMin int64
	var haveMax, haveMin bool
	if upper {
		if c > 0 {
			iMax, haveMax = intervals.FloorDiv(bound, c), true
		} else {
			iMin, haveMin = intervals.CeilDiv(bound, c), true
		}
	} else {
		if c > 0 {
			iMin, haveMin = intervals.CeilDiv(bound, c), true
		} else {
			iMax, haveMax = intervals.FloorDiv(bound, c), true
		}
	}
	step := l.Step
	if !l.StepOK {
		step = 1
	}
	init := l.Init
	if !l.InitOK {
		init = 0
	}
	var trip int64
	switch {
	case step > 0 && haveMax:
		trip = (iMax-init)/step + 1
	case step < 0 && haveMin:
		trip = (init-iMin)/(-step) + 1
	default:
		return
	}
	if trip < 0 {
		trip = 0
	}
	if trip > MaxTrip {
		trip = MaxTrip
	}
	l.Trip = trip
	l.TripExact = exact && l.StepOK && l.InitOK
}

// argGuards turns known argument values into exact interval guards on
// their parameter terms.
func (s *Summary) argGuards() map[string]intervals.Interval {
	out := map[string]intervals.Interval{}
	if len(s.Opts.ArgInts) == 0 {
		return out
	}
	for key, t := range s.Reg.Terms() {
		p, ok := t.Rep.(*ir.Param)
		if !ok {
			continue
		}
		if v, has := s.Opts.ArgInts[p.Index]; has {
			out[key] = intervals.Exact(v)
		}
	}
	return out
}
