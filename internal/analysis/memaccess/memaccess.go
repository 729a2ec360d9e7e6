// Package memaccess is a whole-kernel static memory-access summary pass:
// it extends the analysis package's __local-only affine collector to
// every global, local, and private load and store, attaching to each an
// affine access function over work-item identities, group identities,
// and loop induction variables, plus per-dimension lane strides and
// per-loop iteration strides. Loops are the natural loops of ir.NewCFG,
// induction variables are recognized from their in-loop update stores,
// and trip counts are estimated from the exit comparison with
// guard-refined interval analysis (the same machinery the bounds
// detector uses, shared via internal/analysis/intervals).
//
// The summary is the substrate for the internal/profit cost model, for
// the groverlint access detectors, and for `groverc -access` dumps. It
// deliberately does not import internal/analysis (which imports this
// package for its detectors); the CFG, dominance and loop facts it needs
// are ir.CFG's.
package memaccess

import (
	"fmt"
	"sort"
	"strings"

	"grover/internal/analysis/intervals"
	"grover/internal/clc"
	"grover/internal/exprtree"
	"grover/internal/ir"
	"grover/internal/linsolve"
)

// DefaultTrip is the iteration estimate for loops whose exit condition
// the analysis cannot bound.
const DefaultTrip = 64

// MaxTrip caps trip-count estimates so a mis-parsed bound cannot make
// the replay cost model spin.
const MaxTrip = 1 << 20

// Options configure a summary run.
type Options struct {
	// WorkGroup gives the launch's work-group extents when known; zero
	// entries default to 64×1×1 for sampling and intervals.
	WorkGroup [3]int
	// ArgInts supplies known scalar argument values by parameter index
	// (e.g. from an autotune request); they sharpen trip counts and guard
	// probabilities.
	ArgInts map[int]int64
	// DefaultTrip overrides the fallback loop trip estimate (0 keeps
	// DefaultTrip).
	DefaultTrip int64
}

// Access is one load or store whose pointer roots at a global pointer
// parameter or a __local/private alloca.
type Access struct {
	Instr *ir.Instr
	Block *ir.Block
	Store bool
	// Space is the address space of the accessed buffer.
	Space clc.AddrSpace
	// Bytes is the access width.
	Bytes int
	// Base is the pointer root: an *ir.Param or an alloca *ir.Instr.
	Base ir.Value
	// BaseName is the parameter or variable name of the base.
	BaseName string
	// Chain is the OpIndex path from the base, outermost first.
	Chain []*ir.Instr
	// Offset is the byte offset from the base as an affine form over the
	// summary registry's terms, nil when some index is non-affine.
	Offset *linsolve.Affine
	// Lane is the per-work-item byte stride per dimension (the
	// get_local_id and get_global_id coefficients folded); LaneOK is
	// false when a coefficient is fractional or the offset non-affine.
	Lane   [3]int64
	LaneOK bool
	// Loop is the innermost enclosing loop, nil at top level.
	Loop *Loop
	// IterStride maps each enclosing loop with a recognized induction
	// variable to the access's byte stride per iteration of that loop.
	IterStride map[*Loop]int64
	// Weight is the estimated execution probability of the access's
	// block within one traversal of its region (guard-refined).
	Weight float64
}

// Barrier is one work-group barrier site.
type Barrier struct {
	Instr  *ir.Instr
	Block  *ir.Block
	Loop   *Loop
	Weight float64
}

// Loop is one natural loop of the kernel's CFG with what the summary
// learned about it.
type Loop struct {
	*ir.Loop
	// IndVar is the recognized induction variable's alloca, nil when the
	// exit condition did not expose one.
	IndVar *ir.Instr
	// Key is the registry term key of the induction variable.
	Key string
	// Init and Step describe the recognized i = Init; i += Step
	// recurrence; StepOK/InitOK report which halves were proven.
	Init   int64
	InitOK bool
	Step   int64
	StepOK bool
	// Trip estimates the iteration count (≥ 1); TripExact reports
	// whether it came from a fully-resolved bound rather than the
	// DefaultTrip fallback.
	Trip      int64
	TripExact bool
}

// Name renders the loop's induction variable (or header) for reports.
func (l *Loop) Name() string {
	if l.IndVar != nil && l.IndVar.VarName != "" {
		return l.IndVar.VarName
	}
	return l.Header.Name
}

// EventKind discriminates schedule events.
type EventKind int

const (
	// EvWork is a straight-line chunk: instruction and private-access
	// counts for issue-cost accounting.
	EvWork EventKind = iota
	// EvAccess is one global/local memory access.
	EvAccess
	// EvBarrier is a work-group barrier.
	EvBarrier
	// EvLoop descends into a nested loop region.
	EvLoop
)

// Event is one entry of a region's ordered schedule.
type Event struct {
	Kind    EventKind
	Access  *Access
	Barrier *Barrier
	Child   *Region
	// Instrs and PrivAccesses are set for EvWork.
	Instrs       int64
	PrivAccesses int64
	// Weight is the execution probability of the event's block within
	// one traversal of the region.
	Weight float64
}

// Region is the schedule of one loop body (or the function body for the
// root): events in reverse-post-order program order, nested loops as
// EvLoop children.
type Region struct {
	Loop   *Loop // nil for the function body
	Events []Event
}

// Summary is the whole-kernel access summary.
type Summary struct {
	Fn   *ir.Function
	Opts Options
	// WG is the effective work-group size (defaults applied).
	WG       [3]int
	Loops    []*Loop
	Accesses []*Access
	Barriers []*Barrier
	Root     *Region
	Reg      *exprtree.Registry
	TB       *exprtree.Builder
	// LocalBytes totals the __local allocations; LocalOffset places each
	// local alloca in a contiguous arena (mirroring the device
	// simulator's per-core local region).
	LocalBytes  int64
	LocalOffset map[*ir.Instr]int64

	cfg     *ir.CFG
	loopOf  map[*ir.Loop]*Loop
	inLoop  map[*ir.Block]*Loop // innermost
	weights map[*ir.Block]float64
}

// EffectiveWG applies the 64×1×1 default to unknown work-group extents.
func EffectiveWG(wg [3]int) [3]int {
	if wg[0] <= 0 {
		wg[0] = 64
	}
	if wg[1] <= 0 {
		wg[1] = 1
	}
	if wg[2] <= 0 {
		wg[2] = 1
	}
	return wg
}

// Summarize builds the access summary for one kernel.
func Summarize(fn *ir.Function, opts Options) *Summary {
	if opts.DefaultTrip <= 0 {
		opts.DefaultTrip = DefaultTrip
	}
	s := &Summary{
		Fn:          fn,
		Opts:        opts,
		WG:          EffectiveWG(opts.WorkGroup),
		Reg:         exprtree.NewRegistry(),
		TB:          exprtree.NewBuilder(fn),
		LocalOffset: map[*ir.Instr]int64{},
		cfg:         ir.NewCFG(fn),
		loopOf:      map[*ir.Loop]*Loop{},
		inLoop:      map[*ir.Block]*Loop{},
		weights:     map[*ir.Block]float64{},
	}
	s.summarizeLoops()
	s.computeWeights()
	s.placeLocals()
	s.buildSchedule()
	return s
}

// placeLocals lays the __local allocas out in a contiguous arena,
// 16-byte aligned, recording per-alloca offsets and the total.
func (s *Summary) placeLocals() {
	var off int64
	for _, b := range s.Fn.Blocks {
		for _, in := range b.Instrs {
			if in.Op != ir.OpAlloca || in.Space != clc.ASLocal {
				continue
			}
			size := allocaBytes(in)
			s.LocalOffset[in] = off
			off += (size + 15) &^ 15
		}
	}
	s.LocalBytes = off
}

// allocaBytes is the allocation size of an alloca in bytes.
func allocaBytes(alloca *ir.Instr) int64 {
	pt, ok := alloca.Typ.(*clc.PointerType)
	if !ok {
		return 0
	}
	return int64(pt.Elem.Size())
}

// buildSchedule walks the blocks in reverse post-order, assigning each
// block's instructions to the region of its innermost loop and linking
// loop regions into their parents at the header's schedule position.
func (s *Summary) buildSchedule() {
	s.Root = &Region{}
	regions := map[*Loop]*Region{nil: s.Root}
	for _, l := range s.Loops {
		regions[l] = &Region{Loop: l}
	}
	linked := map[*Loop]bool{}
	for _, bi := range s.cfg.RPO() {
		b := s.cfg.Blocks[bi]
		l := s.inLoop[b]
		if l != nil && l.Header == b && !linked[l] {
			linked[l] = true
			parent := regions[s.parent(l)]
			parent.Events = append(parent.Events, Event{
				Kind: EvLoop, Child: regions[l], Weight: s.weights[b],
			})
		}
		s.scheduleBlock(regions[l], b)
	}
}

// scheduleBlock classifies one block's instructions into events.
func (s *Summary) scheduleBlock(r *Region, b *ir.Block) {
	w := s.weights[b]
	var work Event
	work.Kind = EvWork
	work.Weight = w
	flush := func() {
		if work.Instrs > 0 || work.PrivAccesses > 0 {
			r.Events = append(r.Events, work)
			work.Instrs, work.PrivAccesses = 0, 0
		}
	}
	for _, in := range b.Instrs {
		switch in.Op {
		case ir.OpLoad, ir.OpStore:
			acc := s.collectAccess(in, b, w)
			if acc == nil {
				// Private scalar or unrooted pointer: flat-cost traffic.
				work.Instrs++
				work.PrivAccesses++
				continue
			}
			if acc.Space == clc.ASPrivate {
				work.Instrs++
				work.PrivAccesses++
				s.Accesses = append(s.Accesses, acc)
				continue
			}
			flush()
			s.Accesses = append(s.Accesses, acc)
			r.Events = append(r.Events, Event{Kind: EvAccess, Access: acc, Weight: w})
		case ir.OpBarrier:
			flush()
			bar := &Barrier{Instr: in, Block: b, Loop: s.inLoop[b], Weight: w}
			s.Barriers = append(s.Barriers, bar)
			r.Events = append(r.Events, Event{Kind: EvBarrier, Barrier: bar, Weight: w})
		case ir.OpAlloca:
			// Allocation is free.
		default:
			work.Instrs++
		}
	}
	flush()
}

// collectAccess builds the Access record for one load/store, or nil when
// the pointer does not root at a parameter or alloca.
func (s *Summary) collectAccess(in *ir.Instr, b *ir.Block, w float64) *Access {
	base, chain := ir.PointerRoot(in.Args[0])
	if base == nil {
		return nil
	}
	acc := &Access{
		Instr: in, Block: b, Store: in.Op == ir.OpStore,
		Base: base, Chain: chain, Loop: s.inLoop[b], Weight: w,
		IterStride: map[*Loop]int64{},
	}
	switch v := base.(type) {
	case *ir.Param:
		acc.Space = v.Space
		acc.BaseName = v.Name_
	case *ir.Instr:
		acc.Space = v.Space
		acc.BaseName = v.VarName
	}
	if acc.Store {
		acc.Bytes = in.Args[1].Type().Size()
	} else {
		acc.Bytes = in.Typ.Size()
	}
	if acc.Space == clc.ASPrivate && len(chain) == 0 {
		// Direct scalar variable access: register-like, handled by the
		// caller as private traffic.
		return acc
	}
	acc.Offset, _ = s.TB.Offset(chain, s.Reg)
	if acc.Offset != nil {
		acc.Lane, acc.LaneOK = exprtree.WorkItemCoeffs(acc.Offset)
		for l := acc.Loop; l != nil; l = s.parent(l) {
			if l.Key == "" {
				continue
			}
			if c, ok := intervals.RatInt64(acc.Offset.Coeff(l.Key)); ok && c != 0 {
				acc.IterStride[l] = c
			}
		}
	}
	return acc
}

// computeWeights estimates each block's execution probability within one
// traversal of its innermost region: a product over dominating guarded
// edges of the guard's probability, with loop-exit tests of enclosing
// loops skipped (iteration counts are the region's job).
func (s *Summary) computeWeights() {
	for bi, b := range s.cfg.Blocks {
		if !s.cfg.Dom.Reachable(bi) {
			s.weights[b] = 0
			continue
		}
		w := 1.0
		s.cfg.Guards(bi, func(br *ir.Block, cond *ir.Instr, negated bool) {
			if l := s.exitTestLoop(br); l != nil && l.Blocks[b] {
				return // trip guard of an enclosing loop
			}
			w *= s.guardProb(cond, negated)
		})
		s.weights[b] = w
	}
}

// exitTestLoop returns the loop whose exit test block b is (a block of
// the loop with a successor outside it), or nil.
func (s *Summary) exitTestLoop(b *ir.Block) *Loop {
	l := s.inLoop[b]
	if l == nil {
		return nil
	}
	for _, si := range s.cfg.Succ[s.cfg.Index[b]] {
		if !l.Blocks[s.cfg.Blocks[si]] {
			return l
		}
	}
	return nil
}

// guardProb estimates the probability a comparison holds (negated for
// the false edge): for single-term conditions over terms with finite
// base intervals it is the refined range's fraction; parameters with
// known argument values decide exactly; everything else is assumed
// taken.
func (s *Summary) guardProb(cond *ir.Instr, negated bool) float64 {
	key, iv, ok := intervals.ConstraintFromCond(cond, negated, s.TB, s.Reg)
	if !ok {
		return 1
	}
	term := s.Reg.Term(key)
	if term == nil {
		return 1
	}
	if p, ok2 := term.Rep.(*ir.Param); ok2 {
		if v, has := s.Opts.ArgInts[p.Index]; has {
			if (iv.LoInf || v >= iv.Lo) && (iv.HiInf || v <= iv.Hi) {
				return 1
			}
			return 0
		}
		return 1
	}
	base := intervals.TermInterval(term, s.WG)
	if base.LoInf || base.HiInf {
		return 1
	}
	width := base.Hi - base.Lo + 1
	if width <= 0 {
		return 1
	}
	ref := base.Refine(iv)
	if ref.Hi < ref.Lo {
		return 0
	}
	return float64(ref.Hi-ref.Lo+1) / float64(width)
}

// ---------------------------------------------------------- rendering

// String renders the summary as a report: loops with their recurrences
// and trip estimates, then every access with its affine offset, lane
// strides, and loop strides.
func (s *Summary) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "kernel %s: work-group %dx%dx%d, %d accesses, %d barriers, %d loops, %d B local\n",
		s.Fn.Name, s.WG[0], s.WG[1], s.WG[2], len(s.Accesses), len(s.Barriers), len(s.Loops), s.LocalBytes)
	for _, l := range s.Loops {
		rec := "irregular"
		if l.StepOK {
			rec = fmt.Sprintf("%s = %d; %s += %d", l.Name(), l.Init, l.Name(), l.Step)
		}
		exact := "~"
		if l.TripExact {
			exact = "="
		}
		fmt.Fprintf(&sb, "  loop %s depth %d: %s, trip %s%d\n", l.Name(), l.Depth, rec, exact, l.Trip)
	}
	for _, a := range s.Accesses {
		if a.Space == clc.ASPrivate && len(a.Chain) == 0 {
			continue
		}
		kind := "load "
		if a.Store {
			kind = "store"
		}
		off := "non-affine"
		if a.Offset != nil {
			off = renderAffine(a.Offset, s.Reg)
		}
		fmt.Fprintf(&sb, "  %s %-8s %s[%s] %dB", kind, spaceName(a.Space), a.BaseName, off, a.Bytes)
		if a.LaneOK {
			fmt.Fprintf(&sb, " lane(%d,%d,%d)", a.Lane[0], a.Lane[1], a.Lane[2])
		}
		for l := a.Loop; l != nil; l = s.parent(l) {
			if st, ok := a.IterStride[l]; ok {
				fmt.Fprintf(&sb, " %s-stride %d", l.Name(), st)
			}
		}
		if a.Weight < 1 {
			fmt.Fprintf(&sb, " p=%.2f", a.Weight)
		}
		if a.Instr.Pos.Line > 0 {
			fmt.Fprintf(&sb, " @%s", a.Instr.Pos)
		}
		sb.WriteByte('\n')
	}
	for _, b := range s.Barriers {
		loop := "top level"
		if b.Loop != nil {
			loop = "loop " + b.Loop.Name()
		}
		fmt.Fprintf(&sb, "  barrier at %s (%s)\n", b.Instr.Pos, loop)
	}
	return sb.String()
}

// OffsetString renders an access's affine offset with the summary's
// display names ("non-affine" when extraction failed).
func (s *Summary) OffsetString(a *Access) string {
	if a.Offset == nil {
		return "non-affine"
	}
	return renderAffine(a.Offset, s.Reg)
}

func spaceName(sp clc.AddrSpace) string {
	switch sp {
	case clc.ASGlobal:
		return "global"
	case clc.ASLocal:
		return "local"
	case clc.ASConstant:
		return "constant"
	default:
		return "private"
	}
}

// renderAffine prints an affine form using the registry's display names,
// terms sorted for stable output.
func renderAffine(aff *linsolve.Affine, reg *exprtree.Registry) string {
	keys := aff.Terms()
	sort.Strings(keys)
	var parts []string
	for _, k := range keys {
		c := aff.Coeff(k)
		name := k
		if t := reg.Term(k); t != nil && t.Name != "" {
			name = t.Name
		}
		if c.IsInt() && c.Num().IsInt64() && c.Num().Int64() == 1 {
			parts = append(parts, name)
		} else {
			parts = append(parts, c.RatString()+"·"+name)
		}
	}
	if aff.Const.Sign() != 0 || len(parts) == 0 {
		parts = append(parts, aff.Const.RatString())
	}
	return strings.Join(parts, " + ")
}
