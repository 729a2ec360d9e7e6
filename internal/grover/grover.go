package grover

import (
	"fmt"
	"regexp"
	"sort"
	"strings"

	"grover/internal/debug"
	"grover/internal/exprtree"
	"grover/internal/ir"
	"grover/internal/linsolve"
	"grover/internal/opt"
)

// Options control the pass.
type Options struct {
	// Candidates restricts the transformation to the named __local
	// variables (e.g. only matrix A's tile). Empty means all candidates.
	Candidates []string
	// KeepBarriers disables barrier elision (ablation).
	KeepBarriers bool
	// CloneAll disables shared-subexpression reuse in Algorithm 1
	// (ablation): every node of the GL tree is duplicated.
	CloneAll bool
	// Strict makes the pass fail when any selected candidate is not
	// reversible; otherwise such candidates are skipped and reported.
	Strict bool
}

// Validate reports a candidate name that is not a C identifier. Such a name
// selects no __local variable, and spelled into a plan step it would end
// the step's option list or split into two names.
func (o Options) Validate() error {
	for _, name := range o.Candidates {
		if !identRE.MatchString(name) {
			return fmt.Errorf("grover: candidate %q is not a C identifier", name)
		}
	}
	return nil
}

var identRE = regexp.MustCompile(`^[A-Za-z_][A-Za-z0-9_]*$`)

// CandidateReport describes the analysis and transformation of one
// candidate (one row of the paper's Table III).
type CandidateReport struct {
	Name string
	// GL, LS, LL and NGL are symbolic index expressions.
	GL  string
	LS  string
	LL  []string
	NGL []string
	// Solution renders the solved (lx, ly, lz) correspondence.
	Solution string
	// Pattern classifies the LS index tree (paper Fig. 7).
	Pattern exprtree.PatternKind
	// Transformed reports whether local memory was removed for this
	// candidate; Reason explains a skip and ReasonCode is its
	// machine-readable classification.
	Transformed bool
	Reason      string
	ReasonCode  RejectCode
	// ClonedInstrs counts instructions duplicated by Algorithm 1.
	ClonedInstrs int
	// NumLS and NumLL count the store/load sites.
	NumLS, NumLL int
}

// Report summarizes one kernel transformation.
type Report struct {
	Kernel     string
	Candidates []CandidateReport
	// BarriersRemoved counts elided barriers.
	BarriersRemoved int
	// DeadInstrsRemoved counts instructions removed by the cleanup DCE.
	DeadInstrsRemoved int
}

// Transformed reports whether any candidate was rewritten.
func (r *Report) Transformed() bool {
	for _, c := range r.Candidates {
		if c.Transformed {
			return true
		}
	}
	return false
}

// String renders the report as a small table.
func (r *Report) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "kernel %s:\n", r.Kernel)
	for _, c := range r.Candidates {
		status := "transformed"
		if !c.Transformed {
			status = "skipped: " + c.Reason
		}
		fmt.Fprintf(&sb, "  __local %s [%s]\n", c.Name, status)
		if c.GL != "" {
			fmt.Fprintf(&sb, "    GL  %s\n", c.GL)
			fmt.Fprintf(&sb, "    LS  %s\n", c.LS)
			for i, ll := range c.LL {
				fmt.Fprintf(&sb, "    LL  %s\n", ll)
				if i < len(c.NGL) {
					fmt.Fprintf(&sb, "    nGL %s\n", c.NGL[i])
				}
			}
			if c.Solution != "" {
				fmt.Fprintf(&sb, "    solution %s\n", c.Solution)
			}
		}
	}
	fmt.Fprintf(&sb, "  barriers removed: %d, dead instructions removed: %d\n",
		r.BarriersRemoved, r.DeadInstrsRemoved)
	return sb.String()
}

// ErrNoCandidates is returned by TransformKernel when the kernel has no
// __local data structures to disable.
var ErrNoCandidates = fmt.Errorf("grover: kernel uses no local memory")

// TransformKernel runs the full pass over one kernel of m, mutating m in
// place. Callers that need the original should transform an ir.CloneModule
// copy (rewrite.Apply, which runs the pass as the grover rule, does this).
func TransformKernel(m *ir.Module, kernel string, opts Options) (*Report, error) {
	fn := m.Kernel(kernel)
	if fn == nil {
		return nil, fmt.Errorf("grover: no kernel %q in module", kernel)
	}
	cands := FindCandidates(fn)
	if len(cands) == 0 {
		return nil, ErrNoCandidates
	}
	selected := func(c *Candidate) bool {
		if len(opts.Candidates) == 0 {
			return true
		}
		for _, n := range opts.Candidates {
			if n == c.Name {
				return true
			}
		}
		return false
	}
	rep := &Report{Kernel: kernel}
	tb := exprtree.NewBuilder(fn)
	anyTransformed := false
	for _, c := range cands {
		cr := CandidateReport{Name: c.Name, NumLS: len(c.Stores), NumLL: len(c.Loads)}
		if !selected(c) {
			cr.Reason = "not selected"
			cr.ReasonCode = RejectNotSelected
			rep.Candidates = append(rep.Candidates, cr)
			continue
		}
		a, err := analyzeCandidate(tb, c)
		if err != nil {
			if opts.Strict {
				return rep, err
			}
			cr.Reason = err.Error()
			cr.ReasonCode = rejectCodeOf(err)
			rep.Candidates = append(rep.Candidates, cr)
			continue
		}
		fillReportAnalysis(&cr, a)
		cloned, err := transformCandidate(fn, a, opts.CloneAll)
		cr.ClonedInstrs = cloned
		if err != nil {
			return rep, fmt.Errorf("grover: transforming %s: %w", c.Name, err)
		}
		cr.Transformed = true
		anyTransformed = true
		rep.Candidates = append(rep.Candidates, cr)
		if debug.Verify {
			fn.AssignIDs()
			if err := ir.VerifyFunc(fn); err != nil {
				return rep, fmt.Errorf("grover: rewriting %s produced invalid IR: %w", c.Name, err)
			}
		}
		// The tree builder caches store analysis; rebuild after mutation.
		tb = exprtree.NewBuilder(fn)
	}
	if anyTransformed {
		rep.DeadInstrsRemoved = opt.DCE(fn)
		if !opts.KeepBarriers && !usesLocalMemory(fn) {
			rep.BarriersRemoved = removeLocalBarriers(fn)
			rep.DeadInstrsRemoved += opt.DCE(fn)
		}
		fn.AssignIDs()
		if err := ir.VerifyFunc(fn); err != nil {
			return rep, fmt.Errorf("grover: transformation produced invalid IR: %w", err)
		}
	}
	return rep, nil
}

// fillReportAnalysis renders the Table III style symbolic indices.
func fillReportAnalysis(cr *CandidateReport, a *analysis) {
	first := a.stores[0]
	cr.GL = exprtree.Render(first.glTree)
	cr.LS = renderNamedDims(first.lsDims, a.reg)
	// Classify the flattened (last) LS index tree against Fig. 7 patterns.
	if n := len(first.st.IndexChain); n > 0 {
		cr.Pattern = exprtree.PatternFlat
		idxVal := first.st.IndexChain[n-1].Args[1]
		tb := exprtree.NewBuilder(first.st.Instr.Block.Fn)
		if node, err := tb.Build(idxVal); err == nil {
			cr.Pattern = exprtree.MatchPattern(node)
		}
	}
	tbLL := exprtree.NewBuilder(a.cand.Alloca.Block.Fn)
	for _, ll := range a.cand.Loads {
		plan := a.plans[ll.Instr]
		llOff, err := tbLL.Offset(ll.IndexChain, a.reg)
		if err == nil {
			if dims, derr := linsolve.DecomposeByStrides(llOff, plan.store.strides); derr == nil {
				cr.LL = append(cr.LL, renderNamedDims(dims, a.reg))
			}
		}
		cr.NGL = append(cr.NGL, renderSubstitutedGL(a, plan))
	}
	// Render the solution of the first LL.
	if len(a.cand.Loads) > 0 {
		sol := a.plans[a.cand.Loads[0].Instr].sol
		var parts []string
		var dims []int
		for d := range sol {
			dims = append(dims, d)
		}
		sort.Ints(dims)
		names := [3]string{"lx", "ly", "lz"}
		for _, d := range dims {
			parts = append(parts, fmt.Sprintf("%s := %s", names[d], renderAffine(sol[d], a.reg)))
		}
		cr.Solution = strings.Join(parts, ", ")
	}
}

// renderAffine renders an affine form using display names from the
// registry instead of raw term keys.
func renderAffine(a *linsolve.Affine, reg *exprtree.Registry) string {
	s := a.String()
	for key, t := range reg.Terms() {
		s = strings.ReplaceAll(s, key, t.Name)
	}
	return s
}

func renderNamedDims(dims []*linsolve.Affine, reg *exprtree.Registry) string {
	var parts []string
	for _, d := range dims {
		parts = append(parts, renderAffine(d, reg))
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// renderSubstitutedGL renders the GL tree with local ids replaced by their
// solutions — the symbolic nGL column of Table III.
func renderSubstitutedGL(a *analysis, plan *llPlan) string {
	s := exprtree.Render(plan.store.glTree)
	names := [3]string{"lx", "ly", "lz"}
	// Two-phase substitution so a solution mentioning another local id
	// (e.g. lx := ly, ly := lx in transpose) is not rewritten twice.
	for d := range plan.sol {
		s = strings.ReplaceAll(s, names[d], fmt.Sprintf("\x00%d\x00", d))
	}
	for d, aff := range plan.sol {
		s = strings.ReplaceAll(s, fmt.Sprintf("\x00%d\x00", d), "("+renderAffine(aff, a.reg)+")")
	}
	return s
}
