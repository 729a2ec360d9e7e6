package rewrite

import (
	"fmt"
	"slices"
	"strings"

	igrover "grover/internal/grover"
	"grover/internal/ir"
)

// The grover rule re-expresses the paper's LL→nGL pass as the first
// registered rewrite rule. Options:
//
//	cands=a+b      restrict to the named __local variables
//	keep-barriers  do not elide barriers after removing local memory
//	clone-all      duplicate the whole GL tree per load (ablation)
//	strict         fail the plan when a selected candidate is irreversible
//
// The transformation itself stays in internal/grover; this rule is
// grover.TransformKernel's one caller. Callers that hold pass Options
// rather than a plan go through ApplyGrover, which runs the same rule.
func init() {
	Register(&Rule{
		Name:    "grover",
		Doc:     "remove local-memory staging (LL→nGL, the paper's pass)",
		Options: []string{"cands", "keep-barriers", "clone-all", "strict"},
		Match: func(fn *ir.Function, opts map[string]string) bool {
			return len(igrover.FindCandidates(fn)) > 0
		},
		Apply: applyGrover,
	})
}

func groverOptions(opts map[string]string) igrover.Options {
	s := Step{Rule: "grover", Opts: opts}
	o := igrover.Options{
		KeepBarriers: s.BoolOpt("keep-barriers"),
		CloneAll:     s.BoolOpt("clone-all"),
		Strict:       s.BoolOpt("strict"),
	}
	if cands := s.Opt("cands", ""); cands != "" {
		o.Candidates = strings.Split(cands, "+")
	}
	return o
}

// GroverStep is the grover step that runs the pass with o, spelled
// canonically: candidates sorted and deduplicated, switches as bare flags.
// It carries o exactly when o.Validate() holds.
func GroverStep(o igrover.Options) Step {
	opts := map[string]string{}
	if len(o.Candidates) > 0 {
		cands := slices.Clone(o.Candidates)
		slices.Sort(cands)
		opts["cands"] = strings.Join(slices.Compact(cands), "+")
	}
	for key, on := range map[string]bool{"keep-barriers": o.KeepBarriers, "clone-all": o.CloneAll, "strict": o.Strict} {
		if on {
			opts[key] = ""
		}
	}
	return Step{Rule: "grover", Opts: opts}
}

// ApplyGrover is the paper's pass as a plan of one step: it applies
// GroverStep(o) to the named kernel of m (Apply: the pass, then the
// standard pipeline) and returns the rewritten module and the step's
// report. A kernel the step does not match uses no local memory:
// igrover.ErrNoCandidates.
func ApplyGrover(m *ir.Module, kernel string, o igrover.Options) (*ir.Module, *igrover.Report, error) {
	if err := o.Validate(); err != nil {
		return nil, nil, err
	}
	out, rep, err := Apply(m, kernel, &Plan{Steps: []Step{GroverStep(o)}})
	if err != nil {
		return nil, nil, err
	}
	if g := rep.Steps[0].Grover; g != nil {
		return out, g, nil
	}
	return nil, nil, igrover.ErrNoCandidates
}

func applyGrover(m *ir.Module, kernel string, opts map[string]string) (*StepResult, error) {
	rep, err := igrover.TransformKernel(m, kernel, groverOptions(opts))
	if err == igrover.ErrNoCandidates {
		return &StepResult{Detail: "no local-memory candidates"}, nil
	}
	if err != nil {
		return nil, err
	}
	transformed := 0
	for _, c := range rep.Candidates {
		if c.Transformed {
			transformed++
		}
	}
	return &StepResult{
		Changed: rep.Transformed(),
		Detail: fmt.Sprintf("%d/%d candidates rewritten, %d barriers removed",
			transformed, len(rep.Candidates), rep.BarriersRemoved),
		Grover: rep,
	}, nil
}
