package rewrite

import (
	"fmt"
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
// The transformation itself stays in internal/grover —
// grover.TransformKernel remains the implementation so existing callers
// are untouched; this rule is the plan-facing entry point.
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
