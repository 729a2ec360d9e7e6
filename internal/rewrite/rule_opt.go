package rewrite

import (
	"strings"

	"grover/internal/ir"
	"grover/internal/opt"
)

// The opt pseudo-rule runs the scalar optimization pipeline as an
// explicit plan step, making phase order part of the plan (Nobre et al.):
//
//	opt                         the standard pipeline to fixpoint
//	opt(passes=cse+peephole+dce)  a restricted/reordered pipeline
//
// Pass names come from opt.PassNames (cse, load-forward, dse, peephole,
// licm, dce). Plans without an opt step get the standard one appended by
// the driver, so rewritten kernels always run what a vendor driver would
// execute.
func init() {
	Register(&Rule{
		Name:    "opt",
		Doc:     "run the scalar optimization pipeline (passes=a+b selects phase order)",
		Options: []string{"passes"},
		Apply:   applyOpt,
	})
}

func applyOpt(m *ir.Module, kernel string, opts map[string]string) (*StepResult, error) {
	s := Step{Rule: "opt", Opts: opts}
	var names []string
	detail := "standard pipeline: " + strings.Join(opt.PassNames(), "+")
	if v := s.Opt("passes", ""); v != "" {
		names = strings.Split(v, "+")
		detail = "pipeline: " + v
	}
	if err := opt.OptimizeWith(m, names); err != nil {
		return nil, err
	}
	return &StepResult{Changed: true, Detail: detail}, nil
}
