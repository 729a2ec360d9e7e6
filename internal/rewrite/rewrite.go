// Package rewrite generalizes the Grover pass into a rewrite-rule engine
// over the compiler IR, in the spirit of Steuwer et al.'s pattern/rewrite
// systems: named rules match IR patterns, check legality by delegating to
// the internal/analysis detectors, and apply a transformation. Ordered
// rule sequences form a Plan; the driver applies plans to a module clone
// with per-step IR verification (GROVER_DEBUG_VERIFY style), so callers
// can enumerate a plan space and pick the fastest legal variant per
// device (the autotune use case, per Han & Abdelrahman's local-memory
// tuning and Nobre et al.'s phase-ordering results).
//
// Three directions are covered out of the box:
//
//	grover       LL→nGL: remove local-memory staging (the paper's pass)
//	stage-local  the inverse: inject local staging for reused global loads
//	hoist-addr   loop-invariant address-computation hoisting
//	opt          run a configurable scalar-pass pipeline (phase order)
//
// A plan that names no "opt" step gets the standard pipeline appended, so
// every plan ends with the cleanup a vendor driver would run.
package rewrite

import (
	"fmt"
	"sort"
	"strings"

	"grover/internal/debug"
	igrover "grover/internal/grover"
	"grover/internal/ir"
)

// StepResult is what a rule's Apply returns: whether the IR changed plus
// a human-readable detail line, and, for the grover rule, the full
// Table-III-style transformation report.
type StepResult struct {
	Changed bool
	Detail  string
	// Grover carries the LL→nGL report when the step ran the Grover pass.
	Grover *igrover.Report
}

// Rule is one registered rewrite rule: a name, an optional cheap matcher
// over the kernel's IR, an optional legality check (delegating to the
// internal/analysis detectors), and the transformation itself. Match and
// Check may be nil; Apply must tolerate kernels where nothing matches and
// report Changed=false rather than fail.
type Rule struct {
	Name string
	// Doc is a one-line description for CLI help and docs.
	Doc string
	// Options lists the option keys the rule reads; ParsePlan rejects a
	// step that sets any other.
	Options []string
	// Match reports whether the rule could do anything in fn; used to skip
	// Apply cheaply. Nil means "always try".
	Match func(fn *ir.Function, opts map[string]string) bool
	// Check validates that applying the rule to fn is legal. A non-nil
	// error makes the whole plan illegal (the driver aborts). Nil skips
	// the pre-check; rules may also verify legality post-transform inside
	// Apply.
	Check func(fn *ir.Function, opts map[string]string) error
	// Apply mutates the named kernel of m.
	Apply func(m *ir.Module, kernel string, opts map[string]string) (*StepResult, error)
}

var registry = map[string]*Rule{}

// Register adds a rule to the global registry; duplicate names panic
// (rules register from init functions, so a duplicate is a programming
// error).
func Register(r *Rule) {
	if r.Name == "" {
		panic("rewrite: rule with empty name")
	}
	if _, dup := registry[r.Name]; dup {
		panic("rewrite: duplicate rule " + r.Name)
	}
	registry[r.Name] = r
}

// Lookup returns the registered rule with the given name, or nil.
func Lookup(name string) *Rule { return registry[name] }

// RuleNames returns the registered rule names, sorted.
func RuleNames() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// StepReport records one driver step.
type StepReport struct {
	// Step is the canonical step string (rule name plus options).
	Step string
	// Rule is the rule name alone.
	Rule string
	// Applied is false when the rule matched nothing (a legal no-op).
	Applied bool
	Detail  string
	// Grover is the LL→nGL report for grover steps.
	Grover *igrover.Report
}

// Report summarizes one plan application.
type Report struct {
	Kernel string
	// Plan is the canonical plan string (without the implicitly appended
	// opt step).
	Plan  string
	Steps []StepReport
}

// Changed reports whether any step changed the IR.
func (r *Report) Changed() bool {
	for _, s := range r.Steps {
		if s.Applied {
			return true
		}
	}
	return false
}

// String renders the report as a small table.
func (r *Report) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "kernel %s, plan %s:\n", r.Kernel, r.Plan)
	for _, s := range r.Steps {
		status := "applied"
		if !s.Applied {
			status = "no-op"
		}
		fmt.Fprintf(&sb, "  %-24s [%s] %s\n", s.Step, status, s.Detail)
	}
	return sb.String()
}

// Apply runs the plan over the named kernel of m and returns the
// rewritten module; m itself is never mutated (the driver works on a
// deep clone, like the opencl facade does for the Grover pass). Plans
// without an explicit "opt" step get the standard optimization pipeline
// appended. After every step the kernel is re-verified when
// GROVER_DEBUG_VERIFY is set, and unconditionally once at the end; a
// verification failure names the offending step.
func Apply(m *ir.Module, kernel string, p *Plan) (*ir.Module, *Report, error) {
	if m.Kernel(kernel) == nil {
		return nil, nil, fmt.Errorf("rewrite: no kernel %q in module", kernel)
	}
	if p == nil {
		p = &Plan{}
	}
	rep := &Report{Kernel: kernel, Plan: p.String()}
	steps := append([]Step(nil), p.Steps...)
	hasOpt := false
	for _, s := range steps {
		if s.Rule == "opt" {
			hasOpt = true
		}
	}
	if !hasOpt {
		steps = append(steps, Step{Rule: "opt"})
	}
	out := ir.CloneModule(m)
	for _, step := range steps {
		rule := Lookup(step.Rule)
		if rule == nil {
			return nil, rep, fmt.Errorf("rewrite: unknown rule %q (available: %s)",
				step.Rule, strings.Join(RuleNames(), ", "))
		}
		fn := out.Kernel(kernel)
		sr := StepReport{Step: step.String(), Rule: step.Rule}
		if rule.Match != nil && !rule.Match(fn, step.Opts) {
			sr.Detail = "no match"
			rep.Steps = append(rep.Steps, sr)
			continue
		}
		if rule.Check != nil {
			if err := rule.Check(fn, step.Opts); err != nil {
				return nil, rep, fmt.Errorf("rewrite: step %s: %w", step, err)
			}
		}
		res, err := rule.Apply(out, kernel, step.Opts)
		if err != nil {
			return nil, rep, fmt.Errorf("rewrite: step %s: %w", step, err)
		}
		if res != nil {
			sr.Applied = res.Changed
			sr.Detail = res.Detail
			sr.Grover = res.Grover
		}
		fn = out.Kernel(kernel)
		fn.AssignIDs()
		if debug.Verify {
			if err := ir.VerifyFunc(fn); err != nil {
				return nil, rep, fmt.Errorf("rewrite: step %s produced invalid IR: %w", step, err)
			}
		}
		rep.Steps = append(rep.Steps, sr)
	}
	if err := ir.VerifyFunc(out.Kernel(kernel)); err != nil {
		return nil, rep, fmt.Errorf("rewrite: plan %s produced invalid IR: %w", p, err)
	}
	return out, rep, nil
}
