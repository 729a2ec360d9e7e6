// Package analysis is a dataflow-based static analysis suite over the
// compiler IR: a reusable framework (a generic bitset dataflow solver,
// reaching definitions, and a GPU uniformity analysis, all over ir.CFG's
// dominance and post-dominance) plus detectors for barrier
// divergence, local-memory races, local-array bounds violations, and
// Grover rewrite legality. It is the correctness gate in front of the
// local-memory-disabling pass: the pass assumes a well-formed staging
// pattern (race-free GL→LS→barrier→LL with uniformly-executed barriers),
// and these detectors check exactly those preconditions.
package analysis

import (
	"sort"

	"grover/internal/clc"
	"grover/internal/exprtree"
	"grover/internal/grover"
	"grover/internal/ir"
)

// Severity grades a finding.
type Severity string

const (
	SeverityInfo    Severity = "info"
	SeverityWarning Severity = "warning"
	SeverityError   Severity = "error"
)

// rank orders severities for exit-code and sorting purposes.
func (s Severity) rank() int {
	switch s {
	case SeverityError:
		return 2
	case SeverityWarning:
		return 1
	default:
		return 0
	}
}

// Detector names, one per analysis.
const (
	DetectorBarrierDivergence = "barrier-divergence"
	DetectorLocalRace         = "local-race"
	DetectorLocalBounds       = "local-bounds"
)

// Finding is one diagnostic anchored to a source position.
type Finding struct {
	Detector string   `json:"detector"`
	Severity Severity `json:"severity"`
	Kernel   string   `json:"kernel"`
	Pos      clc.Pos  `json:"pos"`
	Message  string   `json:"message"`
	// Related points at the other half of a pairwise finding (e.g. the
	// second access of a race).
	Related []clc.Pos `json:"related,omitempty"`
}

// Options configure an analysis run.
type Options struct {
	// WorkGroupSize gives the launch's work-group extents when known;
	// zero entries mean unknown. Extents tighten the bounds intervals
	// and enable the injectivity reasoning of the race detector.
	WorkGroupSize [3]int
	// AccessChecks enables the opt-in performance detectors backed by
	// the static access summary: uncoalesced global accesses,
	// bank-conflicted local staging, and barriers that synchronize no
	// cross-item communication. They judge efficiency rather than
	// correctness, so the default detector set leaves them off.
	AccessChecks bool
}

// Result is the full output for a module or kernel.
type Result struct {
	Findings []Finding `json:"findings"`
	// Legality holds one verdict per __local buffer the Grover candidate
	// matcher considered, rewritable or not, with the reject code.
	Legality []grover.BufferLegality `json:"legality"`
}

// MaxSeverity returns the highest severity among the findings, or "" if
// there are none.
func (r *Result) MaxSeverity() Severity {
	var max Severity
	for _, f := range r.Findings {
		if f.Severity.rank() > max.rank() || max == "" {
			if f.Severity.rank() >= max.rank() {
				max = f.Severity
			}
		}
	}
	return max
}

// AnalyzeModule analyzes every kernel of m.
func AnalyzeModule(m *ir.Module, opts Options) *Result {
	res := &Result{}
	for _, fn := range m.Kernels() {
		kr := AnalyzeKernel(fn, opts)
		res.Findings = append(res.Findings, kr.Findings...)
		res.Legality = append(res.Legality, kr.Legality...)
	}
	return res
}

// AnalyzeKernel runs every detector over one kernel.
func AnalyzeKernel(fn *ir.Function, opts Options) *Result {
	cfg := ir.NewCFG(fn)
	rd := ComputeReachingDefs(cfg)
	uni := ComputeUniformity(cfg, rd)
	tb := exprtree.NewBuilder(fn)
	reg := exprtree.NewRegistry()
	bufs := collectLocalBuffers(fn, tb, reg)

	res := &Result{}
	res.Findings = append(res.Findings, checkBarrierDivergence(cfg, uni)...)
	res.Findings = append(res.Findings, checkRaces(cfg, uni, bufs, reg, opts.WorkGroupSize)...)
	res.Findings = append(res.Findings, checkBounds(cfg, bufs, tb, reg, opts.WorkGroupSize)...)
	if opts.AccessChecks {
		res.Findings = append(res.Findings, checkAccessPatterns(fn, opts)...)
	}
	res.Legality = grover.ExplainKernel(fn)
	sortFindings(res.Findings)
	return res
}

// sortFindings orders findings by severity (errors first), then source
// position, then detector, for stable output.
func sortFindings(fs []Finding) {
	sort.SliceStable(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.Severity.rank() != b.Severity.rank() {
			return a.Severity.rank() > b.Severity.rank()
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Col != b.Pos.Col {
			return a.Pos.Col < b.Pos.Col
		}
		return a.Detector < b.Detector
	})
}
