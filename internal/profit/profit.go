// Package profit statically predicts rewrite-plan profitability: it
// replays one work-group's memaccess summary — the ordered schedule of
// affine/evaluable accesses, loops with trip estimates, and barriers —
// through the same per-device cost mechanics the trace-driven simulator
// uses (coalescing into segment transactions, scratch-pad bank
// conflicts, the set-associative cache hierarchy, per-warp or per-item
// issue and barrier costs), without executing the kernel. The result is
// a cycles-per-work-group score whose ordering across rewrite plans
// approximates the ordering of measured timings, so the autotuner can
// rank a plan space and execute only the most promising entries (the
// prune mode of grover.Tune and groverd's "prune" field).
package profit

import (
	"fmt"
	"sort"

	"grover/internal/analysis/memaccess"
	"grover/internal/device"
	"grover/internal/ir"
	"grover/internal/rewrite"
)

// Options configure a scoring run.
type Options struct {
	// WorkGroup gives the launch's work-group extents (zero entries
	// default to 64×1×1).
	WorkGroup [3]int
	// Global gives the launch's global extents when known; they size the
	// group-count sample for get_num_groups/get_global_size.
	Global [3]int
	// ArgInts supplies known scalar argument values by parameter index.
	ArgInts map[int]int64
	// SampleIters caps the iterations replayed per loop; the remainder
	// is linearly extrapolated. 0 means 128.
	SampleIters int64
}

// Score is the static cost estimate for one kernel on one device:
// cycles for one work-group on one core / compute unit, with a
// component breakdown.
type Score struct {
	Device string  `json:"device"`
	Kernel string  `json:"kernel"`
	Cycles float64 `json:"cycles"`
	// Component cycles: instruction issue, global-memory hierarchy,
	// scratch-pad, barriers, private traffic.
	Issue   float64 `json:"issue"`
	Mem     float64 `json:"mem"`
	Local   float64 `json:"local"`
	Barrier float64 `json:"barrier"`
	Priv    float64 `json:"priv"`
	// Transactions counts coalesced global segment transactions (GPU).
	Transactions float64 `json:"transactions,omitempty"`
	// CoalesceEff is the mean fraction of a warp's global accesses
	// served per transaction (1 = perfectly coalesced), GPU only.
	CoalesceEff float64 `json:"coalesce_eff,omitempty"`
	// BankConflict is the mean scratch-pad bank-conflict degree of warp
	// local accesses (1 = conflict-free), GPU only.
	BankConflict float64 `json:"bank_conflict,omitempty"`
}

// ScoreKernel statically scores one kernel on one device profile.
func ScoreKernel(fn *ir.Function, prof *device.Profile, opts Options) (*Score, error) {
	if opts.SampleIters <= 0 {
		opts.SampleIters = 128
	}
	sum := memaccess.Summarize(fn, memaccess.Options{
		WorkGroup: opts.WorkGroup,
		ArgInts:   opts.ArgInts,
	})
	r, err := newReplay(sum, prof, opts)
	if err != nil {
		return nil, err
	}
	r.run()
	return r.score(), nil
}

// PlanScore is one plan's static verdict.
type PlanScore struct {
	Plan string `json:"plan"`
	// Applied is false when the plan was a no-op on this kernel.
	Applied bool   `json:"applied"`
	Err     string `json:"error,omitempty"`
	Score   *Score `json:"score,omitempty"`
}

// ScorePlan applies the plan to a clone of the module and scores the
// rewritten kernel. Plans that fail to parse or apply report the error
// instead of a score.
func ScorePlan(mod *ir.Module, kernel, plan string, prof *device.Profile, opts Options) *PlanScore {
	ps := &PlanScore{Plan: plan}
	p, err := rewrite.ParsePlan(plan)
	if err != nil {
		ps.Err = err.Error()
		return ps
	}
	out, rep, err := rewrite.Apply(mod, kernel, p)
	if err != nil {
		ps.Err = err.Error()
		return ps
	}
	ps.Applied = plan == "base" || plan == "" || rep.Changed()
	sc, err := ScoreKernel(out.Kernel(kernel), prof, opts)
	if err != nil {
		ps.Err = err.Error()
		return ps
	}
	sc.Kernel = kernel
	ps.Score = sc
	return ps
}

// RankPlans scores every plan and returns the list sorted best (fewest
// cycles) first; plans that failed to score sort last in input order.
func RankPlans(mod *ir.Module, kernel string, plans []string, prof *device.Profile, opts Options) ([]*PlanScore, error) {
	if mod.Kernel(kernel) == nil {
		return nil, fmt.Errorf("profit: no kernel %q in module", kernel)
	}
	out := make([]*PlanScore, 0, len(plans))
	for _, plan := range plans {
		out = append(out, ScorePlan(mod, kernel, plan, prof, opts))
	}
	sort.SliceStable(out, func(i, j int) bool {
		si, sj := out[i].Score, out[j].Score
		if (si == nil) != (sj == nil) {
			return si != nil
		}
		if si == nil {
			return false
		}
		return si.Cycles < sj.Cycles
	})
	return out, nil
}
