package main

import (
	"fmt"
	"math"
	"sort"

	"grover"
	"grover/internal/apps"
	"grover/internal/harness"
	"grover/opencl"
)

// The profit experiment validates the static profitability model: every
// rewrite-experiment case (app × device) is both measured exhaustively
// (the same plan search BENCH_rewrite.json records — the simulator is
// deterministic, so the timings match the committed file) and scored
// statically, then the two orderings are compared. Per case it reports
// the Spearman rank correlation between static cycles and measured
// milliseconds, and whether pruning to the statically best few plans
// would still have executed a measured-best plan.

// profitPrune is the top-k the prune validation keeps on the full
// (7-plan) spaces; smaller spaces keep half, so the executed share of
// the whole sweep stays at or below one half.
const profitPrune = 3

func pruneFor(space int) int {
	k := space / 2
	if k > profitPrune {
		k = profitPrune
	}
	if k < 1 {
		k = 1
	}
	return k
}

type profitPlanJSON struct {
	Plan    string  `json:"plan"`
	MS      float64 `json:"ms,omitempty"`
	Applied bool    `json:"applied"`
	// Cycles is the static score; StaticRank its 1-based position in the
	// static ordering (ties broken by plan order).
	Cycles     float64 `json:"cycles,omitempty"`
	StaticRank int     `json:"static_rank,omitempty"`
	// Executed marks plans inside the prune window (the ones prune mode
	// would time).
	Executed bool   `json:"executed"`
	Error    string `json:"error,omitempty"`
}

type profitCaseJSON struct {
	App    string `json:"app"`
	Device string `json:"device"`
	// Spearman is the rank correlation between static cycles and measured
	// ms over the Pairs plans with both values (average ranks for ties).
	Spearman float64 `json:"spearman"`
	Pairs    int     `json:"pairs"`
	// Best is the measured-best plan and BestMS its time; PruneHit
	// reports whether the prune window contains a plan tying BestMS.
	Best     string  `json:"best"`
	BestMS   float64 `json:"best_ms"`
	Prune    int     `json:"prune"`
	PruneHit bool    `json:"prune_hit"`
	// PrunedBestMS is the best measured time inside the prune window —
	// what prune mode would have shipped.
	PrunedBestMS float64          `json:"pruned_best_ms"`
	Plans        []profitPlanJSON `json:"plans"`
}

type profitBenchJSON struct {
	Experiment string `json:"experiment"`
	Scale      int    `json:"scale"`
	Runs       int    `json:"runs"`
	// Mean per-case Spearman over GPU cases, CPU cases, and all cases.
	SpearmanGPU float64 `json:"spearman_gpu"`
	SpearmanCPU float64 `json:"spearman_cpu"`
	SpearmanAll float64 `json:"spearman_all"`
	// PruneAccuracy is the fraction of cases whose prune window contains
	// a measured-best plan; ExecutedFraction the share of all plans the
	// windows execute.
	PruneAccuracy    float64          `json:"prune_accuracy"`
	ExecutedFraction float64          `json:"executed_fraction"`
	Cases            []profitCaseJSON `json:"cases"`
}

// runProfit sweeps the rewrite experiment's cases, scoring each plan
// statically and timing it in the simulator, and reports how well the
// static ordering predicts the measured one. deviceName restricts the
// sweep to one platform ("all" or "" sweeps every platform).
func runProfit(cfg harness.Config, format, deviceName string) error {
	devs, err := sweepDevices(deviceName)
	if err != nil {
		return err
	}
	sweep := append(apps.All(), synWS())
	out := &profitBenchJSON{Experiment: "profit", Scale: cfg.Scale, Runs: cfg.Runs}
	var sGPU, sCPU []float64
	hits, executed, total := 0, 0, 0
	for _, app := range sweep {
		if cfg.Log != nil {
			fmt.Fprintf(cfg.Log, "profit: %s\n", app.ID)
		}
		// Measured side: the exhaustive search (identical to the rewrite
		// experiment; the simulator is deterministic).
		s, err := searchApp(app, devs, cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", app.ID, err)
		}
		for i, dev := range devs {
			c, err := profitCase(s, dev, s.results[i])
			if err != nil {
				return fmt.Errorf("%s on %s: %w", app.ID, dev.Name(), err)
			}
			if dev.IsGPU() {
				sGPU = append(sGPU, c.Spearman)
			} else {
				sCPU = append(sCPU, c.Spearman)
			}
			if c.PruneHit {
				hits++
			}
			executed += c.Prune
			total += len(c.Plans)
			out.Cases = append(out.Cases, *c)
		}
	}
	out.SpearmanGPU = mean(sGPU)
	out.SpearmanCPU = mean(sCPU)
	out.SpearmanAll = mean(append(append([]float64{}, sGPU...), sCPU...))
	if n := len(out.Cases); n > 0 {
		out.PruneAccuracy = float64(hits) / float64(n)
	}
	if total > 0 {
		out.ExecutedFraction = float64(executed) / float64(total)
	}
	if format == "json" {
		return emitJSON(out)
	}
	fmt.Println("Static profitability — rank correlation and prune validation")
	for _, c := range out.Cases {
		hit := "miss"
		if c.PruneHit {
			hit = "hit "
		}
		fmt.Printf("  %-10s %-8s spearman %+5.2f  prune@%d %s  best %8.4f ms (pruned best %8.4f ms)  %s\n",
			c.App, c.Device, c.Spearman, c.Prune, hit, c.BestMS, c.PrunedBestMS, c.Best)
	}
	fmt.Printf("  spearman: gpu %.3f, cpu %.3f, all %.3f\n", out.SpearmanGPU, out.SpearmanCPU, out.SpearmanAll)
	fmt.Printf("  prune: %d/%d cases keep a measured-best plan (%.0f%%), executing %.0f%% of all plans\n",
		hits, len(out.Cases), 100*out.PruneAccuracy, 100*out.ExecutedFraction)
	return nil
}

// profitCase compares one device's measured search res with the static
// ranking of the same plan space on its cost model.
func profitCase(s *appSearch, dev *opencl.Device, res *grover.TuneResult) (*profitCaseJSON, error) {
	ranked, err := s.rankPlans(dev)
	if err != nil {
		return nil, err
	}
	rankOf := make(map[string]int, len(ranked))
	cyclesOf := make(map[string]float64, len(ranked))
	for i, ps := range ranked {
		rankOf[ps.Plan] = i + 1
		if ps.Score != nil {
			cyclesOf[ps.Plan] = ps.Score.Cycles
		}
	}

	k := pruneFor(len(s.plans))
	c := &profitCaseJSON{App: s.app.ID, Device: dev.Name(), Prune: k}

	// Assemble per-plan rows from the measured search, annotated with the
	// static ordering.
	var ms, cycles []float64
	bestMS := math.Inf(1)
	for _, t := range res.PlanSearch {
		row := profitPlanJSON{Plan: t.Plan, MS: t.MS, Applied: t.Applied, Error: t.Err}
		if r, ok := rankOf[t.Plan]; ok {
			row.StaticRank = r
			row.Executed = r <= k
		}
		if cy, ok := cyclesOf[t.Plan]; ok {
			row.Cycles = cy
		}
		if t.Applied && t.MS > 0 {
			if cy, ok := cyclesOf[t.Plan]; ok {
				ms = append(ms, t.MS)
				cycles = append(cycles, cy)
			}
			if t.MS < bestMS {
				bestMS, c.Best = t.MS, t.Plan
			}
		}
		c.Plans = append(c.Plans, row)
	}
	if !math.IsInf(bestMS, 1) {
		c.BestMS = bestMS
	}
	c.Spearman = spearman(cycles, ms)
	c.Pairs = len(ms)

	// Prune verdict: what would the top-k static window have shipped?
	prunedBest := math.Inf(1)
	for _, row := range c.Plans {
		if row.Executed && row.Applied && row.MS > 0 && row.MS < prunedBest {
			prunedBest = row.MS
		}
	}
	if !math.IsInf(prunedBest, 1) {
		c.PrunedBestMS = prunedBest
		c.PruneHit = prunedBest <= c.BestMS*(1+1e-9)
	}
	return c, nil
}

// spearman computes the Spearman rank correlation of two equal-length
// samples, averaging ranks over ties. It returns 0 when fewer than two
// pairs exist or either sample is constant.
func spearman(a, b []float64) float64 {
	if len(a) != len(b) || len(a) < 2 {
		return 0
	}
	ra, rb := ranks(a), ranks(b)
	return pearson(ra, rb)
}

// ranks assigns 1-based ranks with ties receiving their average rank.
func ranks(v []float64) []float64 {
	idx := make([]int, len(v))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(i, j int) bool { return v[idx[i]] < v[idx[j]] })
	out := make([]float64, len(v))
	for i := 0; i < len(idx); {
		j := i
		for j+1 < len(idx) && v[idx[j+1]] == v[idx[i]] {
			j++
		}
		avg := float64(i+j)/2 + 1
		for t := i; t <= j; t++ {
			out[idx[t]] = avg
		}
		i = j + 1
	}
	return out
}

func pearson(a, b []float64) float64 {
	n := float64(len(a))
	var sa, sb float64
	for i := range a {
		sa += a[i]
		sb += b[i]
	}
	ma, mb := sa/n, sb/n
	var cov, va, vb float64
	for i := range a {
		da, db := a[i]-ma, b[i]-mb
		cov += da * db
		va += da * da
		vb += db * db
	}
	if va == 0 || vb == 0 {
		return 0
	}
	return cov / math.Sqrt(va*vb)
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}
