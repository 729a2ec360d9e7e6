package main

import (
	"fmt"
	"sort"

	"grover"
	"grover/internal/apps"
	"grover/internal/harness"
	"grover/internal/predict"
	"grover/internal/rewrite"
	"grover/internal/telemetry/aiwc"
	"grover/opencl"
)

// The predict experiment validates the predictive autotuner with
// leave-one-app-out cross-validation: every rewrite-experiment case
// (12 apps × 6 devices) is characterized and measured exhaustively,
// then each app in turn is held out of the feature store — by feature
// hash, so behavioral twins (workloads with byte-identical dynamic
// features, e.g. NVD-MT and AMD-RG) leave with it — and predicted from
// the remaining apps' measurements. It reports verdict accuracy on the
// predictions confident enough to skip measurement, the rank
// correlation between predicted and measured plan-shape ratios, and
// the executed-run reduction predict mode would have delivered.

// predictFoldJSON is one held-out (app, device) prediction.
type predictFoldJSON struct {
	App    string `json:"app"`
	Device string `json:"device"`
	// Verdict is the predicted best plan shape; BestShapes the measured
	// truth (every shape tying the best time).
	Verdict    string   `json:"verdict"`
	BestShapes []string `json:"best_shapes"`
	Confidence float64  `json:"confidence"`
	// Answered is true when the confidence clears the default threshold
	// (predict mode would trust it and skip the measured search);
	// Correct whether the verdict is among the measured-best shapes.
	Answered bool `json:"answered"`
	Correct  bool `json:"correct"`
	// Spearman rank-correlates predicted against measured shape ratios
	// over the Pairs shapes with both values.
	Spearman float64 `json:"spearman"`
	Pairs    int     `json:"pairs"`
	// Note carries the predictor's explanation for a capped confidence.
	Note      string             `json:"note,omitempty"`
	Neighbors []predict.Neighbor `json:"neighbors,omitempty"`
}

// predictBenchJSON is the predict experiment output (BENCH_predict.json).
type predictBenchJSON struct {
	Experiment    string  `json:"experiment"`
	Scale         int     `json:"scale"`
	Runs          int     `json:"runs"`
	MinConfidence float64 `json:"min_confidence"`
	Cases         int     `json:"cases"`
	// Answered counts folds confident enough to skip measurement;
	// AnsweredCorrect those whose verdict matched a measured-best shape.
	Answered        int `json:"answered"`
	AnsweredCorrect int `json:"answered_correct"`
	// AccuracyConfident is AnsweredCorrect/Answered — the acceptance
	// metric: what fraction of the verdicts predict mode would have
	// shipped without measuring were right. AccuracyEffective counts
	// fallbacks as correct (they measure, so they always ship a winner).
	AccuracyConfident float64 `json:"accuracy_confident"`
	AccuracyEffective float64 `json:"accuracy_effective"`
	// MeanSpearman averages the per-fold ratio rank correlations over
	// folds with at least two comparable shapes.
	MeanSpearman float64 `json:"mean_spearman"`
	// BaselineRuns counts timed launches the exhaustive searches used;
	// PredictedRuns what predict mode would have used (one
	// characterization per fold, plus the full search on fallbacks).
	BaselineRuns  int               `json:"baseline_runs"`
	PredictedRuns int               `json:"predicted_runs"`
	RunReduction  float64           `json:"run_reduction"`
	Folds         []predictFoldJSON `json:"folds"`
}

// predictFold pairs one measured case with everything its held-out
// prediction needs.
type predictFold struct {
	app    string
	device string
	rec    *predict.Record
	shapes []string
	prior  map[string]float64
}

// runPredict measures every case, then predicts each with its app (and
// feature-hash twins) held out of the store. deviceName restricts the
// sweep to one platform ("all" or "" sweeps every platform).
func runPredict(cfg harness.Config, format, deviceName string) error {
	devs, err := sweepDevices(deviceName)
	if err != nil {
		return err
	}
	sweep := append(apps.All(), synWS())
	store, err := predict.OpenStore("", 0)
	if err != nil {
		return err
	}
	defer store.Close()
	pred := predict.NewPredictor(store, predict.Config{})

	var folds []predictFold
	for _, app := range sweep {
		if cfg.Log != nil {
			fmt.Fprintf(cfg.Log, "predict: measuring %s\n", app.ID)
		}
		s, err := searchApp(app, devs, cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", app.ID, err)
		}
		// The feature vector is the kernel's, not a device's.
		features, err := grover.CharacterizeLaunch(s.prog, app.Kernel, s.inst.ND, s.inst.Args)()
		if err != nil {
			return fmt.Errorf("%s: characterize: %w", app.ID, err)
		}
		for i, dev := range devs {
			f, err := recordFold(s, dev, s.results[i], features, store)
			if err != nil {
				return fmt.Errorf("%s on %s: %w", app.ID, dev.Name(), err)
			}
			folds = append(folds, *f)
		}
	}

	out := &predictBenchJSON{
		Experiment:    "predict",
		Scale:         cfg.Scale,
		Runs:          cfg.Runs,
		MinConfidence: predict.DefaultMinConfidence,
		Cases:         len(folds),
	}
	var spearmans []float64
	for _, f := range folds {
		pr := pred.Predict(predict.Query{
			Features:      f.rec.Features,
			Device:        f.device,
			Shapes:        f.shapes,
			Prior:         f.prior,
			ExcludeHashes: map[string]bool{f.rec.Hash: true},
		})
		truth := f.rec.BestShapes()
		var best []string
		for s := range truth {
			best = append(best, s)
		}
		sort.Strings(best)
		correct := truth[pr.Verdict] || (pr.Verdict == "base" && len(truth) == 0)
		answered := pr.Confidence >= predict.DefaultMinConfidence

		var pv, mv []float64
		for shape, pratio := range pr.Ratios {
			if mr, ok := f.rec.ShapeRatio(shape); ok {
				pv = append(pv, pratio)
				mv = append(mv, mr)
			}
		}
		sp := spearman(pv, mv)
		if len(pv) >= 2 {
			spearmans = append(spearmans, sp)
		}

		fold := predictFoldJSON{
			App: f.app, Device: f.device,
			Verdict: pr.Verdict, BestShapes: best,
			Confidence: pr.Confidence, Answered: answered, Correct: correct,
			Spearman: sp, Pairs: len(pv), Note: pr.Note, Neighbors: pr.Neighbors,
		}
		out.Folds = append(out.Folds, fold)

		timed := len(f.rec.Plans) * cfg.Runs
		out.BaselineRuns += timed
		out.PredictedRuns++ // the characterization run
		if answered {
			out.Answered++
			if correct {
				out.AnsweredCorrect++
			}
		} else {
			out.PredictedRuns += timed
		}
	}
	if out.Answered > 0 {
		out.AccuracyConfident = float64(out.AnsweredCorrect) / float64(out.Answered)
	}
	if out.Cases > 0 {
		out.AccuracyEffective = float64(out.AnsweredCorrect+out.Cases-out.Answered) / float64(out.Cases)
	}
	out.MeanSpearman = mean(spearmans)
	if out.BaselineRuns > 0 {
		out.RunReduction = 1 - float64(out.PredictedRuns)/float64(out.BaselineRuns)
	}

	if format == "json" {
		return emitJSON(out)
	}
	fmt.Println("Predictive autotuning — leave-one-app-out cross-validation")
	for _, f := range out.Folds {
		mark := "fallback "
		if f.Answered {
			mark = "answered "
			if !f.Correct {
				mark = "WRONG    "
			}
		}
		fmt.Printf("  %-10s %-8s conf %.2f  %s verdict %-28s best %v\n",
			f.App, f.Device, f.Confidence, mark, f.Verdict, f.BestShapes)
	}
	fmt.Printf("  accuracy: %d/%d confident verdicts correct (%.0f%%), %.0f%% effective with fallback\n",
		out.AnsweredCorrect, out.Answered, 100*out.AccuracyConfident, 100*out.AccuracyEffective)
	fmt.Printf("  mean ratio spearman %.3f; runs %d → %d (%.0f%% reduction)\n",
		out.MeanSpearman, out.BaselineRuns, out.PredictedRuns, 100*out.RunReduction)
	return nil
}

// recordFold records one device's measured search into the store and
// returns what its held-out prediction needs.
func recordFold(s *appSearch, dev *opencl.Device, res *grover.TuneResult,
	features *aiwc.Features, store *predict.Store) (*predictFold, error) {
	app := s.app
	rec := &predict.Record{
		Hash: predict.Hash(features), Device: dev.Name(), Label: app.ID, Kernel: app.Kernel,
		Features: features, BaseMS: res.OriginalMS, Best: res.Plan, Source: "seed",
	}
	for _, t := range res.PlanSearch {
		if t.Applied && t.MS > 0 {
			rec.Plans = append(rec.Plans, predict.PlanOutcome{
				Plan: t.Plan, Shape: predict.PlanShape(t.Plan), MS: t.MS, Applied: true,
			})
		}
	}
	if err := store.Put(rec); err != nil {
		return nil, err
	}
	return &predictFold{
		app: app.ID, device: dev.Name(), rec: rec, shapes: s.plans,
		prior: staticShapePrior(s, dev),
	}, nil
}

// staticShapePrior reduces the profit model's per-plan cycle scores to
// per-shape ms/base ratios — the prior the predictor blends in (the
// same computation the grover facade performs in predict mode).
func staticShapePrior(s *appSearch, dev *opencl.Device) map[string]float64 {
	ranked, err := s.rankPlans(dev)
	if err != nil {
		return nil
	}
	baseCycles := 0.0
	shapeMin := map[string]float64{}
	for _, ps := range ranked {
		if ps.Score == nil || ps.Score.Cycles <= 0 {
			continue
		}
		if ps.Plan == rewrite.BasePlanName {
			baseCycles = ps.Score.Cycles
		}
		shape := predict.PlanShape(ps.Plan)
		if c, ok := shapeMin[shape]; !ok || ps.Score.Cycles < c {
			shapeMin[shape] = ps.Score.Cycles
		}
	}
	if baseCycles <= 0 {
		return nil
	}
	out := make(map[string]float64, len(shapeMin))
	for shape, c := range shapeMin {
		if shape != rewrite.BasePlanName {
			out[shape] = c / baseCycles
		}
	}
	return out
}
