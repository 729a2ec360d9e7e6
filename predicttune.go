package grover

import (
	"context"
	"sync"

	"grover/internal/predict"
	"grover/internal/rewrite"
	"grover/internal/telemetry/aiwc"
	"grover/internal/vm"
	"grover/opencl"
)

// CharacterizeLaunch builds the one-traced-run characterization callback
// predict mode needs: it launches the base kernel once with the AIWC
// tracer attached and restores global memory afterwards, so any timed
// fallback runs see pristine inputs.
func CharacterizeLaunch(prog *opencl.Program, kernel string, nd opencl.NDRange, args []interface{}) func() (*aiwc.Features, error) {
	return func() (*aiwc.Features, error) {
		vargs, err := opencl.VMArgs(args...)
		if err != nil {
			return nil, err
		}
		cctx := prog.Context()
		mem := cctx.Mem()
		initial := append([]byte(nil), mem.Data...)
		cfg := vm.Config{GlobalSize: nd.Global, LocalSize: nd.Local,
			Args: vargs, Backend: cctx.Backend()}
		f, err := aiwc.Characterize(prog.VM(), kernel, cfg, mem)
		copy(mem.Data[:len(initial)], initial)
		if err != nil {
			return nil, err
		}
		return f, nil
	}
}

// Prediction re-exports the predictor's answer type for TuneResult.
type Prediction = predict.Prediction

// DefaultMinConfidence is the measured-fallback threshold predict mode
// uses when the caller leaves LaunchSpec.MinConfidence zero.
const DefaultMinConfidence = predict.DefaultMinConfidence

var (
	defaultPredictorOnce sync.Once
	defaultPredictor     *predict.Predictor
)

// DefaultPredictor returns the process-wide predictor over a memory-only
// feature store. Predict mode uses it when no Predictor is supplied; it
// starts empty, so every early answer falls back to measurement — and
// each measurement it records makes the next prediction better.
func DefaultPredictor() *predict.Predictor {
	defaultPredictorOnce.Do(func() {
		store, _ := predict.OpenStore("", 0) // memory-only open cannot fail
		defaultPredictor = predict.NewPredictor(store, predict.Config{})
	})
	return defaultPredictor
}

// pendingPredict carries a below-threshold prediction through the
// measured fallback so the result reports it and the measurement is
// recorded back into the store.
type pendingPredict struct {
	features   *aiwc.Features
	prediction *predict.Prediction
}

// predictTune tries to answer the plan search from the feature store:
// zero runs on an exact request-key hit, one characterization run
// otherwise. It returns a finished result when the prediction clears the
// confidence threshold, or (nil, pending) to route the caller into
// measured fallback — pending carries whatever was learned so the
// measurement is recorded back.
func (s *deviceSearch) predictTune(ctx context.Context) (*TuneResult, *pendingPredict) {
	pred := s.spec.Predictor
	device := s.dev.Name()

	// Exact request hit: this source+kernel+launch was tuned on this
	// device before — answer from the record with zero runs.
	if s.exactKey != "" {
		if rec, ok := pred.Store().LookupAlias(s.exactKey); ok {
			pr := &predict.Prediction{
				Device: rec.Device, Hash: rec.Hash, Verdict: rec.BestShape,
				Plan: rec.Best, Ratio: 1, Confidence: 1, Exact: true,
			}
			if r, ok := rec.ShapeRatio(rec.BestShape); ok {
				pr.Ratio = r
			}
			if res := s.materializePrediction(ctx, pr); res != nil {
				return res, nil
			}
		}
	}

	feats, err := s.characterize()
	if err != nil {
		// Characterization failing is not fatal to the tune: measure.
		return nil, &pendingPredict{}
	}
	pr := pred.Predict(predict.Query{
		Features: feats,
		Device:   device,
		Shapes:   s.plans,
		Prior:    s.staticPrior(),
	})
	pending := &pendingPredict{features: feats, prediction: pr}
	if pr.Confidence < s.spec.MinConfidence {
		return nil, pending
	}
	res := s.materializePrediction(ctx, pr)
	if res == nil {
		// The predicted plan could not be applied here; measure instead.
		return nil, pending
	}
	if pr.Exact && s.exactKey != "" {
		// Remember the exact request so the next one skips even the
		// characterization run.
		pred.Store().Alias(s.exactKey, pr.Hash, device)
	}
	return res, nil
}

// staticPrior runs the profit model over the plan space and returns the
// predicted cycles ratio against base per plan shape — the prior the
// predictor blends with measured neighbors. nil when the model cannot
// score this kernel.
func (s *deviceSearch) staticPrior() map[string]float64 {
	ranked, err := s.rankPlans(s.dev)
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

// materializePrediction applies the predicted plan and builds the
// TuneResult for a confident prediction: no timings (OriginalMS and
// TransformedMS stay zero), Speedup carries the predicted normalized
// performance. nil when no candidate plan matches the verdict or the
// plan fails to apply — the caller falls back to measurement.
func (ps *planSearch) materializePrediction(ctx context.Context, pr *predict.Prediction) *TuneResult {
	planStr := concretePlan(ps.plans, pr)
	if planStr == "" {
		return nil
	}
	p, err := rewrite.ParsePlan(planStr)
	if err != nil {
		return nil
	}
	orig, err := ps.prog.Kernel(ps.kernel)
	if err != nil {
		return nil
	}
	res := &TuneResult{
		Original:   orig,
		Kernel:     orig,
		Plan:       p.String(),
		Prediction: pr,
	}
	if pr.Ratio > 0 {
		res.Speedup = 1 / pr.Ratio
	}
	if len(p.Steps) == 0 {
		return res
	}
	rp, rep, err := ps.prog.WithRewritePlanCtx(ctx, ps.kernel, p)
	if err != nil || !rep.Changed() {
		return nil
	}
	k, err := rp.Kernel(ps.kernel)
	if err != nil {
		return nil
	}
	res.Kernel = k
	res.Transformed = k
	res.UseTransformed = true
	res.Rewrite = rep
	for _, s := range rep.Steps {
		if s.Grover != nil {
			res.Report = s.Grover
		}
	}
	return res
}

// concretePlan picks the candidate plan realizing a prediction: the
// recorded plan itself when it is in the space, else the first candidate
// whose shape matches the verdict.
func concretePlan(plans []string, pr *predict.Prediction) string {
	if pr.Verdict == rewrite.BasePlanName {
		return rewrite.BasePlanName
	}
	canon := canonicalPlans(plans)
	if pr.Plan != "" {
		for _, c := range canon {
			if c == pr.Plan {
				return c
			}
		}
	}
	for _, c := range canon {
		if c != rewrite.BasePlanName && predict.PlanShape(c) == pr.Verdict {
			return c
		}
	}
	// The verdict's shape is not in this request's plan space; the exact
	// recorded plan may still parse and apply.
	if pr.Plan != "" {
		if p, err := rewrite.ParsePlan(pr.Plan); err == nil {
			return p.String()
		}
	}
	return ""
}

// recordMeasurement writes the measured plan search predict mode fell back
// to into the feature store, so the next similar workload can be answered
// without running.
func (s *deviceSearch) recordMeasurement(res *TuneResult) {
	feats := s.pending.features
	if feats == nil {
		return
	}
	label := s.spec.Label
	if label == "" {
		label = feats.Kernel
	}
	rec := &predict.Record{
		Hash:     predict.Hash(feats),
		Device:   s.dev.Name(),
		Label:    label,
		Kernel:   feats.Kernel,
		Features: feats,
		BaseMS:   res.OriginalMS,
		Best:     res.Plan,
		Source:   "measured",
	}
	for _, t := range res.PlanSearch {
		if !t.Applied || t.MS <= 0 {
			continue
		}
		rec.Plans = append(rec.Plans, predict.PlanOutcome{
			Plan: t.Plan, Shape: predict.PlanShape(t.Plan), MS: t.MS, Applied: true,
		})
	}
	if len(rec.Plans) == 0 {
		return
	}
	s.spec.Predictor.Store().Put(rec, s.exactKey)
}
