package grover_test

import (
	"context"
	"testing"

	"grover"
	"grover/internal/predict"
	"grover/opencl"
)

// TestPredictMode walks predict mode through its whole lifecycle on one
// workload: empty store → measured fallback (recorded), repeat workload →
// exact feature hit with one characterization and zero timed runs, repeat
// request key → zero-run alias answer without even a characterization.
func TestPredictMode(t *testing.T) {
	dev, err := opencl.NewPlatform().DeviceByName("SNB")
	if err != nil {
		t.Fatal(err)
	}
	store, err := predict.OpenStore("", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	spec := transposeSpec(64, 1)
	spec.Plans = grover.DefaultPlanSpace(spec.ND.Local)
	spec.Predict = true
	spec.Predictor = predict.NewPredictor(store, predict.Config{})
	spec.Label = "MT-test"
	spec.ExactKey = func(device string) string { return "req-mt-" + device }
	tune := func(spec grover.LaunchSpec) (*grover.TuneResult, int) {
		t.Helper()
		r := grover.Tune(context.Background(), []*opencl.Device{dev}, "transpose", spec)[0]
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		return r.Result, r.Set.Launches
	}

	// 1. Empty store: the prediction cannot clear the threshold, so the
	// search falls back to measurement and records the outcome.
	res, launches := tune(spec)
	if !res.Fallback {
		t.Fatalf("empty store did not fall back: %+v", res.Prediction)
	}
	if res.Prediction == nil || res.Prediction.Confidence >= grover.DefaultMinConfidence {
		t.Errorf("fallback prediction = %+v, want confidence below threshold", res.Prediction)
	}
	if res.OriginalMS <= 0 || launches < 2 {
		t.Errorf("fallback did not measure: originalMS=%v launches=%d", res.OriginalMS, launches)
	}
	if store.Len() != 1 {
		t.Fatalf("measured fallback recorded %d records, want 1", store.Len())
	}
	measuredPlan := res.Plan
	recs := store.Neighborhood("SNB")
	if recs[0].Label != "MT-test" || recs[0].Source != "measured" {
		t.Errorf("recorded %+v", recs[0])
	}

	// 2. Same workload again (no ExactKey): the characterization hashes to
	// the stored record — exact hit, one traced run, zero timed runs.
	unkeyed := spec
	unkeyed.ExactKey = nil
	res2, launches := tune(unkeyed)
	if res2.Fallback || res2.Prediction == nil || !res2.Prediction.Exact {
		t.Fatalf("repeat workload not answered exactly: fallback=%v prediction=%+v",
			res2.Fallback, res2.Prediction)
	}
	if launches != 1 {
		t.Errorf("exact hit executed %d runs, want the one characterization", launches)
	}
	if res2.Plan != measuredPlan {
		t.Errorf("predicted plan %q, measured winner was %q", res2.Plan, measuredPlan)
	}
	if res2.OriginalMS != 0 || res2.TransformedMS != 0 {
		t.Errorf("prediction carries timings: %v %v", res2.OriginalMS, res2.TransformedMS)
	}
	if res2.Kernel == nil {
		t.Error("prediction returned no runnable kernel")
	}

	// 3. Same request key: answered from the alias with zero runs and zero
	// characterizations. (Step 2 ran with no ExactKey, so the alias written
	// by step 1's fallback is still the resolving entry.)
	res3, launches := tune(spec)
	if res3.Fallback {
		t.Fatal("alias-keyed repeat request fell back to measurement")
	}
	if res3.Prediction == nil || !res3.Prediction.Exact || res3.Prediction.Confidence != 1 {
		t.Errorf("alias prediction = %+v", res3.Prediction)
	}
	if launches != 0 {
		t.Errorf("alias hit executed %d runs (timed or traced), want 0", launches)
	}
	if res3.Plan != measuredPlan {
		t.Errorf("alias answer plan %q, want %q", res3.Plan, measuredPlan)
	}
}
