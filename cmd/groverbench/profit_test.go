package main

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
)

// TestBenchProfitSchema strictly decodes the committed static-ranking
// validation with the experiment's own types (an unknown field fails, so a
// schema change without regenerating the file fails CI) and holds the two
// numbers the static rank is kept on: the prune window's accuracy, and how
// often the rank's first choice alone — nothing launched — is a
// measured-best plan, which is what PR 22's decision to delete the k-NN
// predictor rests on (EXPERIMENTS.md, "Decision record (PR 22)").
func TestBenchProfitSchema(t *testing.T) {
	raw, err := os.ReadFile("../../BENCH_profit.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench profitBenchJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bench); err != nil {
		t.Fatalf("BENCH_profit.json does not match the current schema (regenerate with groverbench -experiment profit -device all -quiet -format json): %v", err)
	}
	if bench.Experiment != "profit" {
		t.Fatalf("experiment = %q, want profit", bench.Experiment)
	}
	if len(bench.Cases) != 72 {
		t.Fatalf("%d cases, want 72 (12 apps × 6 devices)", len(bench.Cases))
	}
	if bench.PruneAccuracy < 0.958 {
		t.Errorf("prune_accuracy %.3f below 0.958 (69 of 72)", bench.PruneAccuracy)
	}
	top1 := 0
	for _, c := range bench.Cases {
		// The rank's first choice among the plans that apply: an unapplied
		// plan is the base kernel under another name and was never timed.
		var first *profitPlanJSON
		for i := range c.Plans {
			p := &c.Plans[i]
			if p.Applied && p.StaticRank > 0 && (first == nil || p.StaticRank < first.StaticRank) {
				first = p
			}
		}
		if first == nil {
			t.Errorf("%s on %s: no applied plan has a static rank", c.App, c.Device)
			continue
		}
		if first.MS == c.BestMS {
			top1++
		}
	}
	if top1 < 69 {
		t.Errorf("the static rank's first applied plan is a measured-best plan in %d of 72 cases, want ≥ 69", top1)
	}
}
