package main

import (
	"path/filepath"
	"reflect"
	"testing"
)

// The smoke run performs one cheap op per kind of every workload, untraced
// on two seeds and traced once, and checks the printed metric set against
// BENCHMARK.json: no missing or extra names, units equal, nothing failed.
func TestSmokeAgainstBenchmarkJSON(t *testing.T) {
	bf, err := readBenchmarkFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	wantE2E := map[string]string{}
	for _, m := range bf.EndToEnd {
		wantE2E[m.Name] = m.Unit
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	wantLayer := map[string]string{}
	for _, m := range bf.PerLayer {
		wantLayer[m.Name] = m.Unit
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Fatalf("BENCHMARK.json lists workloads %v, the program has %v", names, workloadNames())
	}
	units := func(r *ledgerRow) map[string]string {
		out := map[string]string{}
		for name, m := range r.Metrics {
			out[name] = m.Unit
		}
		return out
	}
	for i := range workloads {
		info := &workloads[i]
		for _, seed := range []int64{1, 2} {
			row, err := run(info, seed, 0, false, true)
			if err != nil {
				t.Fatalf("%s seed %d: %v", info.name, seed, err)
			}
			if !row.Correct || row.Attempted < 1 {
				t.Errorf("%s seed %d: %d of %d ops failed", info.name, seed, row.Failed, row.Attempted)
			}
			if got := units(row); !reflect.DeepEqual(got, wantE2E) {
				t.Errorf("%s: end-to-end metrics %v, BENCHMARK.json wants %v", info.name, got, wantE2E)
			}
			for name, m := range row.Metrics {
				if m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", info.name, name, m.Value)
				}
			}
		}
		row, err := run(info, 1, 0, true, true)
		if err != nil {
			t.Fatalf("%s traced: %v", info.name, err)
		}
		if !row.Correct {
			t.Errorf("%s traced: %d of %d ops failed", info.name, row.Failed, row.Attempted)
		}
		if got := units(row); !reflect.DeepEqual(got, wantLayer) {
			t.Errorf("%s: per-layer metric set differs from BENCHMARK.json", info.name)
			for name := range wantLayer {
				if _, ok := got[name]; !ok {
					t.Errorf("  missing %s", name)
				}
			}
			for name, u := range got {
				if wantLayer[name] != u {
					t.Errorf("  %s has unit %q, BENCHMARK.json says %q", name, u, wantLayer[name])
				}
			}
		}
		if row.Metrics["bench.trace_overhead_ratio"].Value <= 0 {
			t.Errorf("%s: no trace overhead ratio", info.name)
		}
		sim := row.Metrics["device.sim_ms"].Value + row.Metrics["vm.exec_untraced_ms"].Value +
			row.Metrics["vm.trace_delivery_ms"].Value
		if info.name == "serve-frontend" && sim != 0 {
			t.Errorf("serve-frontend launched kernels: %v ms of engine and simulator time", sim)
		}
	}
}
