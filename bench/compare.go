package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// benchmarkFile is the part of BENCHMARK.json the comparator and the
// smoke test read.
type benchmarkFile struct {
	Command    []string `json:"command"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	bf := &benchmarkFile{}
	if err := json.Unmarshal(b, bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return bf, nil
}

// verdict judges one (metric, workload) row. worse is how much the new
// median is worse than the old, as a share of the old, in the metric's own
// direction. A row whose run-to-run spread exceeds the bound cannot
// resolve a change of the bound's size: it is unresolved, unless every
// new run beats every old run. Within the bound, a change counts as better
// only when it exceeds the old runs' own spread.
func verdict(old, new []float64, lowerIsBetter bool, bound float64) (v string, worse float64) {
	mo, mn := median(old), median(new)
	worse = ratio(mn-mo, mo)
	if !lowerIsBetter {
		worse = -worse
	}
	allBetter := true
	for _, o := range old {
		for _, n := range new {
			if (lowerIsBetter && n >= o) || (!lowerIsBetter && n <= o) {
				allBetter = false
			}
		}
	}
	so, sn := spread(old), spread(new)
	switch {
	case allBetter && len(old) > 1 && len(new) > 1:
		return "better", worse
	case so > bound || sn > bound:
		return "unresolved", worse
	case worse > bound:
		return "worse", worse
	case -worse > so && -worse > 0:
		return "better", worse
	}
	return "within", worse
}

// compareLedgers applies BENCHMARK.json's bound to every end-to-end
// (metric, workload) row present in both ledgers and prints each ratio
// with its base.
func compareLedgers(w io.Writer, benchPath, oldPath, newPath string) error {
	bf, err := readBenchmarkFile(benchPath)
	if err != nil {
		return err
	}
	oldRows, err := readLedger(oldPath)
	if err != nil {
		return err
	}
	newRows, err := readLedger(newPath)
	if err != nil {
		return err
	}
	values := func(rows []ledgerRow, workload, metric string) (vs []float64, failed int) {
		for _, r := range rows {
			if r.Workload != workload || r.Trace != 0 {
				continue
			}
			if m, ok := r.Metrics[metric]; ok {
				vs = append(vs, m.Value)
			}
			failed += r.Failed
		}
		return vs, failed
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\told median (n)\tnew median (n)\tnew/old\tspread old\tspread new\tbound\tverdict")
	worst := "within"
	for _, wl := range bf.Workloads {
		for _, m := range bf.EndToEnd {
			old, _ := values(oldRows, wl.Name, m.Name)
			new, newFailed := values(newRows, wl.Name, m.Name)
			if len(old) == 0 || len(new) == 0 {
				continue
			}
			v, _ := verdict(old, new, m.Better == "lower", m.Bound)
			if newFailed > 0 {
				v = "worse (failed ops)"
			}
			if v != "within" && v != "better" {
				worst = "not clean"
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g %s (%d)\t%.6g %s (%d)\t%.4f of %.6g\t%.2f%%\t%.2f%%\t%.0f%%\t%s\n",
				wl.Name, m.Name, median(old), m.Unit, len(old), median(new), m.Unit, len(new),
				ratio(median(new), median(old)), median(old),
				100*spread(old), 100*spread(new), 100*m.Bound, v)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "overall: %s\n", worst)
	return err
}
