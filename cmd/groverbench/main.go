// Command groverbench regenerates the paper's evaluation: every table and
// figure of "Grover: Looking for Performance Improvement by Disabling
// Local Memory Usage in OpenCL Kernels" (ICPP 2014).
//
// Usage:
//
//	groverbench -experiment fig2            # Fig. 2 (MT/MM on 6 platforms)
//	groverbench -experiment fig10           # Fig. 10 (11 apps on 3 CPUs)
//	groverbench -experiment table1          # benchmark inventory
//	groverbench -experiment table2          # platform inventory
//	groverbench -experiment table3          # symbolic GL/LS/LL/nGL indices
//	groverbench -experiment table4          # gain/loss distribution
//	groverbench -experiment all             # everything
//	groverbench -experiment case -app NVD-MT -device SNB
//	groverbench -experiment rewrite -format json       # rewrite-plan search sweep
//
// -format json emits machine-readable measurements; engine against
// engine, and groverd under load, are the ledger's business (bench/: the
// engine.* rows, the serve-frontend workload). The
// committed BENCH_rewrite.json is the output of the rewrite experiment
// (every app plus a synthetic window-sum kernel, autotuned across the
// rewrite plan space on all six platforms as one device set, grover.Tune).
// -cpuprofile and -memprofile write pprof profiles of the
// run for engine performance work.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"

	"grover/internal/apps"
	"grover/internal/harness"
)

func main() {
	var (
		experiment = flag.String("experiment", "all", "fig2 | fig10 | figgpu | table1 | table2 | table3 | table4 | case | rewrite | all")
		app        = flag.String("app", "", "benchmark id for -experiment case (e.g. NVD-MT)")
		device     = flag.String("device", "SNB", "device for -experiment case")
		scale      = flag.Int("scale", 1, "dataset scale factor")
		validate   = flag.Bool("validate", false, "check the memory each timed launch leaves against the host reference")
		format     = flag.String("format", "text", "output format: text | json")
		quiet      = flag.Bool("quiet", false, "suppress progress output")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write an allocation profile to this file on exit")
	)
	flag.Parse()

	var logW io.Writer = os.Stderr
	if *quiet {
		logW = nil
	}
	if *format != "text" && *format != "json" {
		fmt.Fprintf(os.Stderr, "groverbench: unknown format %q (want text or json)\n", *format)
		os.Exit(2)
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "groverbench:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "groverbench:", err)
			os.Exit(1)
		}
	}
	cfg := harness.Config{Scale: max(*scale, 1), Validate: *validate, Log: logW}

	err := run(*experiment, *app, *device, *format, cfg)
	if *cpuprofile != "" {
		pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		if perr := writeMemProfile(*memprofile); perr != nil && err == nil {
			err = perr
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "groverbench:", err)
		os.Exit(1)
	}
}

// writeMemProfile dumps the allocation profile at exit.
func writeMemProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	runtime.GC()
	return pprof.Lookup("allocs").WriteTo(f, 0)
}

// measurementJSON is the machine-readable form of one measurement.
type measurementJSON struct {
	App       string  `json:"app"`
	Device    string  `json:"device"`
	WithLM    float64 `json:"with_lm_ms"`
	WithoutLM float64 `json:"without_lm_ms"`
	NP        float64 `json:"np"`
	Verdict   string  `json:"verdict"`
}

func toJSON(ms []*harness.Measurement) []measurementJSON {
	out := make([]measurementJSON, len(ms))
	for i, m := range ms {
		out[i] = measurementJSON{
			App: m.App, Device: m.Device,
			WithLM: m.WithLM, WithoutLM: m.WithoutLM,
			NP: m.NP, Verdict: m.Classify().String(),
		}
	}
	return out
}

func emitJSON(v interface{}) error {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// emitMeasurements renders a sweep in the selected format.
func emitMeasurements(title string, ms []*harness.Measurement, format string, table4 bool) error {
	if format == "json" {
		return emitJSON(map[string]interface{}{
			"experiment":   title,
			"measurements": toJSON(ms),
		})
	}
	fmt.Println(harness.RenderFigure(title, ms))
	if table4 {
		fmt.Println("Table IV — performance gain/loss distribution (5% threshold)")
		fmt.Println(harness.MakeTable4(ms))
	}
	return nil
}

func run(experiment, appID, deviceName, format string, cfg harness.Config) error {
	switch experiment {
	case "fig2":
		ms, err := harness.Fig2(cfg)
		if err != nil {
			return err
		}
		return emitMeasurements("Figure 2 — removing local memory: MT and MM on six platforms", ms, format, false)
	case "fig10":
		ms, err := harness.Fig10(cfg)
		if err != nil {
			return err
		}
		return emitMeasurements("Figure 10 — all benchmarks on the cache-only platforms", ms, format, true)
	case "figgpu":
		ms, err := harness.FigGPU(cfg)
		if err != nil {
			return err
		}
		return emitMeasurements("GPU sweep (paper future work) — all benchmarks on the GPU platforms", ms, format, true)
	case "rewrite":
		return runRewrite(cfg, format)
	case "table1":
		fmt.Println("Table I — benchmarks and datasets")
		fmt.Println(harness.Table1())
		return nil
	case "table2":
		fmt.Println("Table II — simulated platforms")
		fmt.Println(harness.Table2())
		return nil
	case "table3":
		s, err := harness.Table3()
		if err != nil {
			return err
		}
		fmt.Println("Table III — data index of nGL per benchmark")
		fmt.Println(s)
		return nil
	case "table4":
		ms, err := harness.Fig10(cfg)
		if err != nil {
			return err
		}
		fmt.Println("Table IV — performance gain/loss distribution (5% threshold)")
		fmt.Println(harness.MakeTable4(ms))
		return nil
	case "case":
		if appID == "" {
			return fmt.Errorf("-experiment case requires -app")
		}
		a, err := apps.ByID(appID)
		if err != nil {
			return err
		}
		m, err := harness.RunCase(a, deviceName, cfg)
		if err != nil {
			return err
		}
		if format == "json" {
			return emitJSON(toJSON([]*harness.Measurement{m})[0])
		}
		fmt.Printf("%s on %s: with LM %.4f ms, without LM %.4f ms, np=%.2f [%s]\n",
			m.App, m.Device, m.WithLM, m.WithoutLM, m.NP, m.Classify())
		fmt.Println(m.Report)
		return nil
	case "all":
		fmt.Println("Table I — benchmarks and datasets")
		fmt.Println(harness.Table1())
		fmt.Println("Table II — simulated platforms")
		fmt.Println(harness.Table2())
		s, err := harness.Table3()
		if err != nil {
			return err
		}
		fmt.Println("Table III — data index of nGL per benchmark")
		fmt.Println(s)
		if err := runFig2(cfg); err != nil {
			return err
		}
		return runFig10(cfg)
	}
	return fmt.Errorf("unknown experiment %q", experiment)
}

func runFig2(cfg harness.Config) error {
	ms, err := harness.Fig2(cfg)
	if err != nil {
		return err
	}
	fmt.Println(harness.RenderFigure(
		"Figure 2 — removing local memory: MT and MM on six platforms", ms))
	return nil
}

func runFig10(cfg harness.Config) error {
	ms, err := harness.Fig10(cfg)
	if err != nil {
		return err
	}
	fmt.Println(harness.RenderFigure(
		"Figure 10 — all benchmarks on the cache-only platforms", ms))
	fmt.Println("Table IV — performance gain/loss distribution (5% threshold)")
	fmt.Println(harness.MakeTable4(ms))
	return nil
}
