// Benchmarks regenerating every table and figure of the paper's
// evaluation, plus ablations for the design choices called out in
// DESIGN.md §6. Each figure benchmark is one figure row per app and
// reports the paper's metric — normalized performance np = t(with LM) /
// t(without LM) — per device of the row, as np_<device>:
//
//	go test -bench Fig2 .          # Figure 2 rows
//	go test -bench Fig10/NVD-MT .  # one Figure 10 row
//	go test -bench . -benchmem     # everything
package grover_test

import (
	"testing"

	"grover"
	"grover/internal/apps"
	"grover/internal/device"
	"grover/internal/harness"
	"grover/opencl"
)

// benchSet measures one app on a figure's device set — one row of the
// figure, each version executed once per iteration and charged to every
// device — and reports np per device.
func benchSet(b *testing.B, app *apps.App, profs []*device.Profile) {
	b.Helper()
	names := make([]string, len(profs))
	for i, p := range profs {
		names[i] = p.Name
	}
	var last []*harness.Measurement
	for i := 0; i < b.N; i++ {
		ms, err := harness.RunSet(app, names, harness.Config{})
		if err != nil {
			b.Fatal(err)
		}
		last = ms
	}
	for _, m := range last {
		b.ReportMetric(m.NP, "np_"+m.Device)
	}
}

// BenchmarkFig2 regenerates Figure 2: MT and MM (matrix A de-staged) on
// all six platforms, one row per app.
func BenchmarkFig2(b *testing.B) {
	for _, id := range []string{"NVD-MT", "NVD-MM-A"} {
		app, err := apps.ByID(id)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(id, func(b *testing.B) { benchSet(b, app, device.All()) })
	}
}

// BenchmarkFig10 regenerates Figure 10: the 11 benchmarks on the three
// cache-only platforms, one row per app. Together with the 5% threshold
// this also yields Table IV.
func BenchmarkFig10(b *testing.B) {
	for _, app := range apps.All() {
		b.Run(app.ID, func(b *testing.B) { benchSet(b, app, device.CPUs()) })
	}
}

// BenchmarkTable3 measures the Grover analysis and transformation itself
// (compile + pass) for every benchmark — the cost of the paper's Table III
// derivations.
func BenchmarkTable3(b *testing.B) {
	plat := opencl.NewPlatform()
	dev, err := plat.DeviceByName("SNB")
	if err != nil {
		b.Fatal(err)
	}
	for _, app := range apps.All() {
		b.Run(app.ID, func(b *testing.B) {
			ctx := opencl.NewContext(dev)
			for i := 0; i < b.N; i++ {
				prog, err := ctx.CompileProgram(app.ID, app.Source, app.Defines)
				if err != nil {
					b.Fatal(err)
				}
				_, rep, err := grover.Disable(prog, app.Kernel,
					grover.Options{Candidates: app.Candidates, Strict: true})
				if err != nil {
					b.Fatal(err)
				}
				if !rep.Transformed() {
					b.Fatal("not transformed")
				}
			}
		})
	}
}

// BenchmarkTable4 regenerates the Table IV tally from a Figure 10 sweep
// and reports the gain percentage.
func BenchmarkTable4(b *testing.B) {
	var tab *harness.Table4
	for i := 0; i < b.N; i++ {
		ms, err := harness.Fig10(harness.Config{})
		if err != nil {
			b.Fatal(err)
		}
		tab = harness.MakeTable4(ms)
	}
	gains, losses := 0, 0
	for _, d := range tab.Devices {
		gains += tab.Gain[d]
		losses += tab.Loss[d]
	}
	b.ReportMetric(100*float64(gains)/float64(tab.Total), "gain_pct")
	b.ReportMetric(100*float64(losses)/float64(tab.Total), "loss_pct")
}

// ---------------------------------------------------------------- ablations

// BenchmarkAblationClone compares Algorithm 1 with and without shared
// subexpression reuse (DESIGN.md §6.2): clone-everything inflates the
// instruction count of the transformed kernel.
func BenchmarkAblationClone(b *testing.B) {
	plat := opencl.NewPlatform()
	dev, _ := plat.DeviceByName("SNB")
	app, _ := apps.ByID("NVD-MT")
	for _, mode := range []struct {
		name     string
		cloneAll bool
	}{{"reuse", false}, {"clone-all", true}} {
		b.Run(mode.name, func(b *testing.B) {
			var cloned int
			for i := 0; i < b.N; i++ {
				ctx := opencl.NewContext(dev)
				prog, err := ctx.CompileProgram(app.ID, app.Source, nil)
				if err != nil {
					b.Fatal(err)
				}
				_, rep, err := grover.Disable(prog, app.Kernel, grover.Options{CloneAll: mode.cloneAll})
				if err != nil {
					b.Fatal(err)
				}
				cloned = rep.Candidates[0].ClonedInstrs
			}
			b.ReportMetric(float64(cloned), "cloned_instrs")
		})
	}
}

// BenchmarkAblationBarrier quantifies barrier elision (DESIGN.md §6.3):
// the transformed transpose with and without the dead barrier on SNB.
func BenchmarkAblationBarrier(b *testing.B) {
	plat := opencl.NewPlatform()
	dev, _ := plat.DeviceByName("SNB")
	app, _ := apps.ByID("NVD-MT")
	for _, mode := range []struct {
		name string
		keep bool
	}{{"elide-barriers", false}, {"keep-barriers", true}} {
		b.Run(mode.name, func(b *testing.B) {
			ctx := opencl.NewContext(dev)
			prog, err := ctx.CompileProgram(app.ID, app.Source, nil)
			if err != nil {
				b.Fatal(err)
			}
			noLM, _, err := grover.Disable(prog, app.Kernel, grover.Options{KeepBarriers: mode.keep})
			if err != nil {
				b.Fatal(err)
			}
			inst, err := app.Setup(ctx, 1)
			if err != nil {
				b.Fatal(err)
			}
			q, err := ctx.NewProfilingQueue()
			if err != nil {
				b.Fatal(err)
			}
			k, _ := noLM.Kernel(app.Kernel)
			var ms float64
			for i := 0; i < b.N; i++ {
				evt, err := q.EnqueueNDRange(k, inst.ND, inst.Args...)
				if err != nil {
					b.Fatal(err)
				}
				ms = evt.Duration()
			}
			b.ReportMetric(ms, "ms")
		})
	}
}

// BenchmarkAblationPattern compares the paper's tree-pattern detection
// (Fig. 7) against the affine decomposition engine (DESIGN.md §6.1) on the
// analysis side: both must agree on every benchmark, and this reports the
// analysis throughput.
func BenchmarkAblationPattern(b *testing.B) {
	s := ""
	for i := 0; i < b.N; i++ {
		var err error
		s, err = harness.Table3()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(s)), "report_bytes")
}

// BenchmarkVMThroughput measures raw interpreter speed (instructions per
// second) on the matmul inner loop — the execution substrate every
// simulated experiment rides on.
func BenchmarkVMThroughput(b *testing.B) {
	plat := opencl.NewPlatform()
	dev, _ := plat.DeviceByName("SNB")
	ctx := opencl.NewContext(dev)
	app, _ := apps.ByID("NVD-MM-AB")
	prog, err := ctx.CompileProgram(app.ID, app.Source, nil)
	if err != nil {
		b.Fatal(err)
	}
	inst, err := app.Setup(ctx, 1)
	if err != nil {
		b.Fatal(err)
	}
	k, _ := prog.Kernel(app.Kernel)
	q, err := ctx.NewProfilingQueue()
	if err != nil {
		b.Fatal(err)
	}
	var instrs int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		evt, err := q.EnqueueNDRange(k, inst.ND, inst.Args...)
		if err != nil {
			b.Fatal(err)
		}
		instrs = evt.Instrs
	}
	b.ReportMetric(float64(instrs), "kernel_instrs")
}
