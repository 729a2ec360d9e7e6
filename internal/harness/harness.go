// Package harness reproduces the paper's evaluation: it runs each
// benchmark with and without local memory on the simulated platforms and
// renders the paper's tables and figures (Fig. 2, Fig. 10, Tables I–IV).
//
// The reported metric follows the paper: normalized performance np =
// performance without local memory / performance with local memory =
// t_withLM / t_withoutLM. np > 1 means disabling local memory helped.
package harness

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"text/tabwriter"

	"grover/internal/apps"
	"grover/internal/device"
	igrover "grover/internal/grover"
	"grover/internal/rewrite"
	"grover/internal/search"
	"grover/internal/vm"
	"grover/opencl"
)

// Config controls experiment execution.
type Config struct {
	// Scale multiplies dataset sizes (1 = default).
	Scale int
	// Validate checks the memory each timed launch of either version
	// leaves against the host reference. It costs no launch: the timed
	// launches are the ones checked.
	Validate bool
	// Backend selects nothing: every launch runs on vm.Engine(), and a
	// name other than that one is an error. It stays because bench/
	// (frozen outside benchmark PRs) still sets it, in workloads.go.
	Backend string
	// Log receives progress lines (may be nil).
	Log io.Writer
}

func (c Config) logf(format string, args ...interface{}) {
	if c.Log != nil {
		fmt.Fprintf(c.Log, format+"\n", args...)
	}
}

// Measurement is one (benchmark, device) test case.
type Measurement struct {
	App    string
	Device string
	// WithLM and WithoutLM are simulated kernel times in milliseconds.
	WithLM    float64
	WithoutLM float64
	// NP is the paper's normalized performance (WithLM / WithoutLM).
	NP float64
	// Items is the number of work-items per timed launch (the NDRange
	// global size), for wall-clock-per-work-item reporting.
	Items int64
	// Report is the Grover transformation report.
	Report *igrover.Report
}

// Verdict classifies a measurement at the paper's 5% threshold.
type Verdict int

// Verdicts (paper Table IV rows).
const (
	Similar Verdict = iota
	Gain
	Loss
)

func (v Verdict) String() string {
	switch v {
	case Gain:
		return "gain"
	case Loss:
		return "loss"
	}
	return "similar"
}

// Classify applies the paper's ±5% similarity threshold.
func (m *Measurement) Classify() Verdict {
	switch {
	case m.NP > 1.05:
		return Gain
	case m.NP < 0.95:
		return Loss
	default:
		return Similar
	}
}

// RunCase measures one benchmark on one device: RunSet of one.
func RunCase(app *apps.App, deviceName string, cfg Config) (*Measurement, error) {
	ms, err := RunSet(app, []string{deviceName}, cfg)
	if err != nil {
		return nil, err
	}
	return ms[0], nil
}

// RunSet measures one benchmark on a set of devices and returns one
// Measurement per device, in deviceNames order. It is the two-version
// search (internal/search) over base and the grover step of the app's
// candidates on one app instance: each version executes once and is
// charged to every device's cost model, so each Measurement equals what
// RunCase reports for its device alone.
func RunSet(app *apps.App, deviceNames []string, cfg Config) ([]*Measurement, error) {
	if len(deviceNames) == 0 {
		return nil, fmt.Errorf("%s: no devices", app.ID)
	}
	plat := opencl.NewPlatform()
	devs := make([]*opencl.Device, len(deviceNames))
	for i, name := range deviceNames {
		dev, err := plat.DeviceByName(name)
		if err != nil {
			return nil, err
		}
		devs[i] = dev
	}
	if cfg.Backend != "" && cfg.Backend != vm.Engine() {
		return nil, fmt.Errorf("harness: backend %q: launches run on %s", cfg.Backend, vm.Engine())
	}
	ctx := opencl.NewContext(devs[0])
	prog, err := ctx.CompileProgram(app.ID+".cl", app.Source, app.Defines)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", app.ID, err)
	}
	inst, err := app.Setup(ctx, cfg.Scale)
	if err != nil {
		return nil, fmt.Errorf("%s: setup: %w", app.ID, err)
	}
	spec := &search.Spec{Prog: prog, Kernel: app.Kernel, Args: inst.Args, ND: inst.ND,
		Options: igrover.Options{Candidates: app.Candidates, Strict: true}}
	if cfg.Validate {
		spec.Check = inst.Check
	}
	res, _, err := search.Run(context.Background(), devs, spec)
	var pe *search.PlanError
	if errors.As(err, &pe) {
		version := "local memory disabled"
		if pe.Plan == rewrite.BasePlanName {
			version = "with local memory"
		}
		return nil, fmt.Errorf("%s (%s, %s): %w", app.ID, app.Kernel, version, pe.Err)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", app.ID, err)
	}
	items := int64(1)
	for _, d := range inst.ND.Global {
		if d > 1 {
			items *= int64(d)
		}
	}
	out := make([]*Measurement, len(devs))
	for d, name := range deviceNames {
		r := res[d]
		m := &Measurement{
			App: app.ID, Device: name,
			WithLM: r.OriginalMS, WithoutLM: r.TransformedMS,
			NP:     r.Speedup,
			Items:  items,
			Report: r.Report,
		}
		cfg.logf("  %-10s %-8s withLM=%.4fms withoutLM=%.4fms np=%.2f [%s]",
			m.App, m.Device, m.WithLM, m.WithoutLM, m.NP, m.Classify())
		out[d] = m
	}
	return out, nil
}

// figure runs each app as one device set over profs, in app order, and
// logs one progress line per set under the figure's name.
func figure(cfg Config, name string, appList []*apps.App, profs []*device.Profile) ([]*Measurement, error) {
	names := make([]string, len(profs))
	for i, p := range profs {
		names[i] = p.Name
	}
	var out []*Measurement
	for _, app := range appList {
		cfg.logf("%s: %s on %s", name, app.ID, strings.Join(names, ","))
		ms, err := RunSet(app, names, cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, ms...)
	}
	return out, nil
}

// Fig2 reproduces Figure 2: the motivation experiment — MT and MM on all
// six platforms, each app one set of six. Per §II-C, MT is the NVIDIA
// transpose and MM removes local memory for matrix A only.
func Fig2(cfg Config) ([]*Measurement, error) {
	var appList []*apps.App
	for _, id := range []string{"NVD-MT", "NVD-MM-A"} {
		app, err := apps.ByID(id)
		if err != nil {
			return nil, err
		}
		appList = append(appList, app)
	}
	return figure(cfg, "fig2", appList, device.All())
}

// Fig10 reproduces Figure 10: all 11 benchmarks on the three cache-only
// platforms (SNB, Nehalem, MIC), each app one set of three.
func Fig10(cfg Config) ([]*Measurement, error) {
	return figure(cfg, "fig10", apps.All(), device.CPUs())
}

// FigGPU is the paper's stated future work ("investigate Grover's impact
// on other types of devices (e.g., GPUs)"): the full benchmark suite on
// the three GPU profiles, each app one set of three.
func FigGPU(cfg Config) ([]*Measurement, error) {
	var gpus []*device.Profile
	for _, prof := range device.All() {
		if prof.Kind == device.GPUKind {
			gpus = append(gpus, prof)
		}
	}
	return figure(cfg, "figgpu", apps.All(), gpus)
}

// Table4 derives the gain/loss/similar distribution (paper Table IV) from
// Figure 10 measurements.
type Table4 struct {
	Devices []string
	Gain    map[string]int
	Loss    map[string]int
	Similar map[string]int
	Total   int
}

// MakeTable4 tallies measurements at the 5% threshold.
func MakeTable4(ms []*Measurement) *Table4 {
	t := &Table4{
		Gain: map[string]int{}, Loss: map[string]int{}, Similar: map[string]int{},
	}
	seen := map[string]bool{}
	for _, m := range ms {
		if !seen[m.Device] {
			seen[m.Device] = true
			t.Devices = append(t.Devices, m.Device)
		}
		switch m.Classify() {
		case Gain:
			t.Gain[m.Device]++
		case Loss:
			t.Loss[m.Device]++
		default:
			t.Similar[m.Device]++
		}
		t.Total++
	}
	return t
}

func (t *Table4) String() string {
	var sb strings.Builder
	w := tabwriter.NewWriter(&sb, 2, 4, 2, ' ', 0)
	fmt.Fprintf(w, "\t%s\tTotal (%%)\n", strings.Join(t.Devices, "\t"))
	rows := []struct {
		name string
		m    map[string]int
	}{{"Gain", t.Gain}, {"Loss", t.Loss}, {"Similar", t.Similar}}
	for _, r := range rows {
		total := 0
		var cells []string
		for _, d := range t.Devices {
			cells = append(cells, fmt.Sprintf("%d", r.m[d]))
			total += r.m[d]
		}
		pct := 0.0
		if t.Total > 0 {
			pct = 100 * float64(total) / float64(t.Total)
		}
		fmt.Fprintf(w, "%s\t%s\t%d (%.0f%%)\n", r.name, strings.Join(cells, "\t"), total, pct)
	}
	w.Flush()
	return sb.String()
}

// RenderFigure renders measurements as a text bar chart grouped by device,
// mirroring the paper's normalized-performance figures.
func RenderFigure(title string, ms []*Measurement) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\n", title)
	fmt.Fprintf(&sb, "normalized performance np = t(with LM) / t(without LM); np>1 ⇒ disabling local memory wins\n\n")
	byDevice := map[string][]*Measurement{}
	var order []string
	for _, m := range ms {
		if len(byDevice[m.Device]) == 0 {
			order = append(order, m.Device)
		}
		byDevice[m.Device] = append(byDevice[m.Device], m)
	}
	for _, d := range order {
		fmt.Fprintf(&sb, "%s:\n", d)
		for _, m := range byDevice[d] {
			bar := npBar(m.NP)
			fmt.Fprintf(&sb, "  %-10s %5.2f %s [%s]\n", m.App, m.NP, bar, m.Classify())
		}
	}
	return sb.String()
}

// npBar draws a bar around the np=1.0 axis.
func npBar(np float64) string {
	const unit = 10.0 // characters per 1.0x
	if np > 4 {
		np = 4
	}
	n := int(np * unit)
	axis := int(unit)
	var sb strings.Builder
	for i := 0; i < n || i <= axis; i++ {
		switch {
		case i == axis:
			sb.WriteByte('|')
		case i < n:
			sb.WriteByte('#')
		default:
			sb.WriteByte(' ')
		}
	}
	return sb.String()
}

// Table3 runs the analysis (no execution) for every benchmark and renders
// the symbolic GL/LS/LL/nGL indices (paper Table III).
func Table3() (string, error) {
	var sb strings.Builder
	plat := opencl.NewPlatform()
	dev, err := plat.DeviceByName("SNB")
	if err != nil {
		return "", err
	}
	for _, app := range apps.All() {
		ctx := opencl.NewContext(dev)
		prog, err := ctx.CompileProgram(app.ID+".cl", app.Source, app.Defines)
		if err != nil {
			return "", fmt.Errorf("%s: %w", app.ID, err)
		}
		_, rep, err := prog.WithLocalMemoryDisabled(app.Kernel,
			igrover.Options{Candidates: app.Candidates, Strict: true})
		if err != nil {
			return "", fmt.Errorf("%s: %w", app.ID, err)
		}
		fmt.Fprintf(&sb, "%s (%s)\n%s\n", app.ID, app.Origin, rep)
	}
	return sb.String(), nil
}

// Table1 renders the benchmark inventory (paper Table I).
func Table1() string {
	var sb strings.Builder
	w := tabwriter.NewWriter(&sb, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "ID\tOrigin\tKernel\tDescription")
	for _, app := range apps.All() {
		fmt.Fprintf(w, "%s\t%s\t%s\t%s\n", app.ID, app.Origin, app.Kernel, app.Description)
	}
	w.Flush()
	return sb.String()
}

// Table2 renders the platform inventory (paper §V-C).
func Table2() string {
	var sb strings.Builder
	w := tabwriter.NewWriter(&sb, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Device\tKind\tCUs\tGHz\tCaches\tDRAM lat")
	for _, p := range device.All() {
		var caches []string
		for _, c := range p.Caches {
			caches = append(caches, fmt.Sprintf("%s %dKiB", c.Name, c.Sets*c.Ways*c.LineSize/1024))
		}
		fmt.Fprintf(w, "%s\t%s\t%d\t%.2f\t%s\t%d\n",
			p.Name, p.Kind, p.Cores, p.FreqGHz, strings.Join(caches, "+"), p.DRAMLatency)
	}
	w.Flush()
	return sb.String()
}
