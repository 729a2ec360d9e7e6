package main

import (
	"context"
	"fmt"
	"strings"

	"grover"
	"grover/internal/apps"
	"grover/internal/harness"
	"grover/internal/search"
	"grover/opencl"
)

// synWSSource is a window-sum kernel built for the inverse direction: the
// b load is loop-invariant but LICM must leave it alone (the out store may
// alias), so every iteration pays a global access. stage-local turns it
// into one global load plus N scratch-pad hits per work-item — the
// profitable case on devices whose SPM beats their global-load cache.
const synWSSource = `
#define WG 64
__kernel void winsum(__global float* out, __global float* a,
                     __global float* b, int n) {
    int gid = get_global_id(0);
    int lid = get_local_id(0);
    int grp = get_group_id(0);
    float acc = 0.0f;
    for (int i = 0; i < n; i++) {
        acc += a[gid*n + i] * b[grp*WG + lid];
    }
    out[gid] = acc;
}
`

// synWS is the synthetic 12th app of the rewrite experiment. It is local
// to groverbench on purpose: apps.All() is the paper's fixed 11-row
// Table I, and this kernel exists to exercise the stage-local rule, not
// to reproduce a paper measurement.
func synWS() *apps.App {
	return &apps.App{
		ID:          "SYN-WS",
		Origin:      "synthetic",
		Description: "window sum; reused un-hoistable global load, no local memory",
		Kernel:      "winsum",
		Source:      synWSSource,
		Setup:       synWSSetup,
	}
}

func synWSSetup(ctx *opencl.Context, scale int) (*apps.Instance, error) {
	if scale <= 0 {
		scale = 1
	}
	const wg, n = 64, 96
	g := 2048 * scale
	a := ctx.NewBuffer(g * n * 4)
	b := ctx.NewBuffer(g * 4)
	out := ctx.NewBuffer(g * 4)
	av := opencl.Pattern(g*n, 11)
	bv := opencl.Pattern(g, 13)
	a.WriteFloat32(av)
	b.WriteFloat32(bv)
	check := func() error {
		got := out.ReadFloat32(g)
		for gid := 0; gid < g; gid++ {
			var acc float32
			for i := 0; i < n; i++ {
				acc += av[gid*n+i] * bv[gid]
			}
			d := float64(got[gid] - acc)
			if d > 1e-3 || d < -1e-3 {
				return fmt.Errorf("winsum: out[%d] = %g, want %g", gid, got[gid], acc)
			}
		}
		return nil
	}
	return &apps.Instance{
		ND:    opencl.NDRange{Global: [3]int{g, 1, 1}, Local: [3]int{wg, 1, 1}},
		Args:  []interface{}{out, a, b, int32(n)},
		Check: check,
		Bytes: (g*n + 2*g) * 4,
	}, nil
}

// planSpaceFor builds the per-app plan list: the default space with the
// grover steps pinned to the app's candidate set (the NVD-MM-A/B/AB rows
// are defined by which __local buffer they remove).
func planSpaceFor(app *apps.App, local [3]int) []string {
	g := "grover"
	if len(app.Candidates) > 0 {
		g = fmt.Sprintf("grover(cands=%s)", strings.Join(app.Candidates, "+"))
	}
	plans := []string{
		"base",
		g,
		g + ",hoist-addr",
		"hoist-addr",
		g + ",opt(passes=cse+load-forward+dse+peephole+dce)",
	}
	if local[0] > 1 && local[1] <= 1 && local[2] <= 1 {
		plans = append(plans,
			fmt.Sprintf("stage-local(ls=%d)", local[0]),
			fmt.Sprintf("stage-local(ls=%d),hoist-addr", local[0]))
	}
	return plans
}

// searchApp sets app up once and searches its plan space on devs as one
// set (internal/search, the search grover.Tune runs): every distinct
// kernel executes once and is charged to each device's cost model, which
// gives every device the timings of a search of its own. The results are
// in devs order.
func searchApp(app *apps.App, devs []*opencl.Device, cfg harness.Config) ([]*grover.TuneResult, error) {
	ctx := opencl.NewContext(devs[0])
	if cfg.Backend != "" {
		if err := ctx.SetBackend(cfg.Backend); err != nil {
			return nil, err
		}
	}
	prog, err := ctx.CompileProgram(app.ID+".cl", app.Source, app.Defines)
	if err != nil {
		return nil, err
	}
	inst, err := app.Setup(ctx, cfg.Scale)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	res, _, err := search.Run(context.Background(), devs, &search.Spec{Prog: prog, Kernel: app.Kernel,
		Args: inst.Args, ND: inst.ND, Plans: planSpaceFor(app, inst.ND.Local)})
	return res, err
}

// planTimingJSON is one evaluated plan of a rewrite case.
type planTimingJSON struct {
	Plan string `json:"plan"`
	// MS is present only when the plan was applied and timed.
	MS      float64 `json:"ms,omitempty"`
	Applied bool    `json:"applied"`
	Error   string  `json:"error,omitempty"`
}

// rewriteCaseJSON is one app × device plan-search verdict.
type rewriteCaseJSON struct {
	App    string `json:"app"`
	Device string `json:"device"`
	// Best is the winning plan ("base" when no rewrite helped).
	Best   string  `json:"best"`
	BestMS float64 `json:"best_ms"`
	BaseMS float64 `json:"base_ms"`
	// GroverMS is the grover-only plan's time (0 when inapplicable).
	GroverMS float64 `json:"grover_ms,omitempty"`
	// NPBase and NPGrover normalize the winner against the base kernel
	// and the grover-only rewrite (the paper's np, > 1 means the winner
	// is faster).
	NPBase   float64          `json:"np_base"`
	NPGrover float64          `json:"np_grover,omitempty"`
	Plans    []planTimingJSON `json:"plans"`
}

// rewriteBenchJSON is the rewrite experiment output (BENCH_rewrite.json).
type rewriteBenchJSON struct {
	Experiment string `json:"experiment"`
	Scale      int    `json:"scale"`
	// NonBaseWins counts cases where a rewrite plan beat the base kernel.
	NonBaseWins int               `json:"non_base_wins"`
	Cases       []rewriteCaseJSON `json:"cases"`
}

// runRewrite sweeps every benchmark app (plus the synthetic SYN-WS) over
// every platform, autotuning across the app's plan space on each, and
// reports the per-case winner against base and grover-only.
func runRewrite(cfg harness.Config, format string) error {
	devs := opencl.NewPlatform().Devices()
	sweep := append(apps.All(), synWS())
	out := &rewriteBenchJSON{Experiment: "rewrite", Scale: cfg.Scale}
	for _, app := range sweep {
		if cfg.Log != nil {
			fmt.Fprintf(cfg.Log, "rewrite: %s\n", app.ID)
		}
		results, err := searchApp(app, devs, cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", app.ID, err)
		}
		for i, dev := range devs {
			c := rewriteCase(app.ID, dev.Name(), results[i])
			if c.Best != "base" {
				out.NonBaseWins++
			}
			out.Cases = append(out.Cases, c)
		}
	}
	if format == "json" {
		return emitJSON(out)
	}
	fmt.Println("Rewrite plan search — best plan per app and device")
	for _, c := range out.Cases {
		fmt.Printf("  %-10s %-8s base %8.4f ms  best %8.4f ms (np=%.2f)  %s\n",
			c.App, c.Device, c.BaseMS, c.BestMS, c.NPBase, c.Best)
	}
	fmt.Printf("  %d/%d cases won by a rewrite plan\n", out.NonBaseWins, len(out.Cases))
	return nil
}

func rewriteCase(appID, deviceName string, res *grover.TuneResult) rewriteCaseJSON {
	c := rewriteCaseJSON{
		App: appID, Device: deviceName,
		Best: res.Plan, BestMS: res.TransformedMS, BaseMS: res.OriginalMS,
	}
	if c.BestMS > 0 {
		c.NPBase = c.BaseMS / c.BestMS
	}
	for _, t := range res.PlanSearch {
		c.Plans = append(c.Plans, planTimingJSON{Plan: t.Plan, MS: t.MS, Applied: t.Applied, Error: t.Err})
		if t.Applied && strings.HasPrefix(t.Plan, "grover") && !strings.Contains(t.Plan, ",") {
			c.GroverMS = t.MS
		}
	}
	if c.GroverMS > 0 && c.BestMS > 0 {
		c.NPGrover = c.GroverMS / c.BestMS
	}
	return c
}
