package memsim_test

import (
	"fmt"
	"strings"
	"testing"

	"grover/internal/apps"
	"grover/internal/clc"
	igrover "grover/internal/grover"
	"grover/internal/memsim"
	"grover/internal/vm"
	"grover/opencl"
)

// runCensus tallies the converged warp columns of a launch, as the GPU
// warp model forms them: warps of width consecutive work-items, and of
// those only the warps none of whose lanes made an access of its own.
type runCensus struct {
	width int
	// cols[space][runs] counts columns by space (0 global, 1 local) and
	// by the runs their lanes form (0: more than four); fast counts the
	// local ones whose bank-conflict degree is charged from runs.
	cols [2][5]int
	fast int
}

func (c *runCensus) GroupBegin([3]int, int) {}
func (c *runCensus) Barrier(int)            {}
func (c *runCensus) GroupEnd()              {}

func (c *runCensus) AccessBatch(b *vm.AccessBatch) {
	n := len(b.Items)
	var addrs []uint64
	for lo := 0; lo < n; lo += c.width {
		hi := min(lo+c.width, n)
		converged := true
		for _, recs := range b.Items[lo:hi] {
			converged = converged && len(recs) == 0
		}
		if !converged {
			continue
		}
		col := 0
		for _, op := range b.Ops {
			if op.Private {
				continue
			}
			lanes := b.Cols[col*n+lo : col*n+hi]
			col++
			space, _ := vm.SplitAddr(lanes[0])
			if space == clc.ASPrivate {
				continue
			}
			addrs = addrs[:0]
			for _, a := range lanes {
				_, off := vm.SplitAddr(a)
				addrs = append(addrs, off)
			}
			runs, deg := memsim.RunShape(addrs, 32, 4)
			if space != clc.ASLocal {
				c.cols[0][runs]++
				continue
			}
			c.cols[1][runs]++
			if deg {
				c.fast++
			}
		}
	}
}

// gpuSweepApps are the GPU sweep's nine kernels.
var gpuSweepApps = []string{"AMD-SS", "AMD-MT", "NVD-MT", "AMD-RG", "AMD-MM", "NVD-MM-AB", "NVD-NBody", "PAB-ST", "ROD-SC"}

// TestRunHistogram runs the GPU sweep's kernels once each, with and
// without local memory, and counts how many progression runs the lanes
// of each converged warp column form, for Fermi's and Kepler's 32-lane
// warps and Tahiti's 64-lane ones, and of how many local columns
// BankConflictDegree charges from their runs. -v logs the table.
func TestRunHistogram(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 18 launches twice")
	}
	censuses := []*runCensus{{width: 32}, {width: 64}}
	plat := opencl.NewPlatform()
	dev, err := plat.DeviceByName("Fermi")
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range gpuSweepApps {
		app, err := apps.ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		for _, lm := range []bool{true, false} {
			for _, c := range censuses {
				ctx := opencl.NewContext(dev)
				prog, err := ctx.CompileProgram(app.ID+".cl", app.Source, app.Defines)
				if err != nil {
					t.Fatal(err)
				}
				if !lm {
					if prog, _, err = prog.WithLocalMemoryDisabled(app.Kernel, igrover.Options{Candidates: app.Candidates, Strict: true}); err != nil {
						t.Fatal(err)
					}
				}
				inst, err := app.Setup(ctx, 1)
				if err != nil {
					t.Fatal(err)
				}
				args, err := opencl.VMArgs(inst.Args...)
				if err != nil {
					t.Fatal(err)
				}
				cfg := vm.Config{GlobalSize: inst.ND.Global, LocalSize: inst.ND.Local, Args: args}
				opts := &vm.LaunchOpts{Workers: 1, TracerFor: func(int) vm.Tracer { return c }}
				if err := prog.VM().Launch(app.Kernel, cfg, ctx.Mem(), opts); err != nil {
					t.Fatalf("%s: %v", app.ID, err)
				}
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "| warp | space | columns | 1 run | 2 | 3 | 4 | more | degree from runs |\n|---|---|---|---|---|---|---|---|---|\n")
	for _, c := range censuses {
		for s, name := range []string{"global", "local"} {
			total := 0
			for _, k := range c.cols[s] {
				total += k
			}
			pct := func(k int) string { return fmt.Sprintf("%.1f %%", 100*float64(k)/float64(max(total, 1))) }
			fast := "—" // Segments always scans
			if name == "local" {
				fast = pct(c.fast)
				// The run path is the bank model's fast path: most local
				// columns of these kernels take it.
				if 2*c.fast < total {
					t.Errorf("%d lanes: %d of %d local columns charged from runs, want at least half", c.width, c.fast, total)
				}
			}
			fmt.Fprintf(&b, "| %d lanes | %s | %d | %s | %s | %s | %s | %s | %s |\n", c.width, name, total,
				pct(c.cols[s][1]), pct(c.cols[s][2]), pct(c.cols[s][3]), pct(c.cols[s][4]), pct(c.cols[s][0]), fast)
		}
	}
	t.Logf("converged warp columns of the GPU sweep's kernels:\n%s", b.String())
}
