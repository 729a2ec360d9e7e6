package grover_test

import (
	"testing"

	"grover/internal/apps"
	"grover/internal/clc"
	"grover/internal/ir"
	"grover/internal/lower"
	"grover/internal/opt"
)

// lowerApps parses and lowers every app's source, n times over: fresh
// modules for a measurement to optimize, each once.
func lowerApps(tb testing.TB, n int) [][]*ir.Module {
	tb.Helper()
	out := make([][]*ir.Module, n)
	for i := range out {
		for _, app := range apps.All() {
			f, err := clc.Parse(app.ID+".cl", app.Source, app.Defines)
			if err != nil {
				tb.Fatalf("%s: %v", app.ID, err)
			}
			m, err := lower.Module(f)
			if err != nil {
				tb.Fatalf("%s: %v", app.ID, err)
			}
			out[i] = append(out[i], m)
		}
	}
	return out
}

// optimizeAndVerify runs what a compile runs after lowering on each module.
func optimizeAndVerify(tb testing.TB, mods []*ir.Module) {
	for _, m := range mods {
		opt.Optimize(m)
		if err := ir.Verify(m); err != nil {
			tb.Fatal(err)
		}
	}
}

// TestOptimizeAllocs bounds the allocations of opt.Optimize plus ir.Verify
// over freshly lowered modules of the 11 apps. The optimizer keeps its
// per-instruction state in tables indexed by instruction ID, reused
// across passes and fixpoint rounds, and CSE hashes instead of printing a
// key: 1,708 allocations per run, three fifths of them building the CFGs.
// Pointer-keyed maps and a printed key per instruction took 6,740; the
// bound leaves 25 % headroom over 1,708.
func TestOptimizeAllocs(t *testing.T) {
	const runs = 5
	mods := lowerApps(t, runs+1) // AllocsPerRun runs once more to warm up
	i := 0
	got := testing.AllocsPerRun(runs, func() {
		optimizeAndVerify(t, mods[i])
		i++
	})
	const bound = 2135
	if got > bound {
		t.Errorf("opt.Optimize and ir.Verify over the 11 apps: %.0f allocations per run, want at most %d", got, bound)
	} else {
		t.Logf("opt.Optimize and ir.Verify over the 11 apps: %.0f allocations per run", got)
	}
}

// BenchmarkOptimize times opt.Optimize plus ir.Verify over the 11 apps;
// lowering the modules is left out of the time.
func BenchmarkOptimize(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		mods := lowerApps(b, 1)[0]
		b.StartTimer()
		optimizeAndVerify(b, mods)
	}
}
