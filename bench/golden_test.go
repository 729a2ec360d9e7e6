package main

import (
	"runtime"
	"testing"
)

// Every op of every workload must have its golden entry.
func TestGoldenCoversEveryOp(t *testing.T) {
	g, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	for _, set := range []struct {
		apps, devs []string
	}{{allApps, cpuDevices}, {gpuApps, gpuDevices}} {
		for _, a := range set.apps {
			for _, d := range set.devs {
				if _, ok := g.Cells[cellKey(a, d)]; !ok {
					t.Errorf("no golden cell %s", cellKey(a, d))
				}
			}
		}
	}
	for _, a := range tuneApps {
		for _, d := range append(append([]string(nil), cpuDevices...), gpuDevices...) {
			if _, ok := g.Tunes[cellKey(a, d)]; !ok {
				t.Errorf("no golden plan search %s", cellKey(a, d))
			}
		}
	}
	for _, a := range allApps {
		if _, ok := g.Frontend[a]; !ok {
			t.Errorf("no golden front-end entry %s", a)
		}
	}
	for _, a := range lightApps {
		if g.Frontend[a].Autotune == nil {
			t.Errorf("no golden autotune verdict for %s", a)
		}
	}
	if g.Oracle == "" {
		t.Error("golden file records no interpreter-oracle digest")
	}
}

// Simulated statistics must not depend on how many host cores run the
// launch: the same cells reproduce the golden file at GOMAXPROCS 1 and at
// the machine's core count.
func TestStatisticsIndependentOfGOMAXPROCS(t *testing.T) {
	g, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, runtime.NumCPU()} {
		runtime.GOMAXPROCS(procs)
		for _, c := range []cell{
			{appsByID([]string{"AMD-MT"})[0], "SNB"},
			{appsByID([]string{"NVD-MT"})[0], "Fermi"},
			{appsByID([]string{"AMD-RG"})[0], "Tahiti"},
		} {
			got, err := goldenCell(newTracer(), c.app, c.dev)
			if err != nil {
				t.Errorf("GOMAXPROCS=%d %s: %v", procs, c.kind(), err)
			} else if want := g.Cells[c.kind()]; digest(got) != digest(want) {
				t.Errorf("GOMAXPROCS=%d %s: statistics %s, want %s", procs, c.kind(), mustJSON(got), mustJSON(want))
			}
		}
	}
}

func TestLaunchStatsDiffNamesTheField(t *testing.T) {
	a := launchStats{TimeMS: 1, Cycles: 10, Caches: []levelStats{{Name: "L1", Hits: 3}}}
	b := a
	if d := a.diff(b); d != "" {
		t.Errorf("equal stats differ: %s", d)
	}
	b.Cycles = 11
	if d := a.diff(b); d != "Cycles = 11, want 10" {
		t.Errorf("diff = %q", d)
	}
}
