package main

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"grover/internal/apps"
	"grover/internal/vm"
	"grover/opencl"
)

// Every one of the 11 apps must be expressible as wire arg specs, and the
// specs must rebuild arguments of the same kinds and sizes as the app's own.
func TestArgSpecsFromEveryApp(t *testing.T) {
	all := apps.All()
	if len(all) != len(allApps) {
		t.Fatalf("%d apps registered, the benchmark lists %d", len(all), len(allApps))
	}
	for _, app := range all {
		ctx := opencl.NewContext(opencl.NewPlatform().Devices()[0])
		inst, err := app.Setup(ctx, 1)
		if err != nil {
			t.Fatalf("%s: %v", app.ID, err)
		}
		specs, err := argSpecs(inst.Args)
		if err != nil {
			t.Errorf("%s: %v", app.ID, err)
			continue
		}
		want, err := opencl.VMArgs(inst.Args...)
		if err != nil {
			t.Fatalf("%s: %v", app.ID, err)
		}
		got, err := buildArgs(opencl.NewContext(opencl.NewPlatform().Devices()[0]), specs)
		if err != nil {
			t.Errorf("%s: rebuilding: %v", app.ID, err)
			continue
		}
		for i := range want {
			w, g := want[i], got[i]
			if w.Kind != g.Kind || w.I != g.I || w.F != g.F || w.LocalBytes != g.LocalBytes {
				t.Errorf("%s arg %d: rebuilt %+v, want %+v", app.ID, i, g, w)
			}
			if w.Kind == vm.ArgBuffer && w.Buf.Size != g.Buf.Size {
				t.Errorf("%s arg %d: buffer of %d bytes, want %d", app.ID, i, g.Buf.Size, w.Buf.Size)
			}
		}
	}
}

func TestArgSpecsRejectUnknownType(t *testing.T) {
	if _, err := argSpecs([]interface{}{int32(1), struct{}{}}); err == nil {
		t.Error("an argument with no wire form must be an error")
	}
}

// The same seed gives the same request list, byte for byte; another seed
// gives the same multiset in another order with other cache-busting values.
func TestRequestListIsSeeded(t *testing.T) {
	w := &frontendWorkload{apps: allApps, scale: 1}
	var err error
	if w.specs, err = specsFor(allApps); err != nil {
		t.Fatal(err)
	}
	a := w.requests(rand.New(rand.NewSource(7)))
	b := w.requests(rand.New(rand.NewSource(7)))
	c := w.requests(rand.New(rand.NewSource(8)))
	perUnit := 0
	for _, m := range frontendMix {
		perUnit += 2 * m.n * len(allApps)
	}
	perUnit += autotuneHits * len(lightApps)
	if len(a) != perUnit {
		t.Fatalf("%d requests at scale 1, want %d", len(a), perUnit)
	}
	sameOrder := true
	for i := range a {
		if a[i].kind != b[i].kind || !bytes.Equal(a[i].body, b[i].body) {
			t.Fatalf("request %d differs between two lists of one seed", i)
		}
		sameOrder = sameOrder && a[i].kind == c[i].kind
	}
	if sameOrder {
		t.Error("another seed gave the same order")
	}
	count := func(rs []feRequest) map[string]int {
		m := map[string]int{}
		for _, r := range rs {
			m[r.kind]++
		}
		return m
	}
	if !reflect.DeepEqual(count(a), count(c)) {
		t.Error("two seeds gave different request mixes")
	}
	cold, autotune := 0, 0
	for _, r := range a {
		_, _, temp := splitKind(r.kind)
		if temp == "cold" {
			cold++
		}
		if r.endpoint == "autotune" {
			autotune++
		}
	}
	if share := float64(autotune) / float64(len(a)); share < 0.19 || share > 0.21 {
		t.Errorf("autotune hits are %.3f of the mix, want about 0.20", share)
	}
	if cold*2 != len(a)-autotune {
		t.Errorf("%d cold of %d non-autotune requests, want half", cold, len(a)-autotune)
	}
}

func TestSweepOrderIsSeeded(t *testing.T) {
	cells := newSweep(nil, allApps, cpuDevices, false).cells
	if len(cells) != 33 {
		t.Fatalf("sweep-cpu has %d cells, want 33", len(cells))
	}
	order := func(seed int64) []string {
		var out []string
		for _, c := range shuffled(rand.New(rand.NewSource(seed)), cells) {
			out = append(out, c.kind())
		}
		return out
	}
	if !reflect.DeepEqual(order(3), order(3)) {
		t.Error("one seed gave two orders")
	}
	if reflect.DeepEqual(order(3), order(4)) {
		t.Error("two seeds gave one order")
	}
	if n := len(newSweep(nil, gpuApps, gpuDevices, false).cells); n != 27 {
		t.Errorf("sweep-gpu has %d cells, want 27", n)
	}
}
