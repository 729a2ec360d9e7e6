package search

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"

	"grover/internal/apps"
	"grover/opencl"
)

// outputBytes is each app's one output buffer, in bytes: every kernel
// stores to that buffer alone, so a search snapshots it and nothing else.
var outputBytes = map[string]int{
	"AMD-SS": 131072,
	"AMD-MT": 65536, "NVD-MT": 65536, "AMD-RG": 65536,
	"AMD-MM": 65536, "NVD-MM-A": 65536, "NVD-MM-B": 65536, "NVD-MM-AB": 65536,
	"NVD-NBody": 16384,
	"PAB-ST":    262144,
	"ROD-SC":    32768,
}

// TestWriteSetIsTheOutputBuffer: each app's base kernel writes exactly its
// output buffer — 901,120 of the 11 arenas' 2,457,856 bytes — and one base
// launch changes no byte outside it.
func TestWriteSetIsTheOutputBuffer(t *testing.T) {
	dev, err := opencl.NewPlatform().DeviceByName("SNB")
	if err != nil {
		t.Fatal(err)
	}
	written, arenas := 0, 0
	for _, app := range apps.All() {
		ctx := opencl.NewContext(dev)
		prog, err := ctx.CompileProgram(app.ID+".cl", app.Source, app.Defines)
		if err != nil {
			t.Fatal(err)
		}
		inst, err := app.Setup(ctx, 1)
		if err != nil {
			t.Fatal(err)
		}
		vargs, err := opencl.VMArgs(inst.Args...)
		if err != nil {
			t.Fatal(err)
		}
		mem := ctx.Mem().Data
		ws := writeSet(prog.Module().Kernel(app.Kernel), vargs, len(mem))
		if len(ws) != 1 || ws[0].end-ws[0].off != outputBytes[app.ID] {
			t.Errorf("%s: write set %v, want one buffer of %d bytes", app.ID, ws, outputBytes[app.ID])
			continue
		}
		written += ws[0].end - ws[0].off
		arenas += len(mem)

		before := append([]byte(nil), mem...)
		k, err := prog.Kernel(app.Kernel)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ctx.NewQueue().EnqueueNDRange(k, inst.ND, inst.Args...); err != nil {
			t.Fatal(err)
		}
		if w := ws[0]; !bytes.Equal(mem[:w.off], before[:w.off]) || !bytes.Equal(mem[w.end:], before[w.end:]) {
			t.Errorf("%s: a base launch changed memory outside %v", app.ID, ws)
		}
	}
	if written != 901120 || arenas != 2457856 {
		t.Errorf("write sets hold %d of %d arena bytes, want 901120 of 2457856", written, arenas)
	}
}

// TestWriteSetWholeArena: a store through a pointer chosen by a select, or
// a call that may store through its arguments, can reach any global byte.
func TestWriteSetWholeArena(t *testing.T) {
	for kernel, src := range map[string]string{
		"sel": `__kernel void sel(__global float* a, __global float* b, int c) {
    __global float* p = c ? a : b;
    p[get_global_id(0)] = 1.0f;
}`,
		"viacall": `void put(__global float* p, int i) { p[i] = 1.0f; }
__kernel void viacall(__global float* a, __global float* b) {
    put(a, get_global_id(0));
}`,
	} {
		mod, err := opencl.CompileModule(kernel+".cl", src, nil)
		if err != nil {
			t.Fatal(err)
		}
		ws := writeSet(mod.Kernel(kernel), nil, 4096)
		if len(ws) != 1 || ws[0] != (region{0, 4096}) {
			t.Errorf("%s: write set %v, want the whole arena", kernel, ws)
		}
	}
}

// TestStrayStoreFailsTheSearch: out[gid+64] past a 64-float buffer lands in
// the next 256-byte-aligned buffer, which the write set does not hold. The
// search fails, naming the plan, instead of letting the next plan start
// from memory the snapshot cannot restore. It runs on the engine, the
// interpreter under -tags oracle.
func TestStrayStoreFailsTheSearch(t *testing.T) {
	const src = `__kernel void stray(__global float* out, __global float* in) {
    int i = get_global_id(0);
    out[i + 64] = in[i] + 1.0f;
}`
	dev, err := opencl.NewPlatform().DeviceByName("SNB")
	if err != nil {
		t.Fatal(err)
	}
	ctx := opencl.NewContext(dev)
	prog, err := ctx.CompileProgram("stray.cl", src, nil)
	if err != nil {
		t.Fatal(err)
	}
	out, in := ctx.NewBuffer(64*4), ctx.NewBuffer(64*4)
	in.WriteFloat32(opencl.Pattern(64, 1))
	_, _, err = Run(context.Background(), []*opencl.Device{dev}, &Spec{
		Prog: prog, Kernel: "stray", Args: []interface{}{out, in},
		ND:    opencl.NDRange{Global: [3]int{64, 1, 1}, Local: [3]int{16, 1, 1}},
		Plans: []string{"base", "hoist-addr"},
	})
	var pe *PlanError
	if !errors.As(err, &pe) || pe.Plan != "base" || !strings.Contains(err.Error(), "timing base") {
		t.Errorf("search error %v, want one naming plan base", err)
	}
}
