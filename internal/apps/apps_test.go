package apps

import (
	"bytes"
	"testing"

	igrover "grover/internal/grover"
	"grover/opencl"
)

// TestAllAppsOriginalCorrect runs every benchmark's original kernel and
// validates against the host reference, twice.
func TestAllAppsOriginalCorrect(t *testing.T) {
	plat := opencl.NewPlatform()
	dev, err := plat.DeviceByName("SNB")
	if err != nil {
		t.Fatal(err)
	}
	for _, app := range All() {
		app := app
		t.Run(app.ID, func(t *testing.T) {
			ctx := opencl.NewContext(dev)
			prog, err := ctx.CompileProgram(app.ID+".cl", app.Source, app.Defines)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			k, err := prog.Kernel(app.Kernel)
			if err != nil {
				t.Fatal(err)
			}
			inst, err := app.Setup(ctx, 1)
			if err != nil {
				t.Fatal(err)
			}
			q := ctx.NewQueue()
			if _, err := q.EnqueueNDRange(k, inst.ND, inst.Args...); err != nil {
				t.Fatalf("launch: %v", err)
			}
			if err := inst.Check(); err != nil {
				t.Fatalf("reference check: %v", err)
			}
			// A later Check reuses the reference the first one computed, and
			// still reads what the device holds.
			for _, a := range inst.Args {
				if b, ok := a.(*opencl.Buffer); ok {
					b.WriteBytes(bytes.Repeat([]byte{0x7f}, b.Size()))
				}
			}
			if inst.Check() == nil {
				t.Error("Check passes on overwritten output")
			}
		})
	}
}

// TestReferenceOncePerScale: a second Setup at a scale reuses the host
// reference the first instance's Check computed, and its own Check still
// tells a correct result from a corrupted one.
func TestReferenceOncePerScale(t *testing.T) {
	plat := opencl.NewPlatform()
	dev, err := plat.DeviceByName("SNB")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		app *App
		ref string // the name its Setup memoizes the reference under
	}{{AMDMM(), "AMD-MM"}, {NVDMMAB(), "matmul"}, {NVDNBody(), "nbody"}, {PABST(), "stencil"}, {RODSC(), "streamcluster"}} {
		app := tc.app
		t.Run(app.ID, func(t *testing.T) {
			first, err := app.Setup(opencl.NewContext(dev), 1)
			if err != nil {
				t.Fatal(err)
			}
			if first.Check() == nil {
				t.Fatal("Check passes before the kernel ran")
			}
			// The second instance must read the memoized reference: it is
			// swapped for one that counts its reads and cannot recompute.
			key := refKey{tc.ref, 1}
			memo, ok := refs.Load(key)
			if !ok {
				t.Fatalf("no host reference memoized under %v", key)
			}
			want, reads := memo.(func() []float32)(), 0
			refs.Store(key, func() []float32 { reads++; return want })
			defer refs.Store(key, memo)
			ctx := opencl.NewContext(dev)
			prog, err := ctx.CompileProgram(app.ID+".cl", app.Source, app.Defines)
			if err != nil {
				t.Fatal(err)
			}
			k, err := prog.Kernel(app.Kernel)
			if err != nil {
				t.Fatal(err)
			}
			inst, err := app.Setup(ctx, 1)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := ctx.NewQueue().EnqueueNDRange(k, inst.ND, inst.Args...); err != nil {
				t.Fatal(err)
			}
			if err := inst.Check(); err != nil {
				t.Fatal(err)
			}
			if reads == 0 {
				t.Error("the second Check did not read the memoized host reference")
			}
			for _, a := range inst.Args {
				if b, ok := a.(*opencl.Buffer); ok {
					b.WriteBytes(bytes.Repeat([]byte{0x7f}, b.Size()))
				}
			}
			if inst.Check() == nil {
				t.Error("Check passes on corrupted buffers")
			}
		})
	}
}

// TestAllAppsTransformedCorrect is the paper's §VI-A validation: Grover
// must transform every benchmark and the transformed kernel must still
// compute correct results.
func TestAllAppsTransformedCorrect(t *testing.T) {
	plat := opencl.NewPlatform()
	dev, err := plat.DeviceByName("SNB")
	if err != nil {
		t.Fatal(err)
	}
	for _, app := range All() {
		app := app
		t.Run(app.ID, func(t *testing.T) {
			ctx := opencl.NewContext(dev)
			prog, err := ctx.CompileProgram(app.ID+".cl", app.Source, app.Defines)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			noLM, rep, err := prog.WithLocalMemoryDisabled(app.Kernel,
				igrover.Options{Candidates: app.Candidates, Strict: true})
			if err != nil {
				t.Fatalf("transform: %v", err)
			}
			if !rep.Transformed() {
				t.Fatalf("nothing transformed:\n%s", rep)
			}
			k, err := noLM.Kernel(app.Kernel)
			if err != nil {
				t.Fatal(err)
			}
			inst, err := app.Setup(ctx, 1)
			if err != nil {
				t.Fatal(err)
			}
			q := ctx.NewQueue()
			if _, err := q.EnqueueNDRange(k, inst.ND, inst.Args...); err != nil {
				t.Fatalf("launch transformed: %v\nreport:\n%s", err, rep)
			}
			if err := inst.Check(); err != nil {
				t.Fatalf("transformed kernel wrong: %v\nreport:\n%s", err, rep)
			}
		})
	}
}

func TestByID(t *testing.T) {
	for _, id := range []string{"AMD-SS", "NVD-MT", "NVD-MM-AB", "ROD-SC"} {
		if _, err := ByID(id); err != nil {
			t.Errorf("ByID(%s): %v", id, err)
		}
	}
	if _, err := ByID("nope"); err == nil {
		t.Error("ByID should reject unknown ids")
	}
	if len(All()) != 11 {
		t.Errorf("All() = %d apps, want 11 (the paper's benchmark count)", len(All()))
	}
}

// TestScaleFactor checks the dataset scale knob end-to-end on a cheap app.
func TestScaleFactor(t *testing.T) {
	plat := opencl.NewPlatform()
	dev, err := plat.DeviceByName("SNB")
	if err != nil {
		t.Fatal(err)
	}
	app, err := ByID("AMD-SS")
	if err != nil {
		t.Fatal(err)
	}
	ctx := opencl.NewContext(dev)
	prog, err := ctx.CompileProgram(app.ID+".cl", app.Source, app.Defines)
	if err != nil {
		t.Fatal(err)
	}
	k, err := prog.Kernel(app.Kernel)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := app.Setup(ctx, 2)
	if err != nil {
		t.Fatal(err)
	}
	if inst.ND.Global[0] != 2*32768/4 {
		t.Errorf("scaled global size = %d", inst.ND.Global[0])
	}
	q := ctx.NewQueue()
	if _, err := q.EnqueueNDRange(k, inst.ND, inst.Args...); err != nil {
		t.Fatal(err)
	}
	if err := inst.Check(); err != nil {
		t.Fatal(err)
	}
}
