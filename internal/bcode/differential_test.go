// Differential gate for the engine built on this lowering (wgvec): every
// benchmark app, in both its baseline and Grover-transformed form, must
// produce bit-identical global memory on the interpreter and on the
// engine, and every device profile must report identical simulated
// counters (which requires both to emit identical memory-trace streams).
package bcode_test

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"grover/internal/apps"
	"grover/internal/device"
	"grover/internal/enginetest"
	igrover "grover/internal/grover"
	"grover/internal/vm"
	"grover/opencl"
)

// backends under comparison; the interpreter is the reference.
var backends = enginetest.Engines()

func TestBackendDifferentialApps(t *testing.T) {
	profiles := device.All()
	if testing.Short() {
		// One profile keeps the race pass fast; the full 6-profile
		// sweep runs in the (un-raced) backends CI job.
		profiles = profiles[:1]
	}
	plat := opencl.NewPlatform()
	for _, app := range apps.All() {
		app := app
		t.Run(app.ID, func(t *testing.T) {
			t.Parallel()
			ctx := opencl.NewContext(plat.Devices()[0])
			prog, err := ctx.CompileProgram(app.ID, app.Source, app.Defines)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			inst, err := app.Setup(ctx, 1)
			if err != nil {
				t.Fatalf("setup: %v", err)
			}
			vargs, err := opencl.VMArgs(inst.Args...)
			if err != nil {
				t.Fatalf("args: %v", err)
			}

			type version struct {
				name string
				p    *opencl.Program
			}
			versions := []version{{"base", prog}}
			nolm, _, err := prog.WithLocalMemoryDisabled(app.Kernel, igrover.Options{Candidates: app.Candidates})
			switch {
			case err == nil:
				versions = append(versions, version{"grover", nolm})
			case errors.Is(err, igrover.ErrNoCandidates):
				// No local staging to disable; the base version still runs.
			default:
				t.Fatalf("grover transform: %v", err)
			}

			mem := ctx.Mem()
			initial := append([]byte(nil), mem.Data...)
			restore := func() {
				mem.Data = mem.Data[:len(initial)]
				copy(mem.Data, initial)
			}

			for _, v := range versions {
				cfg := vm.Config{
					GlobalSize: inst.ND.Global,
					LocalSize:  inst.ND.Local,
					Args:       vargs,
				}

				// Functional runs: the interpreter produces the reference
				// memory image, every compiled backend must match byte for
				// byte and also pass the app's own numeric check.
				cfg.Backend = vm.BackendInterp
				restore()
				if err := v.p.VM().Launch(app.Kernel, cfg, mem, nil); err != nil {
					t.Fatalf("%s: interp launch: %v", v.name, err)
				}
				want := append([]byte(nil), mem.Data...)
				if err := inst.Check(); err != nil {
					t.Fatalf("%s: interp result: %v", v.name, err)
				}

				for _, backend := range backends[1:] {
					cfg.Backend = backend
					restore()
					if err := v.p.VM().Launch(app.Kernel, cfg, mem, nil); err != nil {
						t.Fatalf("%s: %s launch: %v", v.name, backend, err)
					}
					if !bytes.Equal(mem.Data, want) {
						t.Fatalf("%s: global memory differs between interp and %s", v.name, backend)
					}
					if err := inst.Check(); err != nil {
						t.Fatalf("%s: %s result: %v", v.name, backend, err)
					}
				}

				// Simulated runs: identical traces imply identical
				// counters on every device profile.
				for _, prof := range profiles {
					results := make([]device.Result, len(backends))
					for bi, backend := range backends {
						sim, err := device.NewSimulator(prof)
						if err != nil {
							t.Fatalf("%s: simulator %s: %v", v.name, prof.Name, err)
						}
						restore()
						cfg.Backend = backend
						if err := v.p.VM().Launch(app.Kernel, cfg, mem, sim.Opts()); err != nil {
							t.Fatalf("%s on %s via %s: %v", v.name, prof.Name, backend, err)
						}
						if !bytes.Equal(mem.Data, want) {
							t.Fatalf("%s on %s via %s: traced run changed results", v.name, prof.Name, backend)
						}
						results[bi] = sim.Result()
					}
					for bi := 1; bi < len(backends); bi++ {
						if !reflect.DeepEqual(results[0], results[bi]) {
							t.Errorf("%s on %s: device counters differ\n interp: %+v\n %s: %+v",
								v.name, prof.Name, results[0], backends[bi], results[bi])
						}
					}
				}
			}
		})
	}
}
