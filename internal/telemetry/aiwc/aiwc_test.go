// Backend-invariance gate for the characterizer: every benchmark app, in
// both its baseline and Grover-transformed form, must produce a
// byte-identical feature vector on the interpreter and on wgvec, and the
// vector must be independent of the launch's worker count.
package aiwc_test

import (
	"encoding/json"
	"errors"
	"testing"

	"grover/internal/apps"
	"grover/internal/enginetest"
	igrover "grover/internal/grover"
	"grover/internal/telemetry/aiwc"
	"grover/internal/vm"
	"grover/opencl"
)

var backends = enginetest.Engines()

func characterize(t *testing.T, p *opencl.Program, kernel string, cfg vm.Config,
	mem *vm.GlobalMem, initial []byte, workers int) []byte {
	t.Helper()
	mem.Data = mem.Data[:len(initial)]
	copy(mem.Data, initial)
	ch := aiwc.New(kernel)
	if err := p.VM().Launch(kernel, cfg, mem, ch.Opts(workers)); err != nil {
		t.Fatalf("traced %s launch: %v", cfg.Backend, err)
	}
	js, err := json.Marshal(ch.Features())
	if err != nil {
		t.Fatalf("marshal features: %v", err)
	}
	return js
}

func TestCharacterizerBackendInvariance(t *testing.T) {
	plat := opencl.NewPlatform()
	allApps := apps.All()
	if testing.Short() {
		allApps = allApps[:4]
	}
	for _, app := range allApps {
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
			default:
				t.Fatalf("grover transform: %v", err)
			}

			mem := ctx.Mem()
			initial := append([]byte(nil), mem.Data...)

			for _, v := range versions {
				cfg := vm.Config{
					GlobalSize: inst.ND.Global,
					LocalSize:  inst.ND.Local,
					Args:       vargs,
				}

				cfg.Backend = vm.BackendInterp
				want := characterize(t, v.p, app.Kernel, cfg, mem, initial, 2)

				// Worker-count invariance on the reference backend.
				if got := characterize(t, v.p, app.Kernel, cfg, mem, initial, 1); string(got) != string(want) {
					t.Errorf("%s: features depend on worker count:\n 2: %s\n 1: %s", v.name, want, got)
				}

				// Backend invariance: byte-identical JSON across all three.
				for _, backend := range backends[1:] {
					cfg.Backend = backend
					if got := characterize(t, v.p, app.Kernel, cfg, mem, initial, 2); string(got) != string(want) {
						t.Errorf("%s: features differ between interp and %s:\n interp: %s\n %s: %s",
							v.name, backend, want, backend, got)
					}
				}
			}
		})
	}
}

// TestCharacterizerFeatures sanity-checks the vector's semantics on the
// matmul app, whose local-memory behaviour is known: the baseline tiles
// through local memory with barriers, the Grover version has neither.
func TestCharacterizerFeatures(t *testing.T) {
	plat := opencl.NewPlatform()
	app, err := apps.ByID("matmul")
	if err != nil {
		t.Skipf("matmul app not registered: %v", err)
	}
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
	cfg := vm.Config{GlobalSize: inst.ND.Global, LocalSize: inst.ND.Local, Args: vargs}

	base, err := aiwc.Characterize(prog.VM(), app.Kernel, cfg, ctx.Mem())
	if err != nil {
		t.Fatalf("characterize base: %v", err)
	}
	if base.LocalLoads == 0 || base.LocalStores == 0 {
		t.Errorf("base matmul reports no local traffic: %+v", base)
	}
	if base.Barriers == 0 {
		t.Error("base matmul reports no barriers")
	}
	if base.GlobalLoads == 0 || base.GlobalStores == 0 {
		t.Error("base matmul reports no global traffic")
	}
	if base.Instructions <= 0 || base.WorkItems <= 0 || base.Groups <= 0 {
		t.Errorf("degenerate counts: %+v", base)
	}
	if base.MinItemInstrs > base.MaxItemInstrs || base.MeanItemInstrs <= 0 {
		t.Errorf("inconsistent per-item spread: %+v", base)
	}
	if base.UniqueLocalAddrs == 0 || base.LocalEntropy <= 0 {
		t.Errorf("base matmul local address stats empty: %+v", base)
	}
	if base.Table() == "" {
		t.Error("empty feature table")
	}

	nolm, _, err := prog.WithLocalMemoryDisabled(app.Kernel, igrover.Options{Candidates: app.Candidates})
	if err != nil {
		t.Fatalf("grover transform: %v", err)
	}
	grover, err := aiwc.Characterize(nolm.VM(), app.Kernel, cfg, ctx.Mem())
	if err != nil {
		t.Fatalf("characterize grover: %v", err)
	}
	if grover.LocalLoads != 0 || grover.LocalStores != 0 {
		t.Errorf("grover matmul still touches local memory: %+v", grover)
	}
	if grover.Barriers != 0 {
		t.Errorf("grover matmul still executes barriers: %d", grover.Barriers)
	}
	if grover.GlobalLoads <= base.GlobalLoads {
		t.Errorf("grover matmul should issue more global loads than base (%d vs %d)",
			grover.GlobalLoads, base.GlobalLoads)
	}
}
