// The characterizer's semantics on a kernel whose local-memory behaviour is
// known.
package aiwc_test

import (
	"testing"

	"grover/internal/apps"
	igrover "grover/internal/grover"
	"grover/internal/telemetry/aiwc"
	"grover/internal/vm"
	"grover/opencl"
)

// TestCharacterizerFeatures sanity-checks the vector's semantics on the
// tiled matrix multiply that stages both operands (NVD-MM-AB): the baseline
// tiles through local memory with barriers, the Grover version has neither.
func TestCharacterizerFeatures(t *testing.T) {
	plat := opencl.NewPlatform()
	app, err := apps.ByID("NVD-MM-AB")
	if err != nil {
		t.Fatal(err)
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
