package enginetest_test

import (
	"testing"

	"grover/internal/apps"
	"grover/internal/vm"
	"grover/opencl"
)

// BenchmarkBackends times functional (untraced) launches of three
// representative benchmarks on each engine — the micro view of the
// ledger's engine.* rows (bench/README.md). Run with
//
//	go test -bench BenchmarkBackends -run '^$' ./internal/enginetest/
func BenchmarkBackends(b *testing.B) {
	plat := opencl.NewPlatform()
	for _, id := range []string{"NVD-MT", "AMD-MM", "NVD-NBody"} {
		app, err := apps.ByID(id)
		if err != nil {
			b.Fatal(err)
		}
		ctx := opencl.NewContext(plat.Devices()[0])
		prog, err := ctx.CompileProgram(app.ID, app.Source, app.Defines)
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
		inst, err := app.Setup(ctx, 1)
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
		vargs, err := opencl.VMArgs(inst.Args...)
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
		mem := ctx.Mem()
		initial := append([]byte(nil), mem.Data...)
		for _, backend := range backends {
			cfg := vm.Config{
				GlobalSize: inst.ND.Global,
				LocalSize:  inst.ND.Local,
				Args:       vargs,
				Backend:    backend,
			}
			b.Run(id+"/"+backend, func(b *testing.B) {
				b.SetBytes(int64(inst.Bytes))
				for i := 0; i < b.N; i++ {
					copy(mem.Data[:len(initial)], initial)
					if err := prog.VM().Launch(app.Kernel, cfg, mem, nil); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
