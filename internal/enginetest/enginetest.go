// Package enginetest names the execution engines the differential,
// property, divergence and invariance test matrices compare.
package enginetest

import (
	"grover/internal/jit"
	"grover/internal/vm"
	"grover/internal/wgvec"
)

// Engines returns the engines under comparison, the interpreter — the
// reference — first. There are two because the repo has two executors:
// the interpreter is the oracle a transformed kernel is validated
// against, wgvec is the engine every traced run is measured on, and each
// matrix checks the second against the first. jit has a column of its
// own only when native code generation is on (GROVER_JIT=native): without
// it a jit launch is a call to the same wgvec machine the wgvec column
// already runs, and internal/jit's own tests check that identity.
func Engines() []string {
	engines := []string{vm.BackendInterp, wgvec.Name}
	if jit.NativeEnabled() {
		engines = append(engines, jit.Name)
	}
	return engines
}
