// Package enginetest names the execution engines the differential,
// property, divergence and invariance test matrices compare.
package enginetest

import (
	"grover/internal/bcode"
	"grover/internal/jit"
	"grover/internal/vm"
	"grover/internal/wgvec"
)

// Engines returns the engines under comparison, the interpreter — the
// reference — first. jit has a column of its own only when native code
// generation is on (GROVER_JIT=native): without it a jit launch is a call
// to the same wgvec machine the wgvec column already runs, and
// internal/jit's own tests check that identity.
func Engines() []string {
	engines := []string{vm.BackendInterp, bcode.Name, wgvec.Name}
	if jit.NativeEnabled() {
		engines = append(engines, jit.Name)
	}
	return engines
}
