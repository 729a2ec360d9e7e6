// Package enginetest names the execution engines the differential,
// property, divergence and invariance test matrices compare.
package enginetest

import (
	"grover/internal/vm"
	"grover/internal/wgvec"
)

// Engines returns the engines under comparison, the interpreter — the
// reference — first. There are two because the repo has two executors:
// the interpreter is the oracle a transformed kernel is validated
// against, wgvec is the engine every traced run is measured on, and each
// matrix checks the second against the first.
func Engines() []string {
	return []string{vm.BackendInterp, wgvec.Name}
}
