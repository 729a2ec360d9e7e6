// Package enginetest names the execution engines the equivalence,
// property and divergence test matrices compare. Its own tests are the
// engine equivalence suite: every distinct kernel the repo times, run once
// per engine on a set of all six device models.
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
