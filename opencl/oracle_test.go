//go:build oracle

package opencl

import (
	"testing"

	"grover/internal/vm"
)

// TestOracleRunsOnInterp: built with -tags oracle, every launch runs on
// the interpreter. It is the twin of TestUnsetBackendRunsOnWgvec, which
// expects wgvec without the tag: a tag that changed nothing would fail
// here, so the oracle step cannot pass on the engine it means to check.
func TestOracleRunsOnInterp(t *testing.T) {
	if got := ranOn(t); got != vm.BackendInterp {
		t.Errorf("ran on %q under -tags oracle, want %q", got, vm.BackendInterp)
	}
}
