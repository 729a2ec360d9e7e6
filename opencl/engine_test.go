//go:build !oracle

package opencl

import (
	"testing"

	"grover/internal/vm"
)

// TestUnsetBackendRunsOnWgvec: every launch the product makes runs on
// wgvec. Its twin under -tags oracle (oracle_test.go) expects the
// interpreter, so only a tag that really swaps the engine passes both.
func TestUnsetBackendRunsOnWgvec(t *testing.T) {
	if got := ranOn(t); got != vm.BackendWgvec {
		t.Errorf("ran on %q, want %q", got, vm.BackendWgvec)
	}
}
