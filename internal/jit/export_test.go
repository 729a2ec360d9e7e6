package jit

import (
	"sort"

	"grover/internal/vm"
)

// Test-only exports for the external jit_test package.
var (
	ResetNativeForTest = resetNativeForTest
	NativeCacheDirFor  = nativeCacheDir
)

// NativeKernels lists, sorted, the kernels a jit executor runs as native
// code at this moment; empty when every launch goes to wgvec.
func NativeKernels(e vm.Executor) []string {
	nm := e.(*Machine).native
	if nm == nil {
		return nil
	}
	var names []string
	for name := range nm.kernels {
		if nm.kernel(name) != nil {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}

// KillWorker kills a jit executor's native worker subprocess behind the
// transport's back, as a crash or an OOM kill would. It reports whether
// there was a worker to kill.
func KillWorker(e vm.Executor) bool {
	nm := e.(*Machine).native
	if nm == nil || nm.worker == nil {
		return false
	}
	return nm.worker.cmd.Process.Kill() == nil
}
