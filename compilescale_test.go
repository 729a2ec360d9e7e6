package grover_test

import (
	"testing"
	"time"

	"grover/opencl"
)

// compileBounds bounds opencl.CompileModule on each of stressKernels.
var compileBounds = map[string]time.Duration{
	"dead-chain-4000":     time.Second,
	"duplicate-expr-4000": time.Second,
	"if-chain-2000":       2 * time.Second,
}

// TestCompileScales: every optimizer pass does work in proportion to the
// function, so each stress kernel compiles in a fraction of its bound. A
// pass that scans the function once per value it replaces or removes, or
// dominator sets kept as one bool per pair of blocks, take seconds on each.
func TestCompileScales(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles three generated kernels of 2,000 to 4,000 statements")
	}
	for _, k := range stressKernels {
		bound, ok := compileBounds[k.name]
		if !ok {
			t.Fatalf("%s: no bound", k.name)
		}
		start := time.Now()
		if _, err := opencl.CompileModule(k.name+".cl", k.src, nil); err != nil {
			t.Fatalf("%s: %v", k.name, err)
		}
		if took := time.Since(start); took > bound {
			t.Errorf("%s: compiled in %v, bound %v", k.name, took.Round(time.Millisecond), bound)
		}
	}
}
