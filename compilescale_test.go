package grover_test

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"grover/opencl"
)

// TestCompileScales: every optimizer pass does work in proportion to the
// function. Each generated kernel compiles at n/2 and at n statements, and
// the larger may take less than three times as long as the smaller:
// linear work gives about 2, and a pass that scans the function once per
// value it replaces or removes, or dominator sets kept as one bool per
// pair of blocks, about 4. A ratio holds where a wall-clock bound does
// not: tests sharing the CPUs slow both sides alike, as long as the two
// sizes are timed in turn and each keeps its best of five.
func TestCompileScales(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles three generated kernels of 1,000 to 4,000 statements")
	}
	for _, k := range []struct {
		name string
		gen  func(int) string
		n    int
	}{
		{"dead-chain", deadChainSource, 4000},
		{"duplicate-expr", duplicateExprSource, 4000},
		{"if-chain", ifChainSource, 2000},
	} {
		srcs := []string{k.gen(k.n / 2), k.gen(k.n)}
		best := []time.Duration{1<<63 - 1, 1<<63 - 1}
		for i := 0; i < 2*5; i++ {
			runtime.GC()
			start := time.Now()
			if _, err := opencl.CompileModule(k.name+".cl", srcs[i%2], nil); err != nil {
				t.Fatalf("%s: %v", k.name, err)
			}
			best[i%2] = min(best[i%2], time.Since(start))
		}
		half, full := best[0], best[1]
		ratio := float64(full) / float64(half)
		msg := fmt.Sprintf("%s: %d statements compiled in %v, %d in %v: %.2f times as long",
			k.name, k.n/2, half.Round(time.Millisecond), k.n, full.Round(time.Millisecond), ratio)
		if ratio >= 3 {
			t.Error(msg + ", want below 3")
		} else {
			t.Log(msg)
		}
	}
}
