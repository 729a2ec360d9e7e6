package jit_test

import (
	"os"
	"path/filepath"
	"testing"

	"grover/internal/debug"
	"grover/internal/jit"
	"grover/opencl"
)

// scaleSrc is a minimal one-buffer kernel; the OFF define makes cheap
// source variants whose generated code (and so cache keys) must differ.
const scaleSrc = `
__kernel void scale(__global float* a, int n) {
  int i = get_global_id(0);
  if (i < n) a[i] = a[i] * 2.0f + OFF;
}
`

// runNativeOnce compiles and launches scaleSrc (with the given OFF
// value) on the jit backend with native codegen requested through the
// environment and the artifact cache pointed at dir. It returns the
// result buffer.
func runNativeOnce(t *testing.T, dir, off string) []float32 {
	t.Helper()
	t.Setenv("GROVER_JIT_CACHE", dir)
	t.Setenv("GROVER_JIT", "native")

	plat := opencl.NewPlatform()
	dev, err := plat.DeviceByName("SNB")
	if err != nil {
		t.Fatal(err)
	}
	ctx := opencl.NewContext(dev)
	if err := ctx.SetBackend("jit"); err != nil {
		t.Fatal(err)
	}
	prog, err := ctx.CompileProgram("scale.cl", scaleSrc, map[string]string{"OFF": off})
	if err != nil {
		t.Fatal(err)
	}
	k, err := prog.Kernel("scale")
	if err != nil {
		t.Fatal(err)
	}
	const n = 64
	buf := ctx.NewBuffer(n * 4)
	in := make([]float32, n)
	for i := range in {
		in[i] = float32(i)
	}
	buf.WriteFloat32(in)
	nd := opencl.NDRange{Global: [3]int{n}, Local: [3]int{16}}
	if _, err := ctx.NewQueue().EnqueueNDRange(k, nd, buf, int32(n)); err != nil {
		t.Fatal(err)
	}
	return buf.ReadFloat32(n)
}

func checkScaled(t *testing.T, got []float32, off float32) {
	t.Helper()
	for i, v := range got {
		want := float32(i)*2 + off
		if v != want {
			t.Fatalf("lane %d = %g, want %g", i, v, want)
		}
	}
}

// TestNativeSingleCodegen verifies the compile cache: preparing the same
// kernel twice (two independent contexts) triggers exactly one
// codegen+build; the second prepare reuses the in-process module.
func TestNativeSingleCodegen(t *testing.T) {
	dir := t.TempDir()
	jit.ResetNativeForTest()
	b0, _ := jit.NativeStats()
	checkScaled(t, runNativeOnce(t, dir, "1.0f"), 1)
	b1, _ := jit.NativeStats()
	if b1-b0 != 1 {
		t.Fatalf("first prepare: builds delta = %d, want 1 (native codegen did not run?)", b1-b0)
	}
	checkScaled(t, runNativeOnce(t, dir, "1.0f"), 1)
	b2, h2 := jit.NativeStats()
	if b2 != b1 {
		t.Fatalf("second prepare of the identical kernel rebuilt (builds %d -> %d); singleflight/cache broken", b1, b2)
	}
	_ = h2
}

// TestNativeDistinctPlansDistinctKeys verifies that different kernel
// variants never collide in the content-addressed cache: a second
// variant must build its own artifact, and both must compute their own
// results.
func TestNativeDistinctPlansDistinctKeys(t *testing.T) {
	dir := t.TempDir()
	jit.ResetNativeForTest()
	b0, _ := jit.NativeStats()
	checkScaled(t, runNativeOnce(t, dir, "1.0f"), 1)
	checkScaled(t, runNativeOnce(t, dir, "3.0f"), 3)
	b1, _ := jit.NativeStats()
	if b1-b0 != 2 {
		t.Fatalf("two distinct kernel variants: builds delta = %d, want 2 (cache key collision?)", b1-b0)
	}
	sos, _ := filepath.Glob(filepath.Join(dir, "*.so"))
	bins, _ := filepath.Glob(filepath.Join(dir, "*.bin"))
	if len(sos)+len(bins) < 2 {
		t.Fatalf("expected 2 distinct artifacts in %s, found %d .so + %d .bin", dir, len(sos), len(bins))
	}
}

// TestNativeCorruptArtifactRebuilds verifies the disk cache's recovery
// path: a corrupted cached artifact is rebuilt, not trusted. The test
// pins the subprocess worker transport — the plugin transport dedups
// plugin.Open by file path in-process, so only the worker transport
// actually re-reads the artifact bytes within one process.
func TestNativeCorruptArtifactRebuilds(t *testing.T) {
	t.Setenv("GROVER_JIT_TRANSPORT", "worker")
	dir := t.TempDir()
	jit.ResetNativeForTest()
	checkScaled(t, runNativeOnce(t, dir, "5.0f"), 5)

	arts, _ := filepath.Glob(filepath.Join(dir, "*.so"))
	arts2, _ := filepath.Glob(filepath.Join(dir, "*.bin"))
	arts = append(arts, arts2...)
	if len(arts) == 0 {
		t.Fatal("no artifact produced")
	}
	for _, a := range arts {
		// Unlink before rewriting: the original artifact may still be
		// mapped by the already-loaded plugin, and truncating a mapped
		// file in place faults the process.
		if err := os.Remove(a); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(a, []byte("garbage, not a loadable artifact"), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	// Drop the in-process module cache so the next prepare must go back
	// to disk and discover the corruption.
	jit.ResetNativeForTest()

	b0, _ := jit.NativeStats()
	checkScaled(t, runNativeOnce(t, dir, "5.0f"), 5)
	b1, h1 := jit.NativeStats()
	if b1-b0 < 1 {
		t.Fatalf("corrupted artifact was not rebuilt (builds delta %d)", b1-b0)
	}
	_ = h1
}

// TestNativeDebugVerify runs a native compile+launch with the IR
// verifier forced on: codegen input must be verifier-clean.
func TestNativeDebugVerify(t *testing.T) {
	old := debug.Verify
	debug.Verify = true
	defer func() { debug.Verify = old }()
	jit.ResetNativeForTest()
	checkScaled(t, runNativeOnce(t, t.TempDir(), "7.0f"), 7)
}
