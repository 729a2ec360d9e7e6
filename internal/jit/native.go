package jit

import (
	"os"
	"sync/atomic"
	"time"
)

// nativeModule holds the natively compiled kernels for one program,
// together with the transport that executes them: an in-process plugin
// (per-group calls, zero-copy arenas) or a subprocess worker
// (whole-launch calls over a gob pipe). A nil module (build disabled or
// failed) means every launch runs on wgvec.
type nativeModule struct {
	kernels map[string]*nativeKernel

	// newRunner creates a per-worker group runner when the plugin
	// transport loaded; nil under the subprocess transport.
	newRunner func() nativeGroupFn

	// worker is the subprocess transport; nil under the plugin transport.
	worker *workerProc
}

// nativeGroupFn executes one work-group of kernel `index` inside the
// plugin. The signature uses only builtin types so the host and the
// plugin never exchange package-level types.
type nativeGroupFn = func(kernel int, gmem, local []byte, priv [][]byte,
	paramI []int64, paramF []float64, geom []int64) error

// nativeKernel is one kernel's native entry point: its index in the
// generated module plus the module transport.
type nativeKernel struct {
	index int
	mod   *nativeModule
}

// kernel returns the native entry for a kernel, or nil when wgvec runs
// it: no module, a kernel that was not eligible for native compilation,
// or a subprocess worker that has died.
func (nm *nativeModule) kernel(name string) *nativeKernel {
	if nm == nil || nm.worker != nil && nm.worker.gone.Load() {
		return nil
	}
	return nm.kernels[name]
}

// NativeEnabled reports whether native compilation is requested, via
// GROVER_JIT=native or a programmatic override (see SetNative).
func NativeEnabled() bool {
	if o := nativeOverride.Load(); o != 0 {
		return o > 0
	}
	return os.Getenv("GROVER_JIT") == "native"
}

// nativeOverride: 0 = follow GROVER_JIT, >0 = force on, <0 = force off.
var nativeOverride atomic.Int32

// SetNative overrides the GROVER_JIT environment gate for the rest of
// the process (the CLIs' -jit-native flag). Call before programs are
// prepared. Tests set GROVER_JIT instead: an override has no "follow the
// environment again" value to restore.
func SetNative(on bool) {
	if on {
		nativeOverride.Store(1)
	} else {
		nativeOverride.Store(-1)
	}
}

// Native compile counters, exported for groverd's /metrics endpoint:
// builds counts actual codegen+go-build runs, hits counts artifacts
// served from the content-addressed disk cache (in-process singleflight
// dedups are counted by the module cache itself and reported neither
// way).
var (
	nativeBuilds atomic.Int64
	nativeHits   atomic.Int64

	// buildObserver, when set, observes every native build's wall-clock
	// (groverd's build-time histogram).
	buildObserver atomic.Value // func(time.Duration)
)

// NativeStats returns the process-wide native compile counters.
func NativeStats() (builds, cacheHits int64) {
	return nativeBuilds.Load(), nativeHits.Load()
}

// SetBuildObserver registers a callback observing every native plugin
// build's duration. Used by groverd's metrics histogram.
func SetBuildObserver(f func(time.Duration)) {
	buildObserver.Store(f)
}

func observeBuild(d time.Duration) {
	if f, ok := buildObserver.Load().(func(time.Duration)); ok && f != nil {
		f(d)
	}
}
