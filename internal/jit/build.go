package jit

import (
	"bufio"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"plugin"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"grover/internal/bcode"
	"grover/internal/kcache"
)

// moduleTransport is a loaded native module's execution transport:
// exactly one of newRunner (in-process plugin) or worker (subprocess)
// is set.
type moduleTransport struct {
	newRunner func() nativeGroupFn
	worker    *workerProc
}

// modCache deduplicates concurrent native builds of identical generated
// source in-process: groverd's worker pool preparing the same program on
// several goroutines triggers one codegen+build, not N.
var modCache = kcache.New(16)

// buildSeq makes every plugin build's pluginpath unique, so a rebuild
// after artifact corruption loads as a distinct plugin instead of
// colliding with the previously opened one.
var buildSeq atomic.Int64

// resetNativeForTest drops the in-process module cache so tests can
// force a fresh load/build cycle (e.g. after corrupting an artifact).
func resetNativeForTest() {
	modCache = kcache.New(16)
}

// nativeCacheDir is the on-disk artifact cache location.
func nativeCacheDir() string {
	if d := os.Getenv("GROVER_JIT_CACHE"); d != "" {
		return d
	}
	return filepath.Join(os.TempDir(), "grover-jit")
}

// nativeTransport picks the transport: the in-process plugin by
// default, the subprocess worker when the host is race-instrumented
// (a race-built host cannot load a non-race plugin) or when forced via
// GROVER_JIT_TRANSPORT=worker.
func nativeTransport() string {
	if raceEnabled || os.Getenv("GROVER_JIT_TRANSPORT") == "worker" {
		return "worker"
	}
	return "plugin"
}

func jitDebugf(format string, a ...any) {
	if os.Getenv("GROVER_JIT_DEBUG") != "" {
		fmt.Fprintf(os.Stderr, "jit: "+format+"\n", a...)
	}
}

// buildNativeModule generates Go source for the program's eligible
// kernels and loads it through the content-addressed build cache.
// Best-effort: any failure returns nil and execution stays on wgvec.
func buildNativeModule(ctx context.Context, bm *bcode.Machine) *nativeModule {
	src, kernels, ok := genModule(bm)
	if !ok {
		return nil
	}
	transport := nativeTransport()
	key := kcache.Key("grover-jit-native-v1", runtime.Version(), transport, src)
	v, _, err := modCache.Do(key, func() (interface{}, error) {
		return loadOrBuild(ctx, key, transport, src)
	})
	if err != nil {
		jitDebugf("native build unavailable: %v", err)
		return nil
	}
	mt := v.(*moduleTransport)
	nm := &nativeModule{
		kernels:   make(map[string]*nativeKernel, len(kernels)),
		newRunner: mt.newRunner,
		worker:    mt.worker,
	}
	for name, idx := range kernels {
		nm.kernels[name] = &nativeKernel{index: idx, mod: nm}
	}
	return nm
}

// artifactRecord is the DiskStore metadata for one built artifact.
type artifactRecord struct {
	Path      string `json:"path"`
	Transport string `json:"transport"`
	GoVersion string `json:"go_version"`
	BuildMS   int64  `json:"build_ms"`
}

var artifactStoreMu sync.Mutex

// recordArtifact appends build metadata to the cache directory's
// artifact index. Best-effort: the artifact file itself is the source
// of truth.
func recordArtifact(dir, key string, rec artifactRecord) {
	artifactStoreMu.Lock()
	defer artifactStoreMu.Unlock()
	st, err := kcache.OpenDiskStore(filepath.Join(dir, "artifacts.json"), 1, 64)
	if err != nil {
		return
	}
	defer st.Close()
	_ = st.Put(key, rec)
}

// loadOrBuild loads a cached artifact for the key or builds one: write
// the generated source into a temp module, run the Go toolchain, move
// the artifact into the content-addressed cache, and load it through
// the requested transport. A plugin that fails to build or open falls
// back to the subprocess worker before giving up.
func loadOrBuild(ctx context.Context, key, transport, src string) (*moduleTransport, error) {
	dir := nativeCacheDir()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var firstErr error
	if transport == "plugin" {
		mt, err := loadOrBuildOne(ctx, dir, key, "plugin", src)
		if err == nil {
			return mt, nil
		}
		firstErr = err
		jitDebugf("plugin transport failed, trying worker: %v", err)
	}
	mt, err := loadOrBuildOne(ctx, dir, key, "worker", src)
	if err == nil {
		return mt, nil
	}
	if firstErr != nil {
		return nil, fmt.Errorf("%w; worker fallback: %v", firstErr, err)
	}
	return nil, err
}

func loadOrBuildOne(ctx context.Context, dir, key, transport, src string) (*moduleTransport, error) {
	ext := ".so"
	if transport == "worker" {
		ext = ".bin"
	}
	artifact := filepath.Join(dir, key[:24]+ext)

	if _, err := os.Stat(artifact); err == nil {
		mt, err := loadArtifact(artifact, transport)
		if err == nil {
			nativeHits.Add(1)
			return mt, nil
		}
		jitDebugf("cached artifact %s unusable, rebuilding: %v", artifact, err)
	}

	t0 := time.Now()
	if err := buildArtifact(ctx, dir, key, transport, src, artifact); err != nil {
		return nil, err
	}
	d := time.Since(t0)
	nativeBuilds.Add(1)
	observeBuild(d)
	recordArtifact(dir, key+":"+transport, artifactRecord{
		Path:      artifact,
		Transport: transport,
		GoVersion: runtime.Version(),
		BuildMS:   d.Milliseconds(),
	})
	return loadArtifact(artifact, transport)
}

// goLangVersion returns the running toolchain's language version
// ("1.24" from "go1.24.0") for the generated module's go directive —
// the plugin must be built by the same toolchain that loads it, so the
// directive must never exceed what is installed.
func goLangVersion() string {
	v := strings.TrimPrefix(runtime.Version(), "go")
	parts := strings.SplitN(v, ".", 3)
	if len(parts) >= 2 {
		if _, err := strconv.Atoi(parts[0]); err == nil {
			if _, err := strconv.Atoi(parts[1]); err == nil {
				return parts[0] + "." + parts[1]
			}
		}
	}
	return "1.22" // devel toolchains: the repo's own minimum
}

// buildArtifact compiles the generated source with the host toolchain
// and renames the result into place (never overwriting a potentially
// mapped artifact in-place).
func buildArtifact(ctx context.Context, cacheDir, key, transport, src, artifact string) error {
	gobin, err := exec.LookPath("go")
	if err != nil {
		return fmt.Errorf("jit: go toolchain unavailable: %w", err)
	}
	mod, err := os.MkdirTemp("", "grover-jit-build-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(mod)
	// The module path doubles as the pluginpath (go build derives it from
	// the main package's import path, and the symbol names must match it),
	// so it is made unique per build: a rebuild after artifact corruption
	// then loads as a distinct plugin instead of colliding with the
	// already-opened one.
	seq := buildSeq.Add(1)
	modPath := fmt.Sprintf("groverjit/%s/p%d-%d", key[:16], os.Getpid(), seq)
	gomod := fmt.Sprintf("module %s\n\ngo %s\n", modPath, goLangVersion())
	if err := os.WriteFile(filepath.Join(mod, "go.mod"), []byte(gomod), 0o644); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(mod, "main.go"), []byte(src), 0o644); err != nil {
		return err
	}
	if dump := os.Getenv("GROVER_JIT_DUMP"); dump != "" {
		_ = os.WriteFile(filepath.Join(dump, key[:16]+".go"), []byte(src), 0o644)
	}

	out := fmt.Sprintf("%s.tmp%d.%d", artifact, os.Getpid(), seq)
	args := []string{"build"}
	if transport == "plugin" {
		args = append(args, "-buildmode=plugin")
	}
	args = append(args, "-o", out, ".")
	cmd := exec.CommandContext(ctx, gobin, args...)
	cmd.Dir = mod
	cmd.Env = append(os.Environ(), "CGO_ENABLED=1", "GOWORK=off")
	if b, err := cmd.CombinedOutput(); err != nil {
		os.Remove(out)
		msg := string(b)
		if len(msg) > 2000 {
			msg = msg[:2000] + "..."
		}
		return fmt.Errorf("jit: go build (%s) failed: %v\n%s", transport, err, msg)
	}
	return os.Rename(out, artifact)
}

// loadArtifact opens a built artifact through its transport.
func loadArtifact(path, transport string) (*moduleTransport, error) {
	if transport == "worker" {
		w, err := startWorker(path)
		if err != nil {
			return nil, err
		}
		return &moduleTransport{worker: w}, nil
	}
	p, err := plugin.Open(path)
	if err != nil {
		return nil, err
	}
	sym, err := p.Lookup("NewRunner")
	if err != nil {
		return nil, err
	}
	fn, ok := sym.(func() nativeGroupFn)
	if !ok {
		return nil, fmt.Errorf("jit: NewRunner has unexpected type %T", sym)
	}
	return &moduleTransport{newRunner: fn}, nil
}

// workerProc is the subprocess transport: a long-lived worker built
// from the generated source, spoken to over a gob pipe. Launches are
// whole-launch requests, serialized by the mutex (the worker itself is
// single-threaded).
type workerProc struct {
	mu  sync.Mutex
	cmd *exec.Cmd
	bw  *bufio.Writer
	enc *gob.Encoder
	dec *gob.Decoder

	// gone is set, under mu, by the first launch whose pipe to the worker
	// failed. The worker is shared through modCache by every machine built
	// from the same source; all of them run on wgvec from then on.
	gone atomic.Bool
}

// errWorkerGone reports a launch the worker process did not answer. The
// caller's global memory is untouched (the worker computes on its own
// copy), so the launch can run again elsewhere.
var errWorkerGone = errors.New("jit: native worker gone")

// workerReq/workerResp mirror the generated worker's gob frames (gob
// matches by struct field names, so the host-side type names are free).
type workerReq struct {
	Kernel     int
	Gmem       []byte
	LocalBytes int
	PrivBytes  int
	ParamI     []int64
	ParamF     []float64
	Geom       []int64 // gsz0..2, lsz0..2, ngrp0..2
}

type workerResp struct {
	Gmem []byte
	Err  string
}

func startWorker(path string) (*workerProc, error) {
	cmd := exec.Command(path)
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	bw := bufio.NewWriter(stdin)
	return &workerProc{
		cmd: cmd,
		bw:  bw,
		enc: gob.NewEncoder(bw),
		dec: gob.NewDecoder(bufio.NewReader(stdout)),
	}, nil
}

// launch runs one whole kernel launch in the worker and copies the
// worker's view of global memory back into the request's. A kernel error
// comes back as the worker reported it; a failed pipe retires the worker
// and returns errWorkerGone.
func (w *workerProc) launch(req *workerReq) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.gone.Load() {
		return errWorkerGone
	}
	var resp workerResp
	err := w.enc.Encode(req)
	if err == nil {
		err = w.bw.Flush()
	}
	if err == nil {
		err = w.dec.Decode(&resp)
	}
	if err != nil {
		jitDebugf("native worker lost, launches fall back to wgvec: %v", err)
		w.gone.Store(true)
		// Whatever state the process is in, it is not answering: make sure
		// it exits and reap it.
		_ = w.cmd.Process.Kill()
		_ = w.cmd.Wait()
		return errWorkerGone
	}
	if resp.Err != "" {
		return errors.New(resp.Err)
	}
	copy(req.Gmem, resp.Gmem)
	return nil
}
