package vm

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestResolveBackendUnknown: a name that is no engine fails listing the
// engines a launch can name.
func TestResolveBackendUnknown(t *testing.T) {
	_, err := (&Program{}).ExecutorCtx(context.Background(), "no-such-backend")
	if err == nil {
		t.Fatal("expected error for unknown backend")
	}
	msg := err.Error()
	if !strings.Contains(msg, `"no-such-backend"`) {
		t.Errorf("error %q does not name the offending backend", msg)
	}
	for _, b := range Backends() {
		if !strings.Contains(msg, b) {
			t.Errorf("error %q does not list backend %q", msg, b)
		}
	}
}

// TestResolveBackendDefaults: this test binary links no compiled engine,
// so a launch that names none runs the interpreter and wgvec is no name a
// launch can give; once an engine is installed (here a stand-in, in
// opencl's tests the real one) it is wgvec.
func TestResolveBackendDefaults(t *testing.T) {
	if got := Engine(); got != BackendInterp {
		t.Fatalf("Engine() = %q with nothing installed, want interp", got)
	}
	if got := fmt.Sprint(Backends()); got != "[interp]" || ValidBackend(BackendWgvec) {
		t.Fatalf("Backends() = %s, ValidBackend(wgvec) = %v with nothing installed", got, ValidBackend(BackendWgvec))
	}
	installForTest(t, func(context.Context, *Program) (Executor, error) { return &stubExecutor{}, nil })
	want := BackendWgvec
	if oracle {
		want = BackendInterp
	}
	if got := Engine(); got != want {
		t.Fatalf("Engine() = %q with an engine installed, want %q", got, want)
	}
	if got := fmt.Sprint(Backends()); got != "[interp wgvec]" || !ValidBackend(BackendWgvec) {
		t.Fatalf("Backends() = %s with an engine installed", got)
	}
}

func TestLaunchUnknownBackendEager(t *testing.T) {
	// An unknown Config.Backend must fail before any kernel lookup or
	// argument checking happens: the error mentions the backend, not a
	// missing kernel.
	p := &Program{}
	err := p.Launch("nope", Config{Backend: "no-such-backend"}, NewGlobalMem(64), nil)
	if err == nil || !strings.Contains(err.Error(), "no-such-backend") {
		t.Fatalf("Launch error = %v, want unknown-backend report", err)
	}
}

// installForTest installs build as the engine for the length of one test.
func installForTest(t *testing.T, build func(context.Context, *Program) (Executor, error)) {
	t.Helper()
	prev := buildEngine
	InstallEngine(build)
	t.Cleanup(func() { buildEngine = prev })
}

type stubExecutor struct{ inner Executor }

func (stubExecutor) NewGroup(*Dispatch, bool) Group { return nil }

// TestExecutorBuildPerName: concurrent first uses of the engine share one
// build, which may itself ask the program for the interpreter's executor,
// and every caller gets the executor that build made.
func TestExecutorBuildPerName(t *testing.T) {
	var builds atomic.Int64
	installForTest(t, func(_ context.Context, p *Program) (Executor, error) {
		builds.Add(1)
		time.Sleep(10 * time.Millisecond) // hold the build open so first uses overlap
		inner, err := p.ExecutorCtx(context.Background(), BackendInterp)
		if err != nil {
			return nil, err
		}
		return &stubExecutor{inner: inner}, nil
	})

	p := &Program{}
	const callers = 8
	got := make([]Executor, callers)
	done := make(chan struct{})
	go func() {
		defer close(done)
		var wg sync.WaitGroup
		for i := range got {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				e, err := p.ExecutorCtx(context.Background(), BackendWgvec)
				if err != nil {
					t.Errorf("ExecutorCtx(wgvec): %v", err)
				}
				got[i] = e
			}(i)
		}
		wg.Wait()
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("deadlock: a build asking for the interpreter's executor never returned")
	}
	if n := builds.Load(); n != 1 {
		t.Fatalf("builds: %d, want one", n)
	}
	for i := 1; i < len(got); i++ {
		if got[i] != got[0] {
			t.Fatalf("caller %d got a different executor than caller 0", i)
		}
	}
	if _, ok := got[0].(*stubExecutor).inner.(interpreter); !ok {
		t.Error("the build did not get the interpreter's executor")
	}
}

// TestExecutorFailedBuildRetries: a failed build reaches every caller
// waiting on it and is not cached.
func TestExecutorFailedBuildRetries(t *testing.T) {
	var builds atomic.Int64
	boom := errors.New("boom")
	installForTest(t, func(context.Context, *Program) (Executor, error) {
		if builds.Add(1) == 1 {
			return nil, boom
		}
		return &stubExecutor{}, nil
	})
	p := &Program{}
	if _, err := p.ExecutorCtx(context.Background(), BackendWgvec); !errors.Is(err, boom) || !strings.Contains(err.Error(), BackendWgvec) {
		t.Fatalf("first build error = %v, want boom wrapped with the backend name", err)
	}
	if e, err := p.ExecutorCtx(context.Background(), BackendWgvec); err != nil || e == nil {
		t.Fatalf("second build = %v, %v; want a fresh attempt to succeed", e, err)
	}
	if builds.Load() != 2 {
		t.Fatalf("builds = %d, want 2", builds.Load())
	}
}
