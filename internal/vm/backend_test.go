package vm

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func mustPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("expected panic containing %q, got none", want)
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, want) {
			t.Fatalf("panic = %v, want substring %q", r, want)
		}
	}()
	f()
}

func TestRegisterBackendDuplicatePanics(t *testing.T) {
	build := func(context.Context, *Program) (Executor, error) { return nil, nil }
	registerForTest(t, "backend-test-dup", build)
	mustPanic(t, `duplicate backend "backend-test-dup"`, func() {
		RegisterBackend("backend-test-dup", build)
	})
}

func TestRegisterBackendInterpPanics(t *testing.T) {
	mustPanic(t, "cannot replace the interpreter backend", func() {
		RegisterBackend(BackendInterp, nil)
	})
}

func TestResolveBackendUnknown(t *testing.T) {
	_, err := ResolveBackend("no-such-backend")
	if err == nil {
		t.Fatal("expected error for unknown backend")
	}
	msg := err.Error()
	if !strings.Contains(msg, `"no-such-backend"`) {
		t.Errorf("error %q does not name the offending backend", msg)
	}
	// The error must list every registered backend so the user can fix
	// the name without consulting the source.
	for _, b := range Backends() {
		if !strings.Contains(msg, b) {
			t.Errorf("error %q does not list registered backend %q", msg, b)
		}
	}
}

func TestResolveBackendEnvValidation(t *testing.T) {
	t.Setenv(EnvBackend, "garbage-backend")
	_, err := ResolveBackend("")
	if err == nil {
		t.Fatal("expected error for invalid GROVER_BACKEND")
	}
	if !strings.Contains(err.Error(), EnvBackend) || !strings.Contains(err.Error(), "garbage-backend") {
		t.Errorf("error %q should blame %s=garbage-backend", err, EnvBackend)
	}
}

// TestResolveBackendDefaults: this test binary links no compiled engine,
// so an unset knob means the interpreter; once wgvec registers (here a
// stand-in under its name, in opencl's tests the real one) it means wgvec.
func TestResolveBackendDefaults(t *testing.T) {
	t.Setenv(EnvBackend, "")
	name, err := ResolveBackend("")
	if err != nil || name != BackendInterp {
		t.Fatalf("ResolveBackend(\"\") = %q, %v; want interp, nil", name, err)
	}
	if name, err := ResolveBackend(BackendInterp); err != nil || name != BackendInterp {
		t.Fatalf("ResolveBackend(interp) = %q, %v", name, err)
	}
	registerForTest(t, BackendWgvec, func(context.Context, *Program) (Executor, error) { return nil, nil })
	if name, err := ResolveBackend(""); err != nil || name != BackendWgvec {
		t.Fatalf("ResolveBackend(\"\") with wgvec registered = %q, %v; want wgvec, nil", name, err)
	}
	t.Setenv(EnvBackend, BackendInterp)
	if name, err := ResolveBackend(""); err != nil || name != BackendInterp {
		t.Fatalf("ResolveBackend(\"\") under %s=interp = %q, %v", EnvBackend, name, err)
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

// registerForTest registers a backend for the length of one test.
func registerForTest(t *testing.T, name string, build func(context.Context, *Program) (Executor, error)) {
	t.Helper()
	RegisterBackend(name, build)
	t.Cleanup(func() {
		backendsMu.Lock()
		delete(backendBuilders, name)
		backendsMu.Unlock()
	})
}

type stubExecutor struct{ inner Executor }

func (stubExecutor) NewGroup(*Dispatch, bool) Group { return nil }

// TestExecutorBuildPerName: a backend's builder may ask the same program
// for another backend's executor without deadlocking, and concurrent
// first uses of a name share one build.
func TestExecutorBuildPerName(t *testing.T) {
	var innerBuilds, outerBuilds atomic.Int64
	registerForTest(t, "backend-test-inner", func(context.Context, *Program) (Executor, error) {
		innerBuilds.Add(1)
		time.Sleep(10 * time.Millisecond) // hold the build open so first uses overlap
		return &stubExecutor{}, nil
	})
	registerForTest(t, "backend-test-outer", func(_ context.Context, p *Program) (Executor, error) {
		outerBuilds.Add(1)
		inner, err := p.Executor("backend-test-inner")
		if err != nil {
			return nil, err
		}
		return &stubExecutor{inner: inner}, nil
	})

	p := &Program{}
	const callers = 8
	got := make([]Executor, 2*callers)
	done := make(chan struct{})
	go func() {
		defer close(done)
		var wg sync.WaitGroup
		for i := range got {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				name := "backend-test-outer"
				if i%2 == 1 {
					name = "backend-test-inner"
				}
				e, err := p.Executor(name)
				if err != nil {
					t.Errorf("Executor(%s): %v", name, err)
				}
				got[i] = e
			}(i)
		}
		wg.Wait()
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("deadlock: a builder asking for another backend's executor never returned")
	}
	if i, o := innerBuilds.Load(), outerBuilds.Load(); i != 1 || o != 1 {
		t.Fatalf("builds: inner %d, outer %d; want one each", i, o)
	}
	for i := 2; i < len(got); i++ {
		if got[i] != got[i%2] {
			t.Fatalf("caller %d got a different executor than caller %d", i, i%2)
		}
	}
	if got[0].(*stubExecutor).inner != got[1] {
		t.Error("the outer builder saw a different inner executor than direct callers")
	}
}

// TestExecutorFailedBuildRetries: a failed build reaches every caller
// waiting on it and is not cached.
func TestExecutorFailedBuildRetries(t *testing.T) {
	var builds atomic.Int64
	boom := errors.New("boom")
	registerForTest(t, "backend-test-flaky", func(context.Context, *Program) (Executor, error) {
		if builds.Add(1) == 1 {
			return nil, boom
		}
		return &stubExecutor{}, nil
	})
	p := &Program{}
	if _, err := p.Executor("backend-test-flaky"); !errors.Is(err, boom) || !strings.Contains(err.Error(), "backend-test-flaky") {
		t.Fatalf("first build error = %v, want boom wrapped with the backend name", err)
	}
	if e, err := p.Executor("backend-test-flaky"); err != nil || e == nil {
		t.Fatalf("second build = %v, %v; want a fresh attempt to succeed", e, err)
	}
	if builds.Load() != 2 {
		t.Fatalf("builds = %d, want 2", builds.Load())
	}
}
