package service

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"grover/internal/vm"
	"grover/internal/wgvec"
)

// TestAutotuneBackendOverride runs an autotune request on the oracle and
// on the engine and checks the verdicts match (the VM contract makes
// simulated timings backend-invariant), that per-backend counters
// surface on /v1/stats, and that unknown names — a made-up one and the
// names of the two removed engines — are rejected with the list of what
// is available.
func TestAutotuneBackendOverride(t *testing.T) {
	ts := httptest.NewServer(New(Config{CacheCapacity: 64, Workers: 4}))
	defer ts.Close()

	_, req := nvdMT()

	var interp, wv AutotuneResponse
	req.Backend = vm.BackendInterp
	if code, body := postJSON(t, ts.URL+"/v1/autotune", req, &interp); code != http.StatusOK {
		t.Fatalf("interp autotune: %d %s", code, body)
	}
	req.Backend = wgvec.Name
	if code, body := postJSON(t, ts.URL+"/v1/autotune", req, &wv); code != http.StatusOK {
		t.Fatalf("wgvec autotune: %d %s", code, body)
	}
	if wv.Backend != wgvec.Name || interp.Backend != vm.BackendInterp {
		t.Fatalf("echoed backends: interp=%q wgvec=%q", interp.Backend, wv.Backend)
	}
	if len(interp.Results) != 1 || len(wv.Results) != 1 {
		t.Fatalf("want 1 result each, got %d and %d", len(interp.Results), len(wv.Results))
	}
	ri, rw := interp.Results[0], wv.Results[0]
	if ri.OriginalMS != rw.OriginalMS || ri.TransformedMS != rw.TransformedMS ||
		ri.UseTransformed != rw.UseTransformed {
		t.Errorf("verdicts differ across backends:\n interp: %+v\n wgvec:  %+v", ri, rw)
	}

	var stats StatsResponse
	if code := getJSON(t, ts.URL+"/v1/stats", &stats); code != http.StatusOK {
		t.Fatalf("stats: %d", code)
	}
	if stats.Backends[vm.BackendInterp] != 1 || stats.Backends[wgvec.Name] != 1 {
		t.Errorf("backend counters = %v, want 1 run each", stats.Backends)
	}

	for _, name := range []string{"nope", "bcode", "jit"} {
		req.Backend = name
		code, body := postJSON(t, ts.URL+"/v1/autotune", req, nil)
		if code != http.StatusBadRequest || !strings.Contains(body, "unknown backend") ||
			!strings.Contains(body, "interp, wgvec") {
			t.Errorf("backend %q: got %d %s, want a 400 listing interp, wgvec", name, code, body)
		}
	}
}

// TestServerDefaultBackend checks the default is wgvec when nothing is
// configured, that a configured default is applied and reported, that
// unknown config values fall back to the VM default, and that a bad
// GROVER_BACKEND never reaches a request.
func TestServerDefaultBackend(t *testing.T) {
	t.Setenv(vm.EnvBackend, "")
	if got := vm.DefaultBackend(); got != wgvec.Name {
		t.Fatalf("vm.DefaultBackend() = %q with opencl linked, want %q", got, wgvec.Name)
	}
	if s := New(Config{}); s.Backend() != wgvec.Name {
		t.Fatalf("New(Config{}).Backend() = %q, want %q", s.Backend(), wgvec.Name)
	}
	if s := New(Config{Backend: "bogus"}); s.Backend() != wgvec.Name {
		t.Fatalf("bogus backend config: got %q, want %q", s.Backend(), wgvec.Name)
	}
	if s := New(Config{Backend: vm.BackendInterp}); s.Backend() != vm.BackendInterp {
		t.Fatalf("Backend() = %q, want %q", s.Backend(), vm.BackendInterp)
	}

	_, req := nvdMT()
	for configured, want := range map[string]string{"": wgvec.Name, vm.BackendInterp: vm.BackendInterp} {
		ts := httptest.NewServer(New(Config{Backend: configured, CacheCapacity: 8, Workers: 2}))
		var resp AutotuneResponse
		if code, body := postJSON(t, ts.URL+"/v1/autotune", req, &resp); code != http.StatusOK {
			t.Fatalf("autotune: %d %s", code, body)
		}
		if resp.Backend != want {
			t.Errorf("default backend not applied: got %q, want %q", resp.Backend, want)
		}
		var stats StatsResponse
		if code := getJSON(t, ts.URL+"/v1/stats", &stats); code != http.StatusOK {
			t.Fatalf("stats: %d", code)
		}
		if stats.Backend != want {
			t.Errorf("stats default backend = %q, want %q", stats.Backend, want)
		}
		if stats.Backends[want] != 1 || len(stats.Backends) != 1 {
			t.Errorf("backend counters = %v, want one %s run", stats.Backends, want)
		}
		ts.Close()
	}

	// The environment is resolved when the server is built: the removed
	// engine's name (this repo's CI setting until PR 15) is not stored.
	t.Setenv(vm.EnvBackend, "bcode")
	if s := New(Config{}); !vm.ValidBackend(s.Backend()) {
		t.Fatalf("GROVER_BACKEND=bcode: server stored %q", s.Backend())
	}
	t.Setenv(vm.EnvBackend, vm.BackendInterp)
	if s := New(Config{}); s.Backend() != vm.BackendInterp {
		t.Fatalf("GROVER_BACKEND=interp: Backend() = %q", s.Backend())
	}
}
