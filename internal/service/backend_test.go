package service

import (
	"bytes"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"grover/internal/vm"
)

// TestAutotuneBackendOverride: a request cannot pick the engine. The
// field is gone, so "backend" is a 400 naming it, whichever engine it
// names — the one that runs, the other, or one removed in PRs 15 and 16.
func TestAutotuneBackendOverride(t *testing.T) {
	for _, name := range []string{vm.BackendInterp, vm.BackendWgvec, "bcode"} {
		checkFieldsAre400(t, map[string]interface{}{"backend": name})
	}
}

// TestServerDefaultBackend: the server runs the engine, vm.Engine(), and
// reports it on the response, /v1/stats and its counters. Config.Backend
// selects nothing: a name other than the engine's is logged and ignored.
func TestServerDefaultBackend(t *testing.T) {
	engine := vm.Engine()
	other := vm.BackendInterp
	if engine == other {
		other = vm.BackendWgvec
	}
	_, req := nvdMT()
	for _, configured := range []string{"", engine, other, "bogus"} {
		var log bytes.Buffer
		srv := New(Config{Backend: configured, CacheCapacity: 8, Workers: 2,
			Logger: slog.New(slog.NewTextHandler(&log, nil))})
		if srv.Backend() != engine {
			t.Fatalf("Config.Backend %q: Backend() = %q, want %q", configured, srv.Backend(), engine)
		}
		if warned := strings.Contains(log.String(), "ignoring Config.Backend"); warned != (configured == other || configured == "bogus") {
			t.Errorf("Config.Backend %q: logged %q", configured, log.String())
		}
		ts := httptest.NewServer(srv)
		var resp AutotuneResponse
		if code, body := postJSON(t, ts.URL+"/v1/autotune", req, &resp); code != http.StatusOK {
			t.Fatalf("autotune: %d %s", code, body)
		}
		if resp.Backend != engine {
			t.Errorf("Config.Backend %q: response ran on %q, want %q", configured, resp.Backend, engine)
		}
		var stats StatsResponse
		if code := getJSON(t, ts.URL+"/v1/stats", &stats); code != http.StatusOK {
			t.Fatalf("stats: %d", code)
		}
		if stats.Backend != engine {
			t.Errorf("stats backend = %q, want %q", stats.Backend, engine)
		}
		if stats.Backends[engine] != 1 || len(stats.Backends) != 1 {
			t.Errorf("backend counters = %v, want one %s run", stats.Backends, engine)
		}
		ts.Close()
	}
}
