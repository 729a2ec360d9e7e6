package service

import (
	"net/http"
	"strconv"
	"strings"
	"testing"

	"grover/internal/jit"
)

// TestJITStatsAndMetrics enables native compilation, drives an
// autotune on the jit backend, and checks both observability surfaces:
// the jit row on /v1/stats and the jit series on /metrics, with the
// scrape still a well-formed exposition.
func TestJITStatsAndMetrics(t *testing.T) {
	t.Setenv("GROVER_JIT_CACHE", t.TempDir())
	t.Setenv("GROVER_JIT", "native")

	ts := newTestServer(t)
	_, tuneReq := nvdMT()
	tuneReq.Backend = "jit"

	b0, _ := jit.NativeStats()
	var tune AutotuneResponse
	if code, body := postJSON(t, ts.URL+"/v1/autotune", tuneReq, &tune); code != http.StatusOK {
		t.Fatalf("autotune on jit: %d %s", code, body)
	}
	builds, hits := jit.NativeStats()
	if builds-b0 < 1 {
		t.Fatalf("autotune on the jit backend triggered no native build (builds %d -> %d)", b0, builds)
	}

	// /v1/stats carries the jit row, consistent with the live counters.
	var stats StatsResponse
	if code := getJSON(t, ts.URL+"/v1/stats", &stats); code != http.StatusOK {
		t.Fatalf("stats: %d", code)
	}
	if !stats.JIT.Native {
		t.Error("stats.jit.native = false with native compilation enabled")
	}
	if stats.JIT.Compiles != builds || stats.JIT.CacheHits != hits {
		t.Errorf("stats jit row %+v disagrees with counters builds=%d hits=%d", stats.JIT, builds, hits)
	}
	if stats.Backends["jit"] == 0 {
		t.Errorf("no jit backend runs recorded: %v", stats.Backends)
	}

	// /metrics exposes the same counters plus the build-time histogram,
	// and stays a parseable exposition.
	out := scrape(t, ts.URL)
	validateExposition(t, out)
	for _, want := range []string{
		"groverd_jit_compile_total " + strconv.FormatInt(builds, 10),
		"groverd_jit_cache_hits_total " + strconv.FormatInt(hits, 10),
		"# TYPE groverd_jit_build_seconds histogram",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
	// Every native build observed this server's histogram (the observer
	// was registered before the builds ran).
	if !strings.Contains(out, "groverd_jit_build_seconds_count "+strconv.FormatInt(builds-b0, 10)) {
		t.Errorf("build-time histogram did not observe %d builds:\n%s", builds-b0,
			grepLines(out, "groverd_jit_build_seconds"))
	}
}

// grepLines returns the lines of s containing sub, for failure output.
func grepLines(s, sub string) string {
	var out []string
	for _, l := range strings.Split(s, "\n") {
		if strings.Contains(l, sub) {
			out = append(out, l)
		}
	}
	return strings.Join(out, "\n")
}
