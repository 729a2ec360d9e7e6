package service

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// scrape fetches /metrics and returns the exposition text.
func scrape(t *testing.T, url string) string {
	t.Helper()
	r, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %d", r.StatusCode)
	}
	if ct := r.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("metrics content-type = %q", ct)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(r.Body); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// validateExposition asserts every line of a scrape is a well-formed
// comment or sample and every sample belongs to a declared family — the
// format contract a real Prometheus scraper depends on.
func validateExposition(t *testing.T, out string) {
	t.Helper()
	sample := regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^{}]*\})? (NaN|[-+]?Inf|[-+]?[0-9.eE+-]+)$`)
	declared := map[string]string{}
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			parts := strings.SplitN(line, " ", 4)
			if len(parts) < 4 {
				t.Errorf("malformed comment: %q", line)
				continue
			}
			if parts[1] == "TYPE" {
				declared[parts[2]] = parts[3]
			}
			continue
		}
		m := sample.FindStringSubmatch(line)
		if m == nil {
			t.Errorf("malformed sample line: %q", line)
			continue
		}
		base := m[1]
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			trimmed := strings.TrimSuffix(m[1], suffix)
			if trimmed != m[1] && declared[trimmed] == "histogram" {
				base = trimmed
			}
		}
		if _, ok := declared[base]; !ok {
			t.Errorf("sample %q has no TYPE declaration", m[1])
		}
		if _, err := strconv.ParseFloat(strings.Replace(m[3], "+Inf", "Inf", 1), 64); err != nil {
			t.Errorf("unparseable value in %q", line)
		}
	}
}

// samples parses a scrape into sample name (with its label set) → value.
func samples(t *testing.T, out string) map[string]float64 {
	t.Helper()
	m := map[string]float64{}
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(strings.Replace(line[i+1:], "+Inf", "Inf", 1), 64)
		if i < 0 || err != nil {
			t.Fatalf("unparseable sample %q", line)
		}
		m[line[:i]] = v
	}
	return m
}

// checkStatsMatchScrape re-derives every per-endpoint number of /v1/stats
// from a scrape taken right after it: the two are views of one set of
// series, so they must agree exactly, in both directions.
func checkStatsMatchScrape(t *testing.T, url string) {
	t.Helper()
	var stats StatsResponse
	if code := getJSON(t, url+"/v1/stats", &stats); code != http.StatusOK {
		t.Fatalf("stats: %d", code)
	}
	m := samples(t, scrape(t, url))
	for name, st := range stats.Endpoints {
		sample := func(series, labels string) float64 {
			return m[fmt.Sprintf("%s{endpoint=%q%s}", series, name, labels)]
		}
		got := EndpointStats{Requests: st.Requests, Errors: st.Errors, CacheHits: st.CacheHits,
			CacheMisses: st.CacheMisses, CacheDedups: st.CacheDedups, TotalMS: st.TotalMS}
		want := EndpointStats{
			Requests:    int64(sample("groverd_request_duration_seconds_count", "")),
			Errors:      int64(sample("groverd_request_errors_total", "")),
			CacheHits:   int64(sample("groverd_cache_outcomes_total", `,outcome="hit"`)),
			CacheMisses: int64(sample("groverd_cache_outcomes_total", `,outcome="miss"`)),
			CacheDedups: int64(sample("groverd_cache_outcomes_total", `,outcome="dedup"`)),
			TotalMS:     sample("groverd_request_duration_seconds_sum", "") * 1000,
		}
		if name == "stats" {
			// The stats request itself is tallied between the two reads.
			got.Requests++
			got.TotalMS = want.TotalMS
		}
		if got != want || float64(want.Requests) != sample("groverd_requests_total", "") {
			t.Errorf("%s: /v1/stats has %+v; the scrape %+v and groverd_requests_total %g",
				name, got, want, sample("groverd_requests_total", ""))
		}
	}
	for key, v := range m {
		name, ok := strings.CutPrefix(key, `groverd_requests_total{endpoint="`)
		if _, listed := stats.Endpoints[strings.TrimSuffix(name, `"}`)]; ok && v > 0 && !listed {
			t.Errorf("the scrape has %s = %g, /v1/stats no such row", key, v)
		}
	}
}

// TestMetricsEndpoint drives real traffic and scrapes /metrics, checking
// the exposition parses line-by-line and the advertised series exist
// with plausible values.
func TestMetricsEndpoint(t *testing.T) {
	ts := newTestServer(t)
	source, tuneReq := nvdMT()

	var comp CompileResponse
	if code, body := postJSON(t, ts.URL+"/v1/compile",
		CompileRequest{Source: source}, &comp); code != http.StatusOK {
		t.Fatalf("compile: %d %s", code, body)
	}
	postJSON(t, ts.URL+"/v1/compile", CompileRequest{Source: source}, &comp)
	var tune AutotuneResponse
	if code, body := postJSON(t, ts.URL+"/v1/autotune", tuneReq, &tune); code != http.StatusOK {
		t.Fatalf("autotune: %d %s", code, body)
	}
	// A failing request must count as an error.
	postJSON(t, ts.URL+"/v1/compile", CompileRequest{Source: "__kernel broken("}, nil)

	out := scrape(t, ts.URL)
	validateExposition(t, out)

	for _, want := range []string{
		`groverd_requests_total{endpoint="compile"} 3`,
		`groverd_requests_total{endpoint="autotune"} 1`,
		`groverd_request_errors_total{endpoint="compile"} 1`,
		`groverd_cache_outcomes_total{endpoint="compile",outcome="hit"} 1`,
		// two misses: the first real compile plus the broken one (cache
		// misses are recorded before the compile fails)
		`groverd_cache_outcomes_total{endpoint="compile",outcome="miss"} 2`,
		"groverd_pool_workers 4",
		"groverd_backend_runs_total{backend=",
		`groverd_request_duration_seconds_count{endpoint="autotune"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
	// The predictor and its feature store left with their series.
	for _, family := range []string{"predict", "store"} {
		if gone := "groverd_" + family + "_"; strings.Contains(out, gone) {
			t.Errorf("scrape still has a %s* series", gone)
		}
	}
	// Sampled cache counters agree with /v1/stats.
	var stats StatsResponse
	if code := getJSON(t, ts.URL+"/v1/stats", &stats); code != http.StatusOK {
		t.Fatalf("stats: %d", code)
	}
	wantHits := "groverd_cache_hits_total " + strconv.FormatInt(stats.Cache.Hits, 10)
	if !strings.Contains(out, wantHits) {
		t.Errorf("scrape missing %q (cache stats: %+v)", wantHits, stats.Cache)
	}

	// Concurrent clients on the same series — hits, dedups, misses of their
	// own, failures, an unrouted path — and then /v1/stats must be what a
	// scrape says, number for number.
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			postJSON(t, ts.URL+"/v1/compile", CompileRequest{Source: source}, nil)
			postJSON(t, ts.URL+"/v1/compile", CompileRequest{Source: source,
				Defines: map[string]string{"CLIENT": strconv.Itoa(i % 4)}}, nil)
			postJSON(t, ts.URL+"/v1/compile", CompileRequest{Source: "__kernel broken("}, nil)
			postJSON(t, ts.URL+"/v1/autotune", tuneReq, nil)
			postJSON(t, ts.URL+"/v1/nowhere", struct{}{}, nil)
		}(i)
	}
	wg.Wait()
	checkStatsMatchScrape(t, ts.URL)
}

// TestUnroutedPathsAreOneEndpoint: a client decides which paths it asks
// for, so they must not decide how much the daemon remembers. Every path the
// mux does not route is tallied under the endpoint "other".
func TestUnroutedPathsAreOneEndpoint(t *testing.T) {
	ts := newTestServer(t)
	read := func() (StatsResponse, string) {
		var stats StatsResponse
		if code := getJSON(t, ts.URL+"/v1/stats", &stats); code != http.StatusOK {
			t.Fatalf("stats: %d", code)
		}
		return stats, scrape(t, ts.URL)
	}
	read() // so that both reads have their own rows from here on
	before, scrapeBefore := read()

	const paths = 500
	for i := 0; i < paths; i++ {
		r, err := http.Get(fmt.Sprintf("%s/v1/x%d", ts.URL, i))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, r.Body)
		r.Body.Close()
		if r.StatusCode != http.StatusNotFound || len(r.Header.Get("X-Request-ID")) != 16 {
			t.Fatalf("GET /v1/x%d: status %d, request id %q", i, r.StatusCode, r.Header.Get("X-Request-ID"))
		}
	}

	after, scrapeAfter := read()
	if len(after.Endpoints) != len(before.Endpoints)+1 {
		t.Errorf("%d endpoint rows before, %d after %d unrouted paths: want one more", len(before.Endpoints), len(after.Endpoints), paths)
	}
	if o := after.Endpoints[otherEndpoint]; o.Requests != paths || o.Errors != paths || o.MaxMS <= 0 {
		t.Errorf("endpoint %q = %+v, want %d requests, all errors", otherEndpoint, o, paths)
	}
	// The scrape may grow by the one endpoint's series, not by a set per path.
	one := strings.Count(scrapeAfter, fmt.Sprintf("endpoint=%q", otherEndpoint))
	grown := strings.Count(scrapeAfter, "\n") - strings.Count(scrapeBefore, "\n")
	if one == 0 || grown > one {
		t.Errorf("/metrics grew by %d lines; endpoint %q has %d", grown, otherEndpoint, one)
	}
	validateExposition(t, scrapeAfter)
}

// TestRequestIDAndStatsQuantiles checks X-Request-ID propagation (echoed
// when supplied, generated otherwise) and the histogram-backed latency
// quantiles on /v1/stats.
func TestRequestIDAndStatsQuantiles(t *testing.T) {
	ts := newTestServer(t)
	source, _ := nvdMT()

	req, err := http.NewRequest("POST", ts.URL+"/v1/compile",
		strings.NewReader(`{"source":`+strconv.Quote(source)+`}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-ID", "test-req-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != "test-req-42" {
		t.Errorf("request id not echoed: %q", got)
	}

	resp2, err := http.Get(ts.URL + "/v1/devices")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if got := resp2.Header.Get("X-Request-ID"); len(got) != 16 {
		t.Errorf("generated request id = %q, want 16 hex chars", got)
	}

	var stats StatsResponse
	if code := getJSON(t, ts.URL+"/v1/stats", &stats); code != http.StatusOK {
		t.Fatalf("stats: %d", code)
	}
	ep := stats.Endpoints["compile"]
	if ep.Requests != 1 {
		t.Fatalf("compile requests = %d, want 1", ep.Requests)
	}
	if ep.P50MS <= 0 || ep.P95MS < ep.P50MS || ep.P99MS < ep.P95MS {
		t.Errorf("quantiles not monotone/positive: %+v", ep)
	}
	if stats.Cache.HitRatio != 0 {
		t.Errorf("hit ratio = %g, want 0 after one miss", stats.Cache.HitRatio)
	}
}

// TestCompileSpans checks that a cache-missing compile reports the front
// end's pipeline spans, summing to no more than the request wall-clock, and
// does not prepare the program for execution; and that the cached repeat
// omits them.
func TestCompileSpans(t *testing.T) {
	ts := newTestServer(t)
	source, _ := nvdMT()

	var first CompileResponse
	if code, body := postJSON(t, ts.URL+"/v1/compile",
		CompileRequest{Source: source}, &first); code != http.StatusOK {
		t.Fatalf("compile: %d %s", code, body)
	}
	if len(first.Spans) == 0 {
		t.Fatal("miss response has no spans")
	}
	seen := map[string]bool{}
	var sum float64
	for _, sp := range first.Spans {
		seen[sp.Name] = true
		sum += sp.DurMS
		if sp.DurMS < 0 || sp.StartMS < 0 {
			t.Errorf("negative span timing: %+v", sp)
		}
	}
	for _, stage := range []string{"clc.pre", "clc.parse", "clc.sema", "lower", "opt"} {
		if !seen[stage] {
			t.Errorf("missing pipeline stage %q in %v", stage, first.Spans)
		}
	}
	// Only an autotune executes the program (TestFirstAutotunePrepares).
	for _, stage := range []string{"vm.prepare", "wgvec.compile"} {
		if seen[stage] {
			t.Errorf("cold compile ran %q: %v", stage, first.Spans)
		}
	}
	if sum > first.LatencyMS {
		t.Errorf("spans sum to %.3f ms > request latency %.3f ms", sum, first.LatencyMS)
	}

	// The cached repeat compiles nothing: no pipeline spans, only the
	// queue-wait instrumentation every pooled request records.
	var second CompileResponse
	if code, _ := postJSON(t, ts.URL+"/v1/compile",
		CompileRequest{Source: source}, &second); code != http.StatusOK || second.Cache != "hit" {
		t.Fatalf("repeat compile: %d cache %q", code, second.Cache)
	}
	for _, sp := range second.Spans {
		if sp.Name != "queue.wait" {
			t.Errorf("cached response should have no pipeline spans, got %v", second.Spans)
		}
	}
}
