package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"grover/internal/telemetry"
	"grover/internal/vm"
)

// TestTracesEndpoint drives a slow request and checks the issue's
// acceptance criterion on /v1/traces: the trace keyed by the caller's
// X-Request-ID decomposes the request latency into queue-wait plus
// named pipeline spans whose total lands within 10% of the measured
// request duration, for the best of up to five such requests.
func TestTracesEndpoint(t *testing.T) {
	ts := newTestServer(t)
	_, tuneReq := nvdMT()
	// A transpose large enough that the tuning dominates the request and
	// the fixed HTTP/JSON overhead — and one GC or scheduler pause on a
	// loaded box — stays inside the 10% budget: each version's one launch
	// covers 23×23 tiles of 16×16, about 130 times the fixture's 2×2.
	const n = 23 * 16
	tuneReq.Global = [3]int{n, n, 1}
	tuneReq.Args[0].Size, tuneReq.Args[1].Size = n*n*4, n*n*4
	tuneReq.Args[2].Int, tuneReq.Args[3].Int = n, n

	// The share of a request the spans explain is a wall-clock ratio, so a
	// box loaded by other work can push one request under the bound: up to
	// five requests, each named anew so each compiles and tunes, and the
	// best of them must meet it. Everything else holds of every one.
	best := 0.0
	for i := 1; i <= 5 && best < 0.9; i++ {
		sum, dur := checkSlowTrace(t, ts.URL, tuneReq, i)
		best = max(best, sum/dur)
	}
	if best < 0.9 {
		t.Errorf("spans explain at best %.3f of a request (< 90%%) in five — latency unaccounted", best)
	}

	// min_ms filters the ring; an absurd floor returns nothing.
	var none TracesResponse
	if code := getJSON(t, ts.URL+"/v1/traces?min_ms=1000000", &none); code != http.StatusOK || none.Count != 0 {
		t.Errorf("min_ms filter: code=%d count=%d, want 200/0", code, none.Count)
	}

	// Malformed parameters are rejected, not ignored.
	for _, q := range []string{"?n=abc", "?n=-1", "?min_ms=x", "?min_ms=-2"} {
		r, err := http.Get(ts.URL + "/v1/traces" + q)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusBadRequest {
			t.Errorf("GET /v1/traces%s = %d, want 400", q, r.StatusCode)
		}
	}
}

// TestStatsGoldenSchema pins the GET /v1/stats JSON shape: the exact
// top-level key set and the per-section keys dashboards depend on. A
// field rename or removal fails here before it breaks a consumer.
func TestStatsGoldenSchema(t *testing.T) {
	ts := newTestServer(t)
	source, _ := nvdMT()
	postJSON(t, ts.URL+"/v1/compile", CompileRequest{Source: source}, nil)

	r, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(r.Body); err != nil {
		t.Fatal(err)
	}

	// Strict decode: the wire payload must carry nothing the typed
	// response does not declare.
	dec := json.NewDecoder(bytes.NewReader(buf.Bytes()))
	dec.DisallowUnknownFields()
	var typed StatsResponse
	if err := dec.Decode(&typed); err != nil {
		t.Fatalf("stats payload does not match StatsResponse: %v\n%s", err, buf.String())
	}

	var raw map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &raw); err != nil {
		t.Fatal(err)
	}
	golden := map[string][]string{
		"": {"cache", "pool", "backend", "backends", "executions", "endpoints"},
		"cache": {"hits", "misses", "dedups", "evictions", "entries", "capacity",
			"in_flight", "hit_ratio"},
		"pool": {"workers", "active", "queued", "completed", "shed"},
	}
	assertKeys(t, "stats", raw, golden[""])
	for _, section := range []string{"cache", "pool"} {
		var sub map[string]json.RawMessage
		if err := json.Unmarshal(raw[section], &sub); err != nil {
			t.Fatalf("%s: %v", section, err)
		}
		assertKeys(t, section, sub, golden[section])
	}
	var endpoints map[string]map[string]json.RawMessage
	if err := json.Unmarshal(raw["endpoints"], &endpoints); err != nil {
		t.Fatal(err)
	}
	ep, ok := endpoints["compile"]
	if !ok {
		t.Fatalf("no compile row in endpoints: %s", raw["endpoints"])
	}
	assertKeys(t, "endpoints.compile", ep, []string{
		"requests", "errors", "cache_hits", "cache_misses", "cache_dedups",
		"total_ms", "avg_ms", "max_ms", "p50_ms", "p95_ms", "p99_ms"})
}

// assertKeys checks a JSON object has exactly the golden key set.
func assertKeys(t *testing.T, where string, obj map[string]json.RawMessage, want []string) {
	t.Helper()
	expected := map[string]bool{}
	for _, k := range want {
		expected[k] = true
	}
	for k := range obj {
		if !expected[k] {
			t.Errorf("%s: unexpected key %q — update the golden schema deliberately", where, k)
		}
	}
	for _, k := range want {
		if _, ok := obj[k]; !ok {
			t.Errorf("%s: missing key %q", where, k)
		}
	}
}

// TestBuildInfoAndSaturationGauges checks the new exposition series: the
// constant build-info gauge with its identifying labels and the
// queue-depth / in-flight saturation gauges, on a scrape that must still
// parse line-by-line.
func TestBuildInfoAndSaturationGauges(t *testing.T) {
	ts := newTestServer(t)
	source, _ := nvdMT()
	postJSON(t, ts.URL+"/v1/compile", CompileRequest{Source: source}, nil)

	out := scrape(t, ts.URL)
	validateExposition(t, out)
	for _, want := range []string{
		"groverd_build_info{",
		`version="dev"`,
		`go_version="go`,
		`backend="`,
		"groverd_queue_depth 0",
		"groverd_inflight_requests 1", // the scrape itself is in flight
		"groverd_shed_total 0",
		"groverd_trace_buffer_len",
		"groverd_queue_wait_seconds_count",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
	// The build-info value is the conventional constant 1.
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "groverd_build_info{") && !strings.HasSuffix(line, " 1") {
			t.Errorf("build info not constant 1: %q", line)
		}
	}
	// The trace ring holds the one traced request (the scrape and any
	// /v1/traces reads are excluded).
	var traces TracesResponse
	if code := getJSON(t, ts.URL+"/v1/traces", &traces); code != http.StatusOK {
		t.Fatalf("traces: %d", code)
	}
	if traces.Buffered != 1 {
		t.Errorf("ring holds %d traces, want 1 (scrapes excluded)", traces.Buffered)
	}
	if !strings.Contains(out, "groverd_trace_buffer_len "+strconv.Itoa(1)) {
		// The gauge was read during the scrape, before the /v1/traces GET.
		t.Errorf("trace buffer gauge missing from scrape")
	}
}

// checkSlowTrace posts tuneReq as program slow-tune-<i>.cl with request ID
// slow-tune-<i>, checks the trace the ring holds of it, and returns the
// summed duration of its top-level spans and the request's.
func checkSlowTrace(t *testing.T, url string, tuneReq AutotuneRequest, i int) (sum, dur float64) {
	t.Helper()
	id := fmt.Sprint("slow-tune-", i)
	tuneReq.Name = id + ".cl"
	body, err := json.Marshal(&tuneReq)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest("POST", url+"/v1/autotune", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-ID", id)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("autotune: %d", resp.StatusCode)
	}

	var traces TracesResponse
	if code := getJSON(t, url+"/v1/traces?n=50", &traces); code != http.StatusOK {
		t.Fatalf("traces: %d", code)
	}
	if traces.Count != len(traces.Traces) || traces.Buffered < traces.Count {
		t.Fatalf("inconsistent counts: count=%d buffered=%d len=%d",
			traces.Count, traces.Buffered, len(traces.Traces))
	}
	var slow *telemetry.TraceExport
	for i := range traces.Traces {
		if traces.Traces[i].TraceID == id {
			slow = &traces.Traces[i]
		}
		// Scrape-style endpoints must never crowd the ring.
		if name := traces.Traces[i].Name; strings.Contains(name, "/metrics") ||
			strings.Contains(name, "/healthz") || strings.Contains(name, "/v1/traces") {
			t.Errorf("untraced endpoint leaked into the ring: %q", name)
		}
	}
	if slow == nil {
		t.Fatalf("trace %s not in ring (%d traces)", id, traces.Count)
	}
	if slow.Name != "POST /v1/autotune" || slow.Status != "200" {
		t.Errorf("trace identity: name=%q status=%q", slow.Name, slow.Status)
	}
	if slow.DurMS <= 0 {
		t.Fatalf("trace has no duration: %+v", slow)
	}

	// Decomposition: queue-wait plus the named top-level spans account
	// for the request.
	seen := map[string]bool{}
	for _, sp := range slow.Spans {
		seen[sp.Name] = true
		if sp.ParentID == 0 {
			sum += sp.DurMS
		}
		if sp.DurMS < 0 || sp.StartMS < 0 {
			t.Errorf("negative span timing: %+v", sp)
		}
	}
	for _, want := range []string{"queue.wait", "clc.parse", "lower", "vm.prepare", "tune:base", "tune:grover"} {
		if !seen[want] {
			t.Errorf("span %q missing from trace: %v", want, slow.Spans)
		}
	}
	// The engine compile is recorded by the engine that ran: wgvec
	// compiles, the interpreter runs the IR as prepared.
	if engine := vm.Engine() == vm.BackendWgvec; seen["wgvec.compile"] != engine {
		t.Errorf("span wgvec.compile present=%v on backend %s, want %v", seen["wgvec.compile"], vm.Engine(), engine)
	}
	// Compiling the engine is one layer, named as the ledger names it.
	if seen["bcode.compile"] {
		t.Errorf("span bcode.compile in trace: the engine compile is wgvec.compile alone")
	}
	if sum > slow.DurMS {
		t.Errorf("top-level spans sum to %.3f ms > trace %.3f ms", sum, slow.DurMS)
	}
	return sum, slow.DurMS
}
