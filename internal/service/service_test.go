package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"grover/internal/apps"
	"grover/internal/clc"
)

func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(New(Config{CacheCapacity: 64, Workers: 4}))
	t.Cleanup(ts.Close)
	return ts
}

func postJSON(t *testing.T, url string, req, resp interface{}) (int, string) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	r, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(r.Body); err != nil {
		t.Fatal(err)
	}
	if resp != nil && r.StatusCode == http.StatusOK {
		if err := json.Unmarshal(buf.Bytes(), resp); err != nil {
			t.Fatalf("decoding %s response: %v\n%s", url, err, buf.String())
		}
	}
	return r.StatusCode, buf.String()
}

func getJSON(t *testing.T, url string, resp interface{}) int {
	t.Helper()
	r, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if r.StatusCode == http.StatusOK {
		if err := json.NewDecoder(r.Body).Decode(resp); err != nil {
			t.Fatalf("decoding %s: %v", url, err)
		}
	}
	return r.StatusCode
}

// nvdMT returns the paper's NVD-MT benchmark (the tiled transpose of
// Fig. 1) as service requests: the app's real kernel source with a small
// 32×32 launch.
func nvdMT() (source string, autotune AutotuneRequest) {
	app := apps.NVDMT()
	const n = 32
	return app.Source, AutotuneRequest{
		Name:   "nvd-mt.cl",
		Source: app.Source,
		Kernel: app.Kernel,
		Device: "SNB",
		Global: [3]int{n, n, 1},
		Local:  [3]int{16, 16, 1},
		Args: []ArgSpec{
			{Kind: "buffer", Size: n * n * 4}, // odata
			{Kind: "buffer", Size: n * n * 4}, // idata
			{Kind: "int", Int: n},             // width
			{Kind: "int", Int: n},             // height
		},
	}
}

// TestEndToEnd drives the issue's acceptance scenario over HTTP: compile
// NVD-MT, autotune it on SNB, and assert via the stats endpoint that the
// second identical request was served from the cache without recompiling.
func TestEndToEnd(t *testing.T) {
	ts := newTestServer(t)
	source, tuneReq := nvdMT()

	// Compile: first request misses, second hits.
	var comp CompileResponse
	code, body := postJSON(t, ts.URL+"/v1/compile",
		CompileRequest{Name: "nvd-mt.cl", Source: source}, &comp)
	if code != http.StatusOK {
		t.Fatalf("compile: %d %s", code, body)
	}
	if len(comp.Kernels) != 1 || comp.Kernels[0] != "transpose" {
		t.Fatalf("kernels = %v, want [transpose]", comp.Kernels)
	}
	if comp.Cache != "miss" {
		t.Errorf("first compile cache = %q, want miss", comp.Cache)
	}
	code, _ = postJSON(t, ts.URL+"/v1/compile",
		CompileRequest{Name: "nvd-mt.cl", Source: source}, &comp)
	if code != http.StatusOK || comp.Cache != "hit" {
		t.Errorf("second compile = %d cache %q, want 200 hit", code, comp.Cache)
	}

	// Autotune on SNB: the CPU should drop local memory (paper Fig. 2).
	var tune AutotuneResponse
	code, body = postJSON(t, ts.URL+"/v1/autotune", tuneReq, &tune)
	if code != http.StatusOK {
		t.Fatalf("autotune: %d %s", code, body)
	}
	if len(tune.Results) != 1 {
		t.Fatalf("results = %d, want 1", len(tune.Results))
	}
	v := tune.Results[0]
	if v.Device != "SNB" || v.Cache != "miss" {
		t.Errorf("first autotune = %s/%s, want SNB/miss", v.Device, v.Cache)
	}
	if !v.UseTransformed || v.Speedup <= 1 {
		t.Errorf("SNB should disable local memory for the transpose: %+v", v)
	}
	if v.OriginalMS <= 0 || v.TransformedMS <= 0 {
		t.Errorf("missing timings: %+v", v)
	}
	if v.Report == nil || !v.Report.Candidates[0].Transformed {
		t.Errorf("missing transformation report: %+v", v.Report)
	}

	// The identical request again: served from cache, identical verdict.
	var tune2 AutotuneResponse
	code, body = postJSON(t, ts.URL+"/v1/autotune", tuneReq, &tune2)
	if code != http.StatusOK {
		t.Fatalf("repeat autotune: %d %s", code, body)
	}
	v2 := tune2.Results[0]
	if v2.Cache != "hit" {
		t.Errorf("repeat autotune cache = %q, want hit", v2.Cache)
	}
	if v2.OriginalMS != v.OriginalMS || v2.TransformedMS != v.TransformedMS {
		t.Errorf("cached verdict differs: %+v vs %+v", v2, v)
	}

	// The stats endpoint must corroborate: no recompilation happened (one
	// compile miss, one autotune miss; everything else hits).
	var stats StatsResponse
	if code := getJSON(t, ts.URL+"/v1/stats", &stats); code != http.StatusOK {
		t.Fatalf("stats: %d", code)
	}
	if stats.Cache.Misses != 2 {
		t.Errorf("cache misses = %d, want 2 (one compile, one tuning)", stats.Cache.Misses)
	}
	if stats.Cache.Hits < 2 {
		t.Errorf("cache hits = %d, want >= 2", stats.Cache.Hits)
	}
	at := stats.Endpoints["autotune"]
	if at.Requests != 2 || at.CacheHits != 1 || at.CacheMisses != 1 {
		t.Errorf("autotune endpoint stats = %+v, want 2 requests, 1 hit, 1 miss", at)
	}
	if at.AvgMS <= 0 {
		t.Errorf("latency not recorded: %+v", at)
	}
	if stats.Pool.Workers != 4 || stats.Pool.Completed < 4 {
		t.Errorf("pool stats = %+v, want 4 workers, >= 4 completed", stats.Pool)
	}
}

func TestTransformEndpoint(t *testing.T) {
	ts := newTestServer(t)
	source, _ := nvdMT()
	req := TransformRequest{
		Source: source,
		Kernel: "transpose",
		WantIR: true,
	}
	var resp TransformResponse
	code, body := postJSON(t, ts.URL+"/v1/transform", req, &resp)
	if code != http.StatusOK {
		t.Fatalf("transform: %d %s", code, body)
	}
	if !resp.Transformed {
		t.Error("transpose should be transformable")
	}
	if resp.Report == nil || resp.Report.Text == "" {
		t.Error("missing report")
	}
	if len(resp.Report.Candidates) != 1 || resp.Report.Candidates[0].Name != "tile" {
		t.Errorf("candidates = %+v, want tile", resp.Report.Candidates)
	}
	if c := resp.Report.Candidates[0]; c.GL == "" || c.Solution == "" || len(c.NGL) == 0 {
		t.Errorf("Table III fields missing: %+v", c)
	}
	if resp.IR == "" {
		t.Error("want_ir did not return the IR")
	}
	if resp.Report.BarriersRemoved == 0 {
		t.Error("the transpose barrier should be elided")
	}

	// Same request again is a cache hit.
	code, _ = postJSON(t, ts.URL+"/v1/transform", req, &resp)
	if code != http.StatusOK || resp.Cache != "hit" {
		t.Errorf("repeat transform = %d cache %q, want 200 hit", code, resp.Cache)
	}
}

func TestAutotuneAllDevices(t *testing.T) {
	ts := newTestServer(t)
	_, req := nvdMT()
	req.Device = "all"
	var resp AutotuneResponse
	code, body := postJSON(t, ts.URL+"/v1/autotune", req, &resp)
	if code != http.StatusOK {
		t.Fatalf("autotune all: %d %s", code, body)
	}
	if len(resp.Results) != 6 {
		t.Fatalf("results = %d, want 6", len(resp.Results))
	}
	byDevice := map[string]TuneVerdict{}
	for _, v := range resp.Results {
		if v.Error != "" {
			t.Errorf("%s: %s", v.Device, v.Error)
		}
		byDevice[v.Device] = v
	}
	// The paper's Fig. 2 shape at small scale: NVIDIA GPUs keep local
	// memory, the CPUs drop it.
	if byDevice["Kepler"].UseTransformed {
		t.Error("Kepler should keep local memory")
	}
	if !byDevice["SNB"].UseTransformed {
		t.Error("SNB should disable local memory")
	}
}

func TestConcurrentIdenticalRequests(t *testing.T) {
	ts := newTestServer(t)
	_, req := nvdMT()
	const clients = 8
	var wg sync.WaitGroup
	verdicts := make([]AutotuneResponse, clients)
	codes := make([]int, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			codes[i], _ = postJSON(t, ts.URL+"/v1/autotune", req, &verdicts[i])
		}(i)
	}
	wg.Wait()
	for i := 0; i < clients; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("client %d: %d", i, codes[i])
		}
		if verdicts[i].Results[0].OriginalMS != verdicts[0].Results[0].OriginalMS {
			t.Errorf("client %d saw a different verdict", i)
		}
	}
	// Singleflight: however the requests interleaved, the tuning ran at
	// most... exactly once per miss, and misses+hits+dedups account for
	// all clients. The strong assertion: only one autotune artifact and
	// one compile artifact exist, so at most 2 computes ran.
	var stats StatsResponse
	if code := getJSON(t, ts.URL+"/v1/stats", &stats); code != http.StatusOK {
		t.Fatalf("stats: %d", code)
	}
	if stats.Cache.Entries > 2 {
		t.Errorf("entries = %d, want <= 2 (one compile, one verdict)", stats.Cache.Entries)
	}
	if stats.Cache.Misses > 2 {
		t.Errorf("misses = %d, want <= 2: identical concurrent requests must not recompute", stats.Cache.Misses)
	}
	at := stats.Endpoints["autotune"]
	if at.CacheHits+at.CacheMisses+at.CacheDedups != clients {
		t.Errorf("outcomes do not cover all clients: %+v", at)
	}
}

func TestUnknownDeviceIs404WithInventory(t *testing.T) {
	ts := newTestServer(t)
	_, req := nvdMT()
	req.Device = "GTX9000"
	code, body := postJSON(t, ts.URL+"/v1/autotune", req, nil)
	if code != http.StatusNotFound {
		t.Fatalf("code = %d, want 404", code)
	}
	// The satellite fix: the 404 body lists the available devices.
	for _, name := range []string{"Fermi", "Kepler", "Tahiti", "SNB", "Nehalem", "MIC"} {
		if !bytes.Contains([]byte(body), []byte(name)) {
			t.Errorf("404 body does not list %s: %s", name, body)
		}
	}
}

func TestUnknownKernelIs404(t *testing.T) {
	ts := newTestServer(t)
	source, _ := nvdMT()
	code, body := postJSON(t, ts.URL+"/v1/transform",
		TransformRequest{Source: source, Kernel: "nope"}, nil)
	if code != http.StatusNotFound {
		t.Fatalf("code = %d, want 404 (%s)", code, body)
	}
	if !bytes.Contains([]byte(body), []byte("transpose")) {
		t.Errorf("404 body should list available kernels: %s", body)
	}
}

// TestRemovedAutotuneFieldsAre400: the predictor's request fields, the
// static-pruning field and the characterization flag are gone, and a
// client that still sends one is told which, not silently measured.
func TestRemovedAutotuneFieldsAre400(t *testing.T) {
	checkFieldsAre400(t, map[string]interface{}{
		"predict": true, "min_confidence": 0.5, "prune": 2, "characterize": true,
	})
}

// TestAutotuneRunsIs400: the run count is gone too — a launch is
// deterministic, so each version runs once — and a body that still sends
// "runs" is a 400 naming the field.
func TestAutotuneRunsIs400(t *testing.T) {
	checkFieldsAre400(t, map[string]interface{}{"runs": 2})
}

// checkFieldsAre400 posts a valid autotune body, on one device and on
// "all", with one extra field at a time and requires a 400 that names it.
func checkFieldsAre400(t *testing.T, fields map[string]interface{}) {
	t.Helper()
	ts := newTestServer(t)
	_, req := nvdMT()
	for _, device := range []string{req.Device, "all"} {
		req.Device = device
		raw, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		for field, value := range fields {
			var body map[string]interface{}
			if err := json.Unmarshal(raw, &body); err != nil {
				t.Fatal(err)
			}
			body[field] = value
			code, msg := postJSON(t, ts.URL+"/v1/autotune", body, nil)
			if code != http.StatusBadRequest || !strings.Contains(msg, "unknown field") || !strings.Contains(msg, field) {
				t.Errorf("%s on %s: got %d %s, want a 400 naming the field", field, device, code, msg)
			}
		}
	}
}

// searchKeyExempt lists the AutotuneRequest fields a plan search does not
// read, each with the reason: the normalizer drops them, so changing one
// leaves the verdict key as it is.
var searchKeyExempt = map[string]string{
	"Options": "read by the two-version tune alone: a plan search never runs them",
}

// refused lists the fields whose change the normalizer refuses with a 400
// for the two-version tune.
var refused = map[string]string{
	"Profile": "a profile needs a plan search",
}

// respell gives a field=value of the base request another valid value, so
// that changing a name the normalizer resolves makes a request it accepts.
var respell = map[string]string{
	"Device=SNB":       "Fermi",
	"Plan=":            "grover",
	"Plan=base|grover": "grover",
	"Kind=buffer":      "local",
	"Kind=int":         "float",
}

// argReads names the one ArgSpec field each kind reads; the normalizer
// zeroes the others.
var argReads = map[string]string{"buffer": "Size", "local": "Size", "int": "Int", "float": "Float"}

// TestAutotuneKeyCoversEveryField walks AutotuneRequest by reflection and
// changes one value at a time — every field, and every field of a nested
// struct, array or argument — requiring the normalized request's verdict
// keys to change, for the two-version tune and for a plan search. A field
// added to the request without deciding how it is normalized fails here.
// Only the exempt fields, and the argument fields their kind does not read,
// leave the keys as they are; those must.
func TestAutotuneKeyCoversEveryField(t *testing.T) {
	for _, tc := range []struct {
		name            string
		plan            string
		exempt, refused map[string]string
	}{
		{"two versions", "", nil, refused},
		{"plan search", "base|grover", searchKeyExempt, nil},
	} {
		t.Run(tc.name, func(t *testing.T) { checkKeyCoversFields(t, tc.plan, tc.exempt, tc.refused) })
	}
}

func checkKeyCoversFields(t *testing.T, plan string, exempt, refused map[string]string) {
	srv := New(Config{})
	_, base := nvdMT()
	base.Plan = plan
	base.Global[2] = 2 // so that doubling Local[2] still divides it
	key := func(req *AutotuneRequest) (string, error) {
		t, err := srv.normalizeAutotune(req)
		if err != nil {
			return "", err
		}
		return strings.Join(verdictKeys(t.job, t.devs), ","), nil
	}
	want, err := key(&base)
	if err != nil {
		t.Fatal(err)
	}
	typ := reflect.TypeOf(base)
	for name := range exempt {
		if _, ok := typ.FieldByName(name); !ok {
			t.Errorf("exempt names %s, which AutotuneRequest no longer has", name)
		}
	}
	// clone deep-copies the base request so a change reaches no other case.
	clone := func() AutotuneRequest {
		raw, err := json.Marshal(base)
		if err != nil {
			t.Fatal(err)
		}
		var req AutotuneRequest
		if err := json.Unmarshal(raw, &req); err != nil {
			t.Fatal(err)
		}
		return req
	}
	var walk func(path string, at []int, v reflect.Value)
	check := func(path string, at []int) {
		req := clone()
		v := reflect.ValueOf(&req).Elem()
		for _, i := range at {
			if v.Kind() == reflect.Struct {
				v = v.Field(i)
			} else {
				v = v.Index(i)
			}
		}
		perturb(t, path, v)
		got, err := key(&req)
		top := typ.Field(at[0]).Name
		dropped := exempt[top] != ""
		if top == "Args" && len(at) == 3 {
			// An argument field its kind does not read is zeroed.
			f := reflect.TypeOf(ArgSpec{}).Field(at[2]).Name
			dropped = f != "Kind" && f != argReads[base.Args[at[1]].Kind]
		}
		switch {
		case err != nil && refused[top] == "":
			t.Errorf("changing %s makes the request invalid: %v; teach respell or perturb a valid value", path, err)
		case err != nil:
		case dropped && got != want:
			t.Errorf("changing %s changes the autotune key, but the normalizer should drop it", path)
		case !dropped && got == want:
			t.Errorf("changing %s leaves the autotune key unchanged", path)
		}
	}
	walk = func(path string, at []int, v reflect.Value) {
		switch v.Kind() {
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(strings.TrimPrefix(path+"."+v.Type().Field(i).Name, "."), append(at[:len(at):len(at)], i), v.Field(i))
			}
		case reflect.Array, reflect.Slice:
			for i := 0; i < v.Len(); i++ {
				walk(fmt.Sprintf("%s[%d]", path, i), append(at[:len(at):len(at)], i), v.Index(i))
			}
			if v.Kind() == reflect.Slice {
				check(path, at)
			}
		default:
			check(path, at)
		}
	}
	walk("", nil, reflect.ValueOf(base))
}

// TestPlanSearchIgnoresOptions: a plan search does not read the pass
// options, so two searches that differ only in them are one verdict.
func TestPlanSearchIgnoresOptions(t *testing.T) {
	ts := newTestServer(t)
	_, req := nvdMT()
	req.Plan = "base|grover"
	for i, opts := range []OptionsSpec{{}, {Candidates: []string{"tile"}, Strict: true}} {
		req.Options = opts
		var resp AutotuneResponse
		if code, body := postJSON(t, ts.URL+"/v1/autotune", req, &resp); code != http.StatusOK {
			t.Fatalf("options %+v: %d %s", opts, code, body)
		}
		want := "hit"
		if i == 0 {
			want = "miss"
		}
		if got := resp.Results[0].Cache; got != want {
			t.Errorf("options %+v: cache %s, want %s", opts, got, want)
		}
	}
}

// TestCandidateNamesAreIdentifiers: a candidate that is not a C identifier
// is a 400 on both endpoints that run the pass. ["tile,x"] once shared a
// cache key with ["tile","x"].
func TestCandidateNamesAreIdentifiers(t *testing.T) {
	ts := newTestServer(t)
	source, tune := nvdMT()
	for _, name := range []string{"tile,x", "tile+x", "tile;strict", "x)", "9x", ""} {
		opts := OptionsSpec{Candidates: []string{name}}
		code, body := postJSON(t, ts.URL+"/v1/transform",
			TransformRequest{Source: source, Kernel: "transpose", Options: opts}, nil)
		if code != http.StatusBadRequest || !strings.Contains(body, "not a C identifier") {
			t.Errorf("transform with candidate %q: %d %s, want 400", name, code, body)
		}
		tune.Options = opts
		code, body = postJSON(t, ts.URL+"/v1/autotune", tune, nil)
		if code != http.StatusBadRequest || !strings.Contains(body, "not a C identifier") {
			t.Errorf("autotune with candidate %q: %d %s, want 400", name, code, body)
		}
	}
}

// perturb sets v to another value of its type: a name in respell to the
// other valid name it lists, a size or count to twice itself.
func perturb(t *testing.T, path string, v reflect.Value) {
	switch v.Kind() {
	case reflect.String:
		field := path[strings.LastIndex(path, ".")+1:]
		if alt, ok := respell[field+"="+v.String()]; ok {
			v.SetString(alt)
		} else {
			v.SetString(v.String() + "x")
		}
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Int, reflect.Int64:
		if v.Int() == 0 {
			v.SetInt(7)
		} else {
			v.SetInt(2 * v.Int())
		}
	case reflect.Float64:
		v.SetFloat(v.Float() + 0.5)
	case reflect.Map:
		m := reflect.MakeMap(v.Type())
		m.SetMapIndex(reflect.ValueOf("KEY_TEST"), reflect.ValueOf("1"))
		v.Set(m)
	case reflect.Slice:
		elem := reflect.New(v.Type().Elem()).Elem()
		if v.Len() > 0 {
			elem.Set(v.Index(v.Len() - 1))
		} else {
			perturb(t, path, elem)
		}
		v.Set(reflect.Append(v, elem))
	default:
		t.Fatalf("%s: no way to change a %s; teach perturb", path, v.Type())
	}
}

// TestLintKeysProgramName: every position in a lint response names the
// program, so the same source linted under two names is two results.
func TestLintKeysProgramName(t *testing.T) {
	ts := newTestServer(t)
	source, _ := nvdMT()
	for _, name := range []string{"a.cl", "b.cl"} {
		var resp LintResponse
		code, body := postJSON(t, ts.URL+"/v1/lint",
			LintRequest{Name: name, Source: source, Local: [3]int{16, 16, 1}}, &resp)
		if code != http.StatusOK {
			t.Fatalf("lint %s: %d %s", name, code, body)
		}
		if len(resp.Legality) == 0 {
			t.Fatalf("lint %s: no legality verdicts", name)
		}
		if got := resp.Legality[0].Pos.File; got != name {
			t.Errorf("lint %s (cache %s): legality[0].pos is %s, want a position in %s",
				name, resp.Cache, resp.Legality[0].Pos, name)
		}
	}
}

// TestLocalArgSizeIsBounded: both engines allocate a local argument's bytes
// per work-group, so an unchecked size ends the process with an
// out-of-memory fatal error no recover can contain. It is a 400, and the
// server answers the next request.
func TestLocalArgSizeIsBounded(t *testing.T) {
	ts := newTestServer(t)
	const src = `__kernel void k(__global float* out, __local float* tile) {
		tile[get_local_id(0)] = 1.0f;
		out[get_global_id(0)] = tile[get_local_id(0)];
	}`
	req := AutotuneRequest{
		Source: src, Kernel: "k", Device: "SNB", Plan: "base",
		Global: [3]int{16, 1, 1}, Local: [3]int{16, 1, 1},
		Args: []ArgSpec{{Kind: "buffer", Size: 64}, {Kind: "local", Size: 64}},
	}
	for _, size := range []int{1 << 40, 1 << 62} {
		req.Args[1].Size = size
		code, body := postJSON(t, ts.URL+"/v1/autotune", req, nil)
		want := fmt.Sprintf("arg 1: local size %d exceeds the %d-byte limit", size, clc.MaxObjectBytes)
		if code != http.StatusBadRequest || !strings.Contains(body, want) {
			t.Errorf("local size %d: got %d %s, want 400 %q", size, code, body, want)
		}
	}
	req.Args[1].Size = 64
	if code, body := postJSON(t, ts.URL+"/v1/autotune", req, nil); code != http.StatusOK {
		t.Fatalf("request after the refused ones: %d %s", code, body)
	}
}

func TestCompileErrorIs422(t *testing.T) {
	ts := newTestServer(t)
	code, body := postJSON(t, ts.URL+"/v1/compile",
		CompileRequest{Source: "__kernel void broken( {"}, nil)
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("code = %d, want 422 (%s)", code, body)
	}
}

func TestDevicesEndpoint(t *testing.T) {
	ts := newTestServer(t)
	var devs []DeviceInfo
	if code := getJSON(t, ts.URL+"/v1/devices", &devs); code != http.StatusOK {
		t.Fatalf("devices: %d", code)
	}
	if len(devs) != 6 {
		t.Fatalf("devices = %d, want 6", len(devs))
	}
	kinds := map[string]int{}
	for _, d := range devs {
		kinds[d.Kind]++
		if d.Name == "" || d.ComputeUnits <= 0 || d.Profile == "" {
			t.Errorf("incomplete device info: %+v", d)
		}
	}
	if kinds["gpu"] != 3 || kinds["cpu"] != 3 {
		t.Errorf("kinds = %v, want 3 gpu + 3 cpu", kinds)
	}
}

func TestHealthz(t *testing.T) {
	ts := newTestServer(t)
	var h HealthResponse
	if code := getJSON(t, ts.URL+"/healthz", &h); code != http.StatusOK || h.Status != "ok" {
		t.Fatalf("healthz = %d %+v", code, h)
	}
	if h.Pool.Workers != 4 {
		t.Errorf("healthz pool workers = %d, want 4", h.Pool.Workers)
	}
	if h.Cache.Capacity != 64 {
		t.Errorf("healthz cache capacity = %d, want 64", h.Cache.Capacity)
	}
}

// TestLRUBoundUnderChurn makes distinct requests beyond the cache
// capacity and checks the bound holds.
func TestLRUBoundUnderChurn(t *testing.T) {
	ts := httptest.NewServer(New(Config{CacheCapacity: 4, Workers: 2}))
	defer ts.Close()
	for i := 0; i < 8; i++ {
		src := fmt.Sprintf(
			"__kernel void k%d(__global float* a) { a[get_global_id(0)] = %d.0f; }", i, i)
		var resp CompileResponse
		code, body := postJSON(t, ts.URL+"/v1/compile", CompileRequest{Source: src}, &resp)
		if code != http.StatusOK {
			t.Fatalf("compile %d: %d %s", i, code, body)
		}
	}
	var stats StatsResponse
	if code := getJSON(t, ts.URL+"/v1/stats", &stats); code != http.StatusOK {
		t.Fatalf("stats: %d", code)
	}
	if stats.Cache.Entries > 4 {
		t.Errorf("entries = %d, want <= 4", stats.Cache.Entries)
	}
	if stats.Cache.Evictions < 4 {
		t.Errorf("evictions = %d, want >= 4", stats.Cache.Evictions)
	}
}

// TestLintEndpoint lints a clean benchmark and a seeded-bug kernel over
// HTTP, checking findings, legality verdicts, and caching.
func TestLintEndpoint(t *testing.T) {
	ts := newTestServer(t)

	// The NVD-MT benchmark at its default work-group size is clean and
	// its tile buffer is rewritable.
	app := apps.NVDMT()
	var clean LintResponse
	code, body := postJSON(t, ts.URL+"/v1/lint",
		LintRequest{Name: "nvd-mt.cl", Source: app.Source, Defines: app.Defines,
			Local: [3]int{16, 16, 1}}, &clean)
	if code != http.StatusOK {
		t.Fatalf("lint: %d %s", code, body)
	}
	if len(clean.Findings) != 0 {
		t.Errorf("NVD-MT findings = %+v, want none", clean.Findings)
	}
	if clean.MaxSeverity != "" {
		t.Errorf("max_severity = %q, want empty", clean.MaxSeverity)
	}
	if len(clean.Legality) != 1 || !clean.Legality[0].Rewritable {
		t.Errorf("legality = %+v, want one rewritable buffer", clean.Legality)
	}
	if clean.Cache != "miss" {
		t.Errorf("first lint cache = %q, want miss", clean.Cache)
	}

	// The identical request is served from the cache.
	code, _ = postJSON(t, ts.URL+"/v1/lint",
		LintRequest{Name: "nvd-mt.cl", Source: app.Source, Defines: app.Defines,
			Local: [3]int{16, 16, 1}}, &clean)
	if code != http.StatusOK || clean.Cache != "hit" {
		t.Errorf("second lint = %d cache %q, want 200 hit", code, clean.Cache)
	}

	// A divergent barrier is reported as an error.
	bad := `__kernel void bad(__global float* in, __global float* out) {
    int lx = get_local_id(0);
    __local float tile[16];
    tile[lx] = in[get_global_id(0)];
    if (lx < 8) {
        barrier(CLK_LOCAL_MEM_FENCE);
    }
    out[get_global_id(0)] = tile[lx];
}
`
	var res LintResponse
	code, body = postJSON(t, ts.URL+"/v1/lint",
		LintRequest{Name: "bad.cl", Source: bad, Local: [3]int{16, 1, 1}}, &res)
	if code != http.StatusOK {
		t.Fatalf("lint bad: %d %s", code, body)
	}
	if res.MaxSeverity != "error" {
		t.Errorf("max_severity = %q, want error", res.MaxSeverity)
	}
	found := false
	for _, f := range res.Findings {
		if f.Detector == "barrier-divergence" && f.Pos.Line == 6 {
			found = true
		}
	}
	if !found {
		t.Errorf("no barrier-divergence finding at line 6: %+v", res.Findings)
	}

	// Missing source is a 400; unknown kernel a 404.
	code, _ = postJSON(t, ts.URL+"/v1/lint", LintRequest{}, nil)
	if code != http.StatusBadRequest {
		t.Errorf("empty lint = %d, want 400", code)
	}
	code, _ = postJSON(t, ts.URL+"/v1/lint",
		LintRequest{Source: bad, Kernel: "nope"}, nil)
	if code != http.StatusNotFound {
		t.Errorf("unknown kernel = %d, want 404", code)
	}
}
