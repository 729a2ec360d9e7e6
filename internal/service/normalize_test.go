package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"grover/internal/clc"
)

// body is v's JSON object with edit applied: a request as a client may
// spell it, with fields the Go types cannot express (an empty map, a
// field the type omits when empty).
func body(t *testing.T, v any, edit func(m map[string]any)) map[string]any {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	edit(m)
	return m
}

// cacheOutcomes posts a request that must succeed and returns its cache
// outcomes: one, or one per autotune verdict.
func cacheOutcomes(t *testing.T, url string, req any) []string {
	t.Helper()
	var resp struct {
		Cache   string
		Results []struct{ Cache, Error string }
	}
	if code, body := postJSON(t, url, req, &resp); code != http.StatusOK {
		t.Fatalf("%d %s", code, body)
	}
	if resp.Results == nil {
		return []string{resp.Cache}
	}
	var outs []string
	for _, v := range resp.Results {
		outs = append(outs, v.Cache)
	}
	return outs
}

// TestNormalizedRequestsHit: two requests that ask the same question are
// one cached verdict or artifact, however each spells it.
func TestNormalizedRequestsHit(t *testing.T) {
	source, tune := nvdMT()
	compile := CompileRequest{Name: "nvd-mt.cl", Source: source}
	transform := TransformRequest{Source: source, Kernel: "transpose"}
	search := winsumAutotune("")
	lint := LintRequest{Name: "nvd-mt.cl", Source: source, Local: [3]int{16, 16, 1}}
	srcJSON, _ := json.Marshal(source)
	defines := func(order string) json.RawMessage {
		return json.RawMessage(`{"source":` + string(srcJSON) + `,"defines":` + order + `}`)
	}
	for _, tc := range []struct {
		name, endpoint string
		first, second  any
	}{
		{"zero dims are 1", "autotune",
			body(t, tune, func(m map[string]any) { m["global"], m["local"] = []int{32, 32, 0}, []int{16, 16, 0} }),
			tune},
		{"empty defines are none", "compile",
			body(t, compile, func(m map[string]any) { m["defines"] = map[string]string{} }),
			compile},
		{"defines in another order", "compile", defines(`{"A":"1","B":"2"}`), defines(`{"B":"2","A":"1"}`)},
		{"name defaults to kernel.cl", "compile",
			CompileRequest{Source: source},
			CompileRequest{Name: "kernel.cl", Source: source}},
		{"device defaults to all", "autotune",
			body(t, tune, func(m map[string]any) { delete(m, "device") }),
			body(t, tune, func(m map[string]any) { m["device"] = "all" })},
		{"backend defaults to the server's", "autotune",
			tune,
			body(t, tune, func(m map[string]any) { m["backend"] = New(Config{}).Backend() })},
		{"plan spellings", "autotune",
			body(t, search, func(m map[string]any) { m["plan"] = "hoist-addr|grover(strict=true)" }),
			body(t, search, func(m map[string]any) { m["plan"] = " hoist-addr | grover( strict ) " })},
		{"an int argument's stray size", "autotune",
			tune,
			body(t, tune, func(m map[string]any) { m["args"].([]any)[2].(map[string]any)["size"] = 4 })},
		{"candidates are a set", "transform",
			body(t, transform, func(m map[string]any) { m["options"] = map[string]any{"candidates": []string{"x", "tile"}} }),
			body(t, transform, func(m map[string]any) { m["options"] = map[string]any{"candidates": []string{"tile", "x", "tile"}} })},
		{"lint plan spellings", "lint",
			body(t, lint, func(m map[string]any) { m["plan"] = "hoist-addr,grover(strict=true)" }),
			body(t, lint, func(m map[string]any) { m["plan"] = " hoist-addr , grover( strict ) " })},
		{"autotune candidates are a set", "autotune",
			body(t, tune, func(m map[string]any) { m["options"] = map[string]any{"candidates": []string{"x", "tile"}} }),
			body(t, tune, func(m map[string]any) { m["options"] = map[string]any{"candidates": []string{"tile", "x", "tile"}} })},
	} {
		t.Run(tc.name, func(t *testing.T) {
			url := newTestServer(t).URL + "/v1/" + tc.endpoint
			for _, out := range cacheOutcomes(t, url, tc.first) {
				if out != "miss" {
					t.Fatalf("first request: cache %q, want miss", out)
				}
			}
			for _, out := range cacheOutcomes(t, url, tc.second) {
				if out != "hit" {
					t.Errorf("second request: cache %q, want hit", out)
				}
			}
		})
	}
}

// lintKeyExempt lists the LintRequest fields the lint key does not cover,
// each with the reason: none, since the lint reads every one.
var lintKeyExempt = map[string]string{}

// TestLintKeyCoversEveryField walks LintRequest by reflection and changes
// one value at a time — every field, and every dimension of Local —
// requiring the lint key to change unless the field is exempt, in which
// case it must not. A field added to the request without deciding how it
// is normalized fails here.
func TestLintKeyCoversEveryField(t *testing.T) {
	source, _ := nvdMT()
	base := LintRequest{Name: "nvd-mt.cl", Source: source, Kernel: "transpose", Local: [3]int{16, 16, 1}}
	key := func(req LintRequest) string {
		job, err := normalizeLint(&req)
		if err != nil {
			t.Fatalf("%+v: %v", req, err)
		}
		return jobKey("lint", job)
	}
	want := key(base)
	typ := reflect.TypeOf(base)
	for name := range lintKeyExempt {
		if _, ok := typ.FieldByName(name); !ok {
			t.Errorf("lintKeyExempt names %s, which LintRequest no longer has", name)
		}
	}
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		dims := 1
		if f.Type.Kind() == reflect.Array {
			dims = f.Type.Len()
		}
		for d := 0; d < dims; d++ {
			req := base
			v, path := reflect.ValueOf(&req).Elem().Field(i), f.Name
			if f.Type.Kind() == reflect.Array {
				v, path = v.Index(d), fmt.Sprintf("%s[%d]", f.Name, d)
			}
			perturb(t, path, v)
			changed, exempt := key(req) != want, lintKeyExempt[f.Name] != ""
			if changed == exempt {
				t.Errorf("changing %s: lint key changed = %v, want %v", path, changed, !exempt)
			}
		}
	}
}

// TestDefinesAreUnambiguous: a define whose name holds "=" and a newline
// is not the two defines it would spell as "name=value" lines. The second
// request compiles the program it sends.
func TestDefinesAreUnambiguous(t *testing.T) {
	ts := newTestServer(t)
	const src = "__kernel void k(__global int* o) {\n#ifdef A\n  o[0] = 1;\n#else\n  o[0] = 2;\n#endif\n}\n"
	for _, tc := range []struct {
		defines      map[string]string
		cache, store string
	}{
		{map[string]string{"A=1\nB": "2"}, "miss", ", 2\n"},
		{map[string]string{"A": "1", "B": "2"}, "miss", ", 1\n"},
	} {
		var resp CompileResponse
		code, body := postJSON(t, ts.URL+"/v1/compile",
			CompileRequest{Source: src, Defines: tc.defines, WantIR: true}, &resp)
		if code != http.StatusOK {
			t.Fatalf("defines %q: %d %s", tc.defines, code, body)
		}
		if resp.Cache != tc.cache || !strings.Contains(resp.IR, "store") || !strings.Contains(resp.IR, tc.store) {
			t.Errorf("defines %q: cache %s, IR\n%s\nwant a %s storing%q", tc.defines, resp.Cache, resp.IR, tc.cache, tc.store)
		}
	}
}

// TestGeometryIsValidated: a negative dimension, an indivisible one and an
// NDRange over the work-item limit are each a 400 naming what is wrong,
// raised before any compile, on one device and on all.
func TestGeometryIsValidated(t *testing.T) {
	ts := newTestServer(t)
	for _, tc := range []struct {
		global, local [3]int
		want          string
	}{
		{[3]int{-32, 32, 1}, [3]int{16, 16, 1}, "negative size in dim 0"},
		{[3]int{32, 32, 1}, [3]int{16, -16, 1}, "negative size in dim 1"},
		{[3]int{32, 30, 1}, [3]int{16, 16, 1}, "not divisible by local size 16 in dim 1"},
		{[3]int{1 << 13, 1 << 12, 1}, [3]int{16, 16, 1}, fmt.Sprintf("exceeds the %d-work-item limit", maxWorkItems)},
		{[3]int{1 << 62, 1 << 62, 1 << 62}, [3]int{1, 1, 1}, fmt.Sprintf("exceeds the %d-work-item limit", maxWorkItems)},
	} {
		for _, device := range []string{"SNB", "all"} {
			_, req := nvdMT()
			req.Device, req.Global, req.Local = device, tc.global, tc.local
			code, body := postJSON(t, ts.URL+"/v1/autotune", req, nil)
			if code != http.StatusBadRequest || !strings.Contains(body, tc.want) {
				t.Errorf("%s: global %v over local %v: %d %s, want a 400 with %q", device, tc.global, tc.local, code, body, tc.want)
			}
		}
	}
	checkNothingCompiled(t, ts)
}

// TestSweepBadArgIs400: a malformed argument is a malformed request on any
// device set, not six inline errors under a 200.
func TestSweepBadArgIs400(t *testing.T) {
	ts := newTestServer(t)
	for _, tc := range []struct {
		arg  ArgSpec
		want string
	}{
		{ArgSpec{Kind: "bogus"}, `arg 0: unknown kind \"bogus\"`},
		{ArgSpec{Kind: "buffer"}, "arg 0: buffer needs a positive size"},
		{ArgSpec{Kind: "buffer", Size: -4}, "arg 0: buffer needs a positive size"},
		{ArgSpec{Kind: "buffer", Size: clc.MaxObjectBytes + 1}, "arg 0: buffer size 67108865 exceeds the 67108864-byte limit"},
	} {
		for _, device := range []string{"SNB", "all"} {
			_, req := nvdMT()
			req.Device = device
			req.Args[0] = tc.arg
			code, body := postJSON(t, ts.URL+"/v1/autotune", req, nil)
			if code != http.StatusBadRequest || !strings.Contains(body, tc.want) {
				t.Errorf("%s: arg %+v: %d %s, want a 400 with %q", device, tc.arg, code, body, tc.want)
			}
		}
	}
	checkNothingCompiled(t, ts)
}

// checkNothingCompiled requires that the server's cache saw no lookup:
// every request was refused before the pool.
func checkNothingCompiled(t *testing.T, ts *httptest.Server) {
	t.Helper()
	var stats StatsResponse
	getJSON(t, ts.URL+"/v1/stats", &stats)
	if c := stats.Cache; c.Misses+c.Hits+c.Dedups != 0 {
		t.Errorf("refused requests reached the cache: %+v", c)
	}
}
