package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"grover/internal/telemetry"
)

// The tests below hold the all-device request — one device set, one
// execution per kernel version charged to six cost models — to what six
// single-device requests answer.

var allDevices = []string{"Fermi", "Kepler", "Tahiti", "SNB", "Nehalem", "MIC"}

// tune posts one autotune request and fails the test unless it is a 200.
func tune(t *testing.T, url string, req AutotuneRequest) AutotuneResponse {
	t.Helper()
	var resp AutotuneResponse
	if code, body := postJSON(t, url+"/v1/autotune", req, &resp); code != http.StatusOK {
		t.Fatalf("autotune %s: %d %s", req.Device, code, body)
	}
	return resp
}

// comparable strips what legitimately differs between two servers
// answering the same question: the cache outcome and wall-clock times.
func comparable(v TuneVerdict) TuneVerdict {
	v.Cache = ""
	v.Plans = append([]PlanResult(nil), v.Plans...)
	for i := range v.Plans {
		v.Plans[i].Profile = nil
	}
	return v
}

// TestAutotuneSetMatchesSingleDevices: every verdict of an all-device
// request — timings, per-plan list, winner, reports — equals the one a
// single-device request for that device gets from a fresh server.
func TestAutotuneSetMatchesSingleDevices(t *testing.T) {
	_, classic := nvdMT()
	search := winsumAutotune("search")
	profiled := winsumAutotune("grover|hoist-addr")
	profiled.Profile = true
	for name, req := range map[string]AutotuneRequest{
		"classic": classic, "search": search, "profile": profiled,
	} {
		t.Run(name, func(t *testing.T) {
			req.Device = "all"
			set := tune(t, newTestServer(t).URL, req)
			if len(set.Results) != len(allDevices) {
				t.Fatalf("%d verdicts, want %d", len(set.Results), len(allDevices))
			}
			single := newTestServer(t)
			for i, dev := range allDevices {
				req.Device = dev
				own := tune(t, single.URL, req).Results[0]
				got := set.Results[i]
				if got.Error != "" || own.Error != "" {
					t.Fatalf("%s: set error %q, own error %q", dev, got.Error, own.Error)
				}
				if !reflect.DeepEqual(comparable(got), comparable(own)) {
					g, _ := json.Marshal(comparable(got))
					o, _ := json.Marshal(comparable(own))
					t.Errorf("%s: set verdict differs from its own request's\n set %s\n own %s", dev, g, o)
				}
				for _, p := range got.Plans {
					if req.Profile && p.Applied && p.Profile == nil {
						t.Errorf("%s: plan %s has no profile", dev, p.Plan)
					}
				}
			}
		})
	}
}

// TestAutotunePartiallyWarm: with two of six device verdicts cached, an
// all-device request computes the other four from one set, counts four
// verdicts and one host execution per distinct kernel it ran, and leaves
// all six cached for single-device requests.
func TestAutotunePartiallyWarm(t *testing.T) {
	ts := newTestServer(t)
	req := winsumAutotune("search")
	warm := map[string]TuneVerdict{}
	for _, dev := range []string{"Kepler", "Nehalem"} {
		req.Device = dev
		warm[dev] = tune(t, ts.URL, req).Results[0]
	}
	var before StatsResponse
	getJSON(t, ts.URL+"/v1/stats", &before)

	req.Device = "all"
	resp := tune(t, ts.URL, req)
	for _, v := range resp.Results {
		want := "miss"
		if w, ok := warm[v.Device]; ok {
			want = "hit"
			if !reflect.DeepEqual(comparable(v), comparable(w)) {
				t.Errorf("%s: cached verdict changed", v.Device)
			}
		}
		if v.Cache != want || v.Error != "" {
			t.Errorf("%s: cache %q error %q, want %s", v.Device, v.Cache, v.Error, want)
		}
	}
	// All seven plans apply, but winsum has three kernels: base's, which
	// grover (no __local to remove) and hoist-addr (nothing to hoist) leave
	// as it is, and stage-local's. base overwrites the patterned output;
	// grover runs base's kernel again on what base left and leaves it be, so
	// grover,hoist-addr, hoist-addr and grover,opt take its timings, and
	// stage-local(ls=16),hoist-addr takes stage-local(ls=16)'s.
	const executed = 3
	var after StatsResponse
	getJSON(t, ts.URL+"/v1/stats", &after)
	be := resp.Backend
	if got := after.Backends[be] - before.Backends[be]; got != 4 {
		t.Errorf("all-device request counted %d computed verdicts, want 4 (2 were cached)", got)
	}
	if got := after.Executions[be] - before.Executions[be]; got != executed {
		t.Errorf("all-device request counted %d host executions, want %d (one per kernel and memory)", got, executed)
	}
	if got := after.Cache.Misses - before.Cache.Misses; got != 4 {
		t.Errorf("all-device request missed the cache %d times, want 4", got)
	}
	for _, dev := range allDevices {
		req.Device = dev
		if v := tune(t, ts.URL, req).Results[0]; v.Cache != "hit" {
			t.Errorf("%s after the all-device request: cache %q, want hit", dev, v.Cache)
		}
	}
	var final StatsResponse
	getJSON(t, ts.URL+"/v1/stats", &final)
	if final.Backends[be] != after.Backends[be] || final.Executions[be] != after.Executions[be] {
		t.Errorf("cache hits were counted as runs: %v/%v → %v/%v",
			after.Backends, after.Executions, final.Backends, final.Executions)
	}
	out := scrape(t, ts.URL)
	for _, want := range []string{
		fmt.Sprintf("groverd_backend_runs_total{backend=%q} %d", be, final.Backends[be]),
		fmt.Sprintf("groverd_host_executions_total{backend=%q} %d", be, final.Executions[be]),
	} {
		if !strings.Contains(out, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
}

// Kernels whose launch fails in one work-group only, so that the other
// host workers are busy with — or waiting for a device model's turn behind
// — groups that will never be delivered.
const (
	divergentSrc = `__kernel void bad(__global float* out) {
  __local float tile[16];
  tile[get_local_id(0)] = 1.0f;
  if (get_group_id(0) != 0 || get_local_id(0) < 8) barrier(CLK_LOCAL_MEM_FENCE);
  out[get_global_id(0)] = tile[0];
}`
	outOfBoundsSrc = `__kernel void bad(__global float* out) {
  __local float tile[16];
  tile[get_local_id(0)] = 1.0f;
  barrier(CLK_LOCAL_MEM_FENCE);
  int i = get_global_id(0);
  if (get_group_id(0) == 0) i += 1 << 28;
  out[i] = tile[0];
}`
)

// TestAutotuneSetKernelFailure: a kernel that fails mid-group fails every
// device of the set with the error a single-device request reports, and
// promptly — nobody is left waiting for the failed group's turn.
func TestAutotuneSetKernelFailure(t *testing.T) {
	// Every device has an even number of cores, so with two host workers a
	// simulated core only ever takes groups from one of them and nobody
	// can wait behind the failed group; with three, host workers cross.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(3))
	for name, src := range map[string]string{"divergent": divergentSrc, "out-of-bounds": outOfBoundsSrc} {
		for _, plan := range []string{"", "search"} {
			t.Run(name+"/plan="+plan, func(t *testing.T) {
				const n = 16 * 128
				req := AutotuneRequest{
					Source: src, Kernel: "bad", Plan: plan,
					Global: [3]int{n, 1, 1}, Local: [3]int{16, 1, 1},
					Args: []ArgSpec{{Kind: "buffer", Size: n * 4}},
				}
				ts := newTestServer(t)
				// A launch that never ends would hold this request forever.
				all := req
				all.Device = "all"
				body, _ := json.Marshal(&all)
				client := &http.Client{Timeout: 30 * time.Second}
				hresp, err := client.Post(ts.URL+"/v1/autotune", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Fatalf("all-device autotune of a failing kernel: %v", err)
				}
				var set AutotuneResponse
				err = json.NewDecoder(hresp.Body).Decode(&set)
				hresp.Body.Close()
				if err != nil || hresp.StatusCode != http.StatusOK {
					t.Fatalf("all-device autotune of a failing kernel: %d %v", hresp.StatusCode, err)
				}
				if len(set.Results) != len(allDevices) {
					t.Fatalf("%d verdicts, want %d", len(set.Results), len(allDevices))
				}
				// Each device reports what a request of its own does, from a
				// fresh server: the failure (a single-device failure is the
				// request's), or — a plan search survives plans that fail
				// while another runs, here the one that drops the barrier —
				// a verdict carrying the failed plans' errors.
				want := "barrier divergence"
				if name == "out-of-bounds" {
					want = "out of bounds"
				}
				single := newTestServer(t)
				for _, v := range set.Results {
					req.Device = v.Device
					var ownResp AutotuneResponse
					code, body := postJSON(t, single.URL+"/v1/autotune", req, &ownResp)
					if code == http.StatusOK {
						if !reflect.DeepEqual(comparable(v), comparable(ownResp.Results[0])) {
							t.Errorf("%s: set verdict %+v, its own request's %+v", v.Device, v, ownResp.Results[0])
						}
						if !strings.Contains(v.Plans[0].Error, want) {
							t.Errorf("%s: base plan error %q does not name the cause (%s)", v.Device, v.Plans[0].Error, want)
						}
						continue
					}
					var own struct{ Error string }
					if err := json.Unmarshal([]byte(body), &own); err != nil || code != http.StatusUnprocessableEntity {
						t.Fatalf("single-device autotune of a failing kernel: %d %s", code, body)
					}
					if v.Error != own.Error {
						t.Errorf("%s: error %q, a request of its own reports %q", v.Device, v.Error, own.Error)
					}
					if plan == "" && !strings.Contains(own.Error, want) {
						t.Errorf("error %q does not name the cause (%s)", own.Error, want)
					}
				}
				// The server is not wedged: a healthy request still answers.
				_, ok := nvdMT()
				ok.Device = "all"
				for _, v := range tune(t, ts.URL, ok).Results {
					if v.Error != "" {
						t.Errorf("%s after a failed set: %s", v.Device, v.Error)
					}
				}
			})
		}
	}
}

// TestAutotuneSetSpans: an all-device request's trace is one tree, not six
// overlapping ones — one tune:<plan> span per applied plan, naming the
// devices it was charged to, with the rewrite and re-prepare stages as its
// children, and a "reused" attribute on the plans whose kernel an earlier
// plan ran — so the top-level spans still account for the request's
// duration.
func TestAutotuneSetSpans(t *testing.T) {
	ts := newTestServer(t)
	req := winsumAutotune("search")
	req.Device = "all"
	req.Runs = 200 // let the three executed kernels dominate the fixed HTTP/JSON overhead
	body, _ := json.Marshal(&req)
	hreq, err := http.NewRequest("POST", ts.URL+"/v1/autotune", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("X-Request-ID", "set-spans")
	hresp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	var resp AutotuneResponse
	if err := json.NewDecoder(hresp.Body).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()

	// The trace enters the ring when the handler returns, which may be
	// after the client has the whole response.
	var trace *telemetry.TraceExport
	for deadline := time.Now().Add(10 * time.Second); trace == nil; time.Sleep(time.Millisecond) {
		var traces TracesResponse
		getJSON(t, ts.URL+"/v1/traces?n=50", &traces)
		for i := range traces.Traces {
			if traces.Traces[i].TraceID == "set-spans" {
				trace = &traces.Traces[i]
			}
		}
		if trace == nil && time.Now().After(deadline) {
			t.Fatal("trace set-spans not in the ring")
		}
	}
	tunes := map[string]uint64{} // plan → span id
	reused := 0
	var top float64
	for _, sp := range trace.Spans {
		if sp.ParentID == 0 {
			top += sp.DurMS
		}
		plan, ok := strings.CutPrefix(sp.Name, "tune:")
		if !ok {
			continue
		}
		if _, dup := tunes[plan]; dup {
			t.Errorf("plan %s has more than one tune span", plan)
		}
		tunes[plan] = sp.ID
		if got := sp.Attrs["devices"]; got != strings.Join(allDevices, ",") {
			t.Errorf("%s: devices attribute %q", sp.Name, got)
		}
		if src, ok := sp.Attrs["reused"]; ok {
			reused++
			if _, ran := tunes[src]; !ran {
				t.Errorf("%s reused %s, which has no earlier tune span", sp.Name, src)
			}
		}
	}
	// The search's plan space holds kernels more than once (see
	// TestAutotunePartiallyWarm): the trace must show which plans ran.
	if reused == 0 {
		t.Error("no tune span is marked reused")
	}
	var executed []string
	for _, p := range resp.Results[0].Plans {
		if p.Applied {
			executed = append(executed, p.Plan)
			if _, ok := tunes[p.Plan]; !ok {
				t.Errorf("executed plan %s has no tune span", p.Plan)
			}
		}
	}
	sort.Strings(executed)
	if len(executed) < 3 {
		t.Fatalf("only %v executed", executed)
	}
	children := map[string]int{}
	for _, sp := range trace.Spans {
		if sp.Name != "rewrite.apply" && sp.Name != "vm.prepare" {
			continue
		}
		for _, id := range tunes {
			if sp.ParentID == id {
				children[sp.Name]++
			}
		}
	}
	// Every plan but base is rewritten and re-prepared once, under its span.
	if children["rewrite.apply"] < len(executed)-1 || children["vm.prepare"] < len(executed)-1 {
		t.Errorf("rewrite/prepare spans under tune spans: %v, want ≥ %d each", children, len(executed)-1)
	}
	if top > trace.DurMS {
		t.Errorf("top-level spans sum to %.3f ms > trace %.3f ms: overlapping trees", top, trace.DurMS)
	}
	if top < 0.9*trace.DurMS {
		t.Errorf("top-level spans explain only %.3f of %.3f ms (< 90%%)", top, trace.DurMS)
	}
}

// TestAutotuneSetCharacterizesOnce: feature vectors are the kernels', so an
// all-device request traces each kernel version once for the whole set
// and every verdict carries the same vectors.
func TestAutotuneSetCharacterizesOnce(t *testing.T) {
	ts := newTestServer(t)
	_, req := nvdMT()
	req.Device = "all"
	req.Characterize = true
	resp := tune(t, ts.URL, req)
	spans := 0
	for _, sp := range resp.Spans {
		if sp.Name == "characterize" {
			spans++
		}
	}
	if spans != 1 {
		t.Errorf("%d characterize spans, want 1 for the set", spans)
	}
	first := resp.Results[0].Characterization
	if first == nil || first.Original == nil || first.Transformed == nil {
		t.Fatalf("missing characterization: %+v", resp.Results[0])
	}
	for _, v := range resp.Results[1:] {
		if !reflect.DeepEqual(v.Characterization, first) {
			t.Errorf("%s: characterization differs from %s's", v.Device, resp.Results[0].Device)
		}
	}

	// Both versions ran once for the set; the characterization launches are
	// traced, not timed, and count as no host execution.
	var stats StatsResponse
	getJSON(t, ts.URL+"/v1/stats", &stats)
	if got := stats.Executions[resp.Backend]; got != 2 {
		t.Errorf("%d host executions, want 2 (one per version)", got)
	}
}
