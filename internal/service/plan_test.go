package service

import (
	"net/http"
	"testing"
)

const planTestSrc = `
#define WG 16
__kernel void winsum(__global float* out, __global float* a, __global float* b, int n) {
    int gid = get_global_id(0);
    int lid = get_local_id(0);
    int grp = get_group_id(0);
    float acc = 0.0f;
    for (int i = 0; i < n; i++) {
        acc += a[gid*n + i] * b[grp*WG + lid];
    }
    out[gid] = acc;
}
`

// TestTransformPlanCacheKeys is the regression test for the artifact-key
// fix: the canonical plan string is part of the transform cache key, so
// two different plans on identical source never collide, while the same
// plan (in any spelling) hits.
func TestTransformPlanCacheKeys(t *testing.T) {
	ts := newTestServer(t)
	url := ts.URL + "/v1/transform"

	req := TransformRequest{
		Name:   "winsum.cl",
		Source: planTestSrc,
		Kernel: "winsum",
		Plan:   "stage-local(ls=16)",
		WantIR: true,
	}
	var first TransformResponse
	if code, body := postJSON(t, url, req, &first); code != http.StatusOK {
		t.Fatalf("transform plan=%q: %d %s", req.Plan, code, body)
	}
	if first.Cache != "miss" || !first.Transformed || first.Plan != "stage-local(ls=16)" {
		t.Fatalf("first response: cache=%s transformed=%v plan=%q", first.Cache, first.Transformed, first.Plan)
	}
	if first.Rewrite == nil || len(first.Rewrite.Steps) == 0 {
		t.Fatalf("plan transform missing rewrite report")
	}

	// A different plan on the same source/kernel/options must be a cache
	// miss with different IR — this is exactly what a key without the plan
	// field would get wrong.
	req2 := req
	req2.Plan = "stage-local(ls=16),grover"
	var second TransformResponse
	if code, body := postJSON(t, url, req2, &second); code != http.StatusOK {
		t.Fatalf("transform plan=%q: %d %s", req2.Plan, code, body)
	}
	if second.Cache != "miss" {
		t.Fatalf("different plan hit the cache: %+v", second)
	}
	if second.IR == first.IR {
		t.Fatalf("two different plans returned identical IR artifacts")
	}

	// The same plan in a different spelling must canonicalize to a hit.
	req3 := req
	req3.Plan = " stage-local( ls=16 ) "
	var third TransformResponse
	if code, body := postJSON(t, url, req3, &third); code != http.StatusOK {
		t.Fatalf("transform plan=%q: %d %s", req3.Plan, code, body)
	}
	if third.Cache != "hit" {
		t.Fatalf("respelled plan missed the cache: cache=%s", third.Cache)
	}
	if third.IR != first.IR {
		t.Fatalf("respelled plan returned a different artifact")
	}

	// The plan-less Grover path must not share an artifact with any plan:
	// winsum has no local memory, so the classic transform fails with 422.
	// A key collision with a plan artifact would return the cached 200.
	req4 := req
	req4.Plan = ""
	if code, _ := postJSON(t, url, req4, nil); code != http.StatusUnprocessableEntity {
		t.Fatalf("classic transform: got %d, want 422 (plan artifact must not leak)", code)
	}
}

func TestTransformPlanBadPlan(t *testing.T) {
	ts := newTestServer(t)
	req := TransformRequest{Source: planTestSrc, Kernel: "winsum", Plan: "bogus-rule"}
	if code, _ := postJSON(t, ts.URL+"/v1/transform", req, nil); code != http.StatusBadRequest {
		t.Fatalf("bad plan: got %d, want 400", code)
	}
}

func winsumAutotune(plan string) AutotuneRequest {
	const g = 64
	return AutotuneRequest{
		Name:   "winsum.cl",
		Source: planTestSrc,
		Kernel: "winsum",
		Device: "SNB",
		Global: [3]int{g, 1, 1},
		Local:  [3]int{16, 1, 1},
		Args: []ArgSpec{
			{Kind: "buffer", Size: g * 4},
			{Kind: "buffer", Size: g * 8 * 4},
			{Kind: "buffer", Size: g * 4},
			{Kind: "int", Int: 8},
		},
		Runs: 1,
		Plan: plan,
	}
}

// TestAutotunePlanSearch runs a plan search on one device and checks the
// per-plan timings, the winner, and that the plan list is part of the
// cache key.
func TestAutotunePlanSearch(t *testing.T) {
	ts := newTestServer(t)
	url := ts.URL + "/v1/autotune"

	var resp AutotuneResponse
	if code, body := postJSON(t, url, winsumAutotune("search"), &resp); code != http.StatusOK {
		t.Fatalf("autotune search: %d %s", code, body)
	}
	if len(resp.Results) != 1 {
		t.Fatalf("want one verdict, got %d", len(resp.Results))
	}
	v := resp.Results[0]
	if v.Error != "" {
		t.Fatalf("verdict error: %s", v.Error)
	}
	if v.Plan == "" || len(v.Plans) < 3 {
		t.Fatalf("plan search verdict incomplete: plan=%q plans=%d", v.Plan, len(v.Plans))
	}
	timed := 0
	for _, p := range v.Plans {
		if p.Applied {
			timed++
		}
	}
	if timed < 2 {
		t.Fatalf("expected at least base and one rewrite to be timed, got %d:\n%+v", timed, v.Plans)
	}

	// A different explicit plan list must not reuse the search's cache
	// entry.
	var resp2 AutotuneResponse
	if code, body := postJSON(t, url, winsumAutotune("grover"), &resp2); code != http.StatusOK {
		t.Fatalf("autotune plan list: %d %s", code, body)
	}
	if resp2.Results[0].Cache != "miss" {
		t.Fatalf("different plan list hit the cache: %+v", resp2.Results[0])
	}

	// Identical plan search again: cache hit.
	var resp3 AutotuneResponse
	if code, body := postJSON(t, url, winsumAutotune("search"), &resp3); code != http.StatusOK {
		t.Fatalf("autotune search again: %d %s", code, body)
	}
	if resp3.Results[0].Cache != "hit" {
		t.Fatalf("repeat search missed the cache: %+v", resp3.Results[0])
	}
}

func TestAutotuneBadPlan(t *testing.T) {
	ts := newTestServer(t)
	if code, _ := postJSON(t, ts.URL+"/v1/autotune", winsumAutotune("nope(x=1)"), nil); code != http.StatusBadRequest {
		t.Fatalf("bad plan: got %d, want 400", code)
	}
}
