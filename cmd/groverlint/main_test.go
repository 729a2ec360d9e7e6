package main

import (
	"testing"

	"grover/internal/service"
)

// warnOnlySrc produces exactly one warning-severity finding (a may-run-
// past-the-end local bounds warning behind a guard) and no errors, under
// both the base IR and any plan that leaves the access in place — the
// fixture for proving -Werror applies uniformly with and without -plan.
const warnOnlySrc = `__kernel void w(__global float* out, __global float* in, int n) {
    __local float tile[16];
    int lx = get_local_id(0);
    tile[lx] = in[get_global_id(0)];
    barrier(CLK_LOCAL_MEM_FENCE);
    float v = 0.0f;
    if (n > 0) {
        v = tile[lx + 1];
    }
    out[get_global_id(0)] = v;
}
`

// lintExit lints warnOnlySrc as one lint request and returns the exit
// status it earns.
func lintExit(werror bool, plan string) int {
	l := &linter{srv: service.New(service.Config{Workers: 1}), werror: werror, quiet: true}
	l.lint(service.LintRequest{Name: "w.cl", Source: warnOnlySrc, Local: [3]int{16, 1, 1}, Plan: plan})
	return l.exit
}

// TestWerrorUniformAcrossPlan is the regression test for -Werror and
// -plan composing: warnings found in plan-rewritten IR must drive the
// exit status exactly like warnings found in the base IR.
func TestWerrorUniformAcrossPlan(t *testing.T) {
	cases := []struct {
		name   string
		werror bool
		plan   string
		want   int
	}{
		{"base", false, "", 0},
		{"base-werror", true, "", 1},
		{"plan", false, "hoist-addr", 0},
		{"plan-werror", true, "hoist-addr", 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := lintExit(c.werror, c.plan); got != c.want {
				t.Errorf("werror=%v plan=%q: exit = %d, want %d", c.werror, c.plan, got, c.want)
			}
		})
	}
}

// TestWerrorDoesNotMaskPlanFailure: an illegal/unparseable plan stays a
// usage-level failure (exit 2), not a -Werror finding.
func TestPlanApplyFailureExitsTwo(t *testing.T) {
	if got := lintExit(true, "stage-local(ls=0)"); got != 2 {
		t.Errorf("illegal plan: exit = %d, want 2", got)
	}
}
