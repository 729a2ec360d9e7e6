package rewrite

import (
	"strings"
	"testing"
)

func TestParsePlanCanonical(t *testing.T) {
	cases := []struct {
		in   string
		want string
	}{
		{"", "base"},
		{"base", "base"},
		{"grover", "grover"},
		{" grover , hoist-addr ", "grover,hoist-addr"},
		{"grover(strict)", "grover(strict)"},
		{"grover(strict=true)", "grover(strict)"},
		{"grover(keep-barriers;cands=lm+tile)", "grover(cands=lm+tile;keep-barriers)"},
		{"stage-local(ls=16),grover", "stage-local(ls=16),grover"},
		{"opt(passes=cse+dce)", "opt(passes=cse+dce)"},
	}
	for _, c := range cases {
		p, err := ParsePlan(c.in)
		if err != nil {
			t.Errorf("ParsePlan(%q): %v", c.in, err)
			continue
		}
		if got := p.String(); got != c.want {
			t.Errorf("ParsePlan(%q).String() = %q, want %q", c.in, got, c.want)
		}
		// Canonical strings must round-trip to themselves.
		p2, err := ParsePlan(p.String())
		if err != nil {
			t.Errorf("reparse %q: %v", p.String(), err)
		} else if p2.String() != p.String() {
			t.Errorf("canonical %q reparsed to %q", p.String(), p2.String())
		}
	}
}

func TestParsePlanErrors(t *testing.T) {
	for _, in := range []string{
		"nope",
		"grover,unknown-rule",
		"grover(unclosed",
	} {
		if _, err := ParsePlan(in); err == nil {
			t.Errorf("ParsePlan(%q): expected error", in)
		}
	}
	if _, err := ParsePlan("bogus"); err == nil || !strings.Contains(err.Error(), "grover") {
		t.Errorf("unknown-rule error should list available rules, got %v", err)
	}
}

// TestParsePlanRejectsUnknownOptions: a step may set only the option keys
// its rule lists. A comma inside the parentheses is not a separator, so
// "strict,cands=As" is one key, not two, and must not reach the rule.
func TestParsePlanRejectsUnknownOptions(t *testing.T) {
	for _, c := range []struct {
		in, step, key, accepts string
	}{
		{"grover(strict,cands=As)", "grover(strict,cands=As)", "strict,cands", "cands, keep-barriers, clone-all, strict"},
		{"grover(bogus)", "grover(bogus)", "bogus", "cands, keep-barriers, clone-all, strict"},
		{"stage-local(l=64)", "stage-local(l=64)", "l", "ls"},
		{"grover,hoist-addr(x=1)", "hoist-addr(x=1)", "x", "none"},
	} {
		_, err := ParsePlan(c.in)
		if err == nil {
			t.Errorf("ParsePlan(%q): expected an unknown-option error", c.in)
			continue
		}
		for _, want := range []string{`"` + c.step + `"`, `"` + c.key + `"`, c.accepts} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("ParsePlan(%q) = %v; the error does not say %s", c.in, err, want)
			}
		}
	}
}

func TestStepOpts(t *testing.T) {
	p := MustParsePlan("stage-local(ls=16),grover(strict;cands=lm)")
	s := p.Steps[0]
	if got := s.IntOpt("ls", 0); got != 16 {
		t.Errorf("ls = %d, want 16", got)
	}
	if got := s.IntOpt("missing", 7); got != 7 {
		t.Errorf("missing int opt = %d, want default 7", got)
	}
	g := p.Steps[1]
	if !g.BoolOpt("strict") || g.BoolOpt("keep-barriers") {
		t.Errorf("bool opts wrong: strict=%v keep-barriers=%v", g.BoolOpt("strict"), g.BoolOpt("keep-barriers"))
	}
	if got := g.Opt("cands", ""); got != "lm" {
		t.Errorf("cands = %q", got)
	}
}

func TestRuleRegistry(t *testing.T) {
	names := RuleNames()
	have := map[string]bool{}
	for _, n := range names {
		have[n] = true
	}
	for _, want := range []string{"grover", "stage-local", "hoist-addr", "opt"} {
		if !have[want] {
			t.Errorf("rule %q not registered (have %v)", want, names)
		}
		if Lookup(want) == nil {
			t.Errorf("Lookup(%q) = nil", want)
		}
	}
}
