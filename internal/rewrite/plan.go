package rewrite

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Step is one rule application in a plan: a registered rule name plus its
// per-step options.
type Step struct {
	Rule string
	Opts map[string]string
}

// Opt returns the step option for key, or def when absent.
func (s Step) Opt(key, def string) string {
	if v, ok := s.Opts[key]; ok {
		return v
	}
	return def
}

// BoolOpt interprets the step option for key as a boolean flag: absent is
// false, a bare flag (empty value) or "1"/"true" is true.
func (s Step) BoolOpt(key string) bool {
	v, ok := s.Opts[key]
	if !ok {
		return false
	}
	return v == "" || v == "1" || v == "true"
}

// IntOpt interprets the step option for key as an integer, or def when
// absent or malformed.
func (s Step) IntOpt(key string, def int) int {
	v, ok := s.Opts[key]
	if !ok {
		return def
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return def
	}
	return n
}

// String renders the step canonically: the rule name, followed by the
// options sorted by key inside parentheses when any are set.
func (s Step) String() string {
	if len(s.Opts) == 0 {
		return s.Rule
	}
	keys := sortedKeys(s.Opts)
	parts := make([]string, len(keys))
	for i, k := range keys {
		if v := s.Opts[k]; v == "" {
			parts[i] = k
		} else {
			parts[i] = k + "=" + v
		}
	}
	return s.Rule + "(" + strings.Join(parts, ";") + ")"
}

// Plan is an ordered sequence of rewrite steps. The zero value (no steps)
// is the base plan: no rewrites, just the standard optimization pipeline.
type Plan struct {
	Steps []Step
}

// BasePlanName is the canonical spelling of the empty plan.
const BasePlanName = "base"

// String renders the plan canonically — the form used as a cache-key
// field, so two equivalent plans (same steps, option order permuted)
// render identically. The empty plan renders as "base".
func (p *Plan) String() string {
	if p == nil || len(p.Steps) == 0 {
		return BasePlanName
	}
	parts := make([]string, len(p.Steps))
	for i, s := range p.Steps {
		parts[i] = s.String()
	}
	return strings.Join(parts, ",")
}

// ParsePlan parses a plan string: comma-separated steps, each a registered
// rule name optionally followed by semicolon-separated key=value options
// in parentheses, e.g.
//
//	grover
//	stage-local(ls=64),hoist-addr
//	grover(cands=As+Bs;strict),opt(passes=cse+dce)
//
// "" and "base" parse to the empty plan. Unknown rule names, and option
// keys the rule does not list in Rule.Options, are rejected here so CLI
// and service callers get the error before any IR is touched.
func ParsePlan(s string) (*Plan, error) {
	s = strings.TrimSpace(s)
	if s == "" || s == BasePlanName {
		return &Plan{}, nil
	}
	p := &Plan{}
	for _, item := range splitTop(s) {
		item = strings.TrimSpace(item)
		if item == "" {
			return nil, fmt.Errorf("rewrite: empty step in plan %q", s)
		}
		name := item
		opts := map[string]string{}
		if i := strings.IndexByte(item, '('); i >= 0 {
			if !strings.HasSuffix(item, ")") {
				return nil, fmt.Errorf("rewrite: unterminated options in step %q", item)
			}
			name = item[:i]
			for _, kv := range strings.Split(item[i+1:len(item)-1], ";") {
				kv = strings.TrimSpace(kv)
				if kv == "" {
					continue
				}
				k, v, _ := strings.Cut(kv, "=")
				if v == "true" {
					v = "" // canonical bare-flag spelling ("1" stays: it may be an int)
				}
				opts[k] = v
			}
		}
		rule := Lookup(name)
		if rule == nil {
			return nil, fmt.Errorf("rewrite: unknown rule %q (available: %s)",
				name, strings.Join(RuleNames(), ", "))
		}
		for _, k := range sortedKeys(opts) {
			if !slices.Contains(rule.Options, k) {
				accepts := strings.Join(rule.Options, ", ")
				if accepts == "" {
					accepts = "none"
				}
				return nil, fmt.Errorf("rewrite: step %q: unknown option %q (%s accepts: %s)",
					item, k, name, accepts)
			}
		}
		p.Steps = append(p.Steps, Step{Rule: name, Opts: opts})
	}
	return p, nil
}

func sortedKeys(opts map[string]string) []string {
	keys := make([]string, 0, len(opts))
	for k := range opts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// splitTop splits on commas that are not inside parentheses.
func splitTop(s string) []string {
	var out []string
	depth, start := 0, 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '(':
			depth++
		case ')':
			if depth > 0 {
				depth--
			}
		case ',':
			if depth == 0 {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	return append(out, s[start:])
}

// MustParsePlan is ParsePlan for known-good plan literals (tests, the
// default plan spaces); it panics on error.
func MustParsePlan(s string) *Plan {
	p, err := ParsePlan(s)
	if err != nil {
		panic(err)
	}
	return p
}
