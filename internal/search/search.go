// Package search is the measured plan search behind grover.Tune and every
// figure cell of the evaluation harness. The paper's two kernel versions
// (§VI-A) are the search over base and one grover step.
package search

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"
	"strings"

	"grover/internal/clc"
	igrover "grover/internal/grover"
	"grover/internal/ir"
	"grover/internal/rewrite"
	"grover/internal/telemetry"
	"grover/internal/vm"
	"grover/opencl"
)

// Result reports one device's tuning decision.
type Result struct {
	// UseTransformed is true when the version without local memory won.
	UseTransformed bool
	// Kernel is the winning kernel.
	Kernel *opencl.Kernel
	// OriginalMS and TransformedMS are the simulated times of the base
	// kernel and of the version without local memory (of a plan search:
	// the winning plan).
	OriginalMS    float64
	TransformedMS float64
	// Speedup is original/transformed (>1 means disabling local memory
	// helped — the paper's "normalized performance").
	Speedup float64
	// Report is the transformation report.
	Report *igrover.Report
	// Plan is the winning plan's canonical string when a plan list
	// (LaunchSpec.Plans) was searched; the two-version comparison leaves
	// it, Rewrite and PlanSearch empty.
	Plan string
	// Rewrite is the winning plan's per-step report when a listed plan
	// other than base won.
	Rewrite *rewrite.Report
	// PlanSearch holds one entry per evaluated plan of the list.
	PlanSearch []PlanTiming
}

// PlanTiming is one evaluated plan in a plan search.
type PlanTiming struct {
	// Plan is the canonical plan string.
	Plan string
	// MS is the simulated time; meaningful only when timed.
	MS float64
	// Applied is true when the plan was rewritten and timed, or took an
	// earlier plan's timings; Err says why it was not.
	Applied bool
	// Err records why the plan was skipped: parse failure, illegal
	// transform (a rule's safety analysis rejected it), or a launch error.
	Err string
	// Report is the plan's per-step rewrite report, when it ran.
	Report *rewrite.Report
	// Profile is the plan's execution profile (wall time and
	// retire/traffic counters per barrier-delimited region of the one
	// timed execution) when profiling was asked for (LaunchSpec.Profile).
	Profile *vm.ProfileReport
}

// String renders the decision.
func (r Result) String() string {
	if r.Plan != "" {
		return fmt.Sprintf("plan %s: base %.4f ms, best %.4f ms (np=%.2f, %d plans tried)",
			r.Plan, r.OriginalMS, r.TransformedMS, r.Speedup, len(r.PlanSearch))
	}
	verdict := "keep local memory"
	if r.UseTransformed {
		verdict = "disable local memory"
	}
	return fmt.Sprintf("%s: with LM %.4f ms, without LM %.4f ms (np=%.2f)",
		verdict, r.OriginalMS, r.TransformedMS, r.Speedup)
}

// LaunchSet is the launch environment of a search: the kernel executions
// that ran in its context.
type LaunchSet struct {
	// Launches counts the kernel executions on the host, each charged to
	// every device of the set. A plan that took an earlier plan's timings,
	// its kernel having run already, ran none.
	Launches int
}

// PlanError is a search failure that one plan's execution caused: its
// launch, the check after it, or a store outside the buffers it writes.
type PlanError struct {
	Plan string
	Err  error
}

func (e *PlanError) Error() string { return fmt.Sprintf("grover: timing %s: %v", e.Plan, e.Err) }

func (e *PlanError) Unwrap() error { return e.Err }

// Spec is one search over a program instantiated in the context it runs
// in.
type Spec struct {
	Prog   *opencl.Program
	Kernel string
	Args   []interface{} // built in Prog's context
	ND     opencl.NDRange
	// Plans is the plan space, base always included. Empty is the strict
	// two-version comparison: base and rewrite.GroverStep(Options).
	Plans   []string
	Options igrover.Options
	Profile bool         // a fresh execution profiler per timed plan
	Check   func() error // after each execution, on the memory it left
}

// Run searches s on devs, one execution per distinct kernel charged to
// every device, and returns each device's result in devs order. Every
// execution starts from the memory the search started with: the buffers
// the kernel writes join a snapshot before the first kernel that writes
// them and are restored after each execution, so the buffers of s.Args
// hold their initial bytes again when Run returns.
func Run(ctx context.Context, devs []*opencl.Device, s *Spec) ([]*Result, *LaunchSet, error) {
	vargs, err := opencl.VMArgs(s.Args...)
	if err != nil {
		return nil, nil, err
	}
	q, err := s.Prog.Context().NewProfilingQueueSet(devs...)
	if err != nil {
		return nil, nil, err
	}
	set, mem, snap := &LaunchSet{}, s.Prog.Context().Mem(), snapshot{}
	// With the write set restored, the arena's CRC is the initial one
	// unless a store reached memory outside it.
	initial := crc32.ChecksumIEEE(mem.Data)
	launch := func(k *opencl.Kernel) (ms []float64, prof *vm.ProfileReport, err error) {
		set.Launches++
		ws := writeSet(k.Program().Module().Kernel(s.Kernel), vargs, len(mem.Data))
		snap.save(mem.Data, ws)
		var p *vm.Profiler
		if s.Profile {
			p = vm.NewProfiler()
			q.SetKernelProfiler(p)
		}
		evts, err := q.EnqueueNDRange(k, s.ND, s.Args...)
		if p != nil {
			prof = p.Report()
		}
		if err == nil && s.Check != nil {
			err = s.Check()
		}
		snap.restore(mem.Data, ws)
		if crc32.ChecksumIEEE(mem.Data) != initial {
			return nil, nil, errStrayStore
		}
		ms = make([]float64, len(evts))
		for d, evt := range evts {
			ms[d] = evt.Duration()
		}
		return ms, prof, err
	}
	plans, twoVersions := withBasePlan(s.Plans), len(s.Plans) == 0
	if twoVersions {
		if plans, err = versionPlans(s.Prog, s.Kernel, s.Options); err != nil {
			return nil, nil, err
		}
	}
	res, err := measurePlans(ctx, s.Prog, s.Kernel, plans, twoVersions, launch, devs)
	if err != nil {
		return nil, nil, err
	}
	if twoVersions {
		versions(res)
	}
	return res, set, nil
}

// errStrayStore is an out-of-bounds store into a buffer no snapshot holds:
// the engines bound a store by the arena, not by the buffer.
var errStrayStore = errors.New("the kernel stored outside the buffers it writes")

// setLaunch executes a kernel once and returns its simulated time on every
// device of a set, in the set's order, and its profile when one was asked
// for.
type setLaunch func(k *opencl.Kernel) ([]float64, *vm.ProfileReport, error)

// withBasePlan puts "base" in front of a plan list that does not have it.
func withBasePlan(plans []string) []string {
	for _, ps := range plans {
		if p, err := rewrite.ParsePlan(ps); err == nil && len(p.Steps) == 0 {
			return plans
		}
	}
	return append([]string{rewrite.BasePlanName}, plans...)
}

// versionPlans is the two-version tune as a plan space: base and the
// grover step opts spell. A kernel the step does not match has no version
// without local memory, which is ErrNoCandidates before anything launches.
func versionPlans(prog *opencl.Program, kernel string, opts igrover.Options) ([]string, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	step := rewrite.GroverStep(opts)
	if fn := prog.Module().Kernel(kernel); fn != nil && !rewrite.Lookup("grover").Match(fn, step.Opts) {
		return nil, igrover.ErrNoCandidates
	}
	noLM := &rewrite.Plan{Steps: []rewrite.Step{step}}
	return []string{rewrite.BasePlanName, noLM.String()}, nil
}

// versions reads the two-version verdict off a search over versionPlans:
// TransformedMS is the grover plan's time and Report its step's report,
// whichever plan won, and the search's own fields stay empty.
func versions(results []*Result) {
	for _, r := range results {
		g := r.PlanSearch[1]
		r.TransformedMS, r.Speedup = g.MS, r.OriginalMS/g.MS
		r.Report = g.Report.Steps[0].Grover
		r.Plan, r.PlanSearch, r.Rewrite = "", nil, nil
	}
}

// measurePlans is the measured plan search for devs on prog — the program
// of the launch environment the set runs in: each plan is rewritten and
// prepared once and each distinct kernel executed once, every execution is
// charged to all of the set's cost models (launch returns one time per
// device, in devs order), and each device gets its own timings and winner.
// Every plan starts from the memory the search started with (see Run), so
// a plan whose kernel an earlier plan already ran takes that run's timings
// and profile instead of executing. A plan that fails to rewrite or to
// launch is recorded and skipped, or, when strict, fails the search with
// its error; a stray store always fails it.
func measurePlans(ctx context.Context, prog *opencl.Program, kernel string, plans []string, strict bool,
	launch setLaunch, devs []*opencl.Device) ([]*Result, error) {
	orig, err := prog.Kernel(kernel)
	if err != nil {
		return nil, err
	}
	names := make([]string, len(devs))
	for i, d := range devs {
		names[i] = d.Name()
	}
	devices := strings.Join(names, ",")

	type best struct {
		k       *opencl.Kernel
		ms      float64
		plan    string
		rewrite *rewrite.Report
	}
	results := make([]*Result, len(devs))
	bests := make([]best, len(devs))
	for i := range results {
		results[i] = &Result{}
	}
	// record files one plan's outcome with every device: the shared part
	// in t and, when the plan was timed (ms non-nil), the device's own
	// time.
	record := func(t PlanTiming, k *opencl.Kernel, ms []float64) {
		for i := range devs {
			if ms != nil {
				t.MS = ms[i]
				if t.Plan == rewrite.BasePlanName {
					results[i].OriginalMS = t.MS
				}
				if b := &bests[i]; b.plan == "" || t.MS < b.ms {
					*b = best{k, t.MS, t.Plan, t.Report}
				}
			}
			results[i].PlanSearch = append(results[i].PlanSearch, t)
		}
	}
	// memo holds, by module key, the timings of every execution that
	// succeeded: each starts from the same memory and the run is
	// deterministic, so a later plan with the same kernel would time the
	// same.
	type timing struct {
		plan string
		ms   []float64
		prof *vm.ProfileReport
	}
	memo := map[string]timing{}
	for _, ps := range plans {
		p, err := rewrite.ParsePlan(ps)
		if err != nil {
			record(PlanTiming{Plan: ps, Err: err.Error()}, nil, nil)
			continue
		}
		t := PlanTiming{Plan: p.String()}
		// One span per plan per set: the rewrite and re-prepare stages are
		// its children.
		sctx, span := telemetry.StartSpanCtx(ctx, "tune:"+t.Plan)
		span.SetAttr("devices", devices)
		k, mod := orig, prog.Module()
		if len(p.Steps) > 0 {
			var rp *opencl.Program
			// A plan that matched nothing still ends in the standard
			// pipeline; its kernel is an earlier plan's (see memo).
			rp, t.Report, err = prog.WithRewritePlanCtx(sctx, kernel, p)
			if err == nil {
				k, err = rp.Kernel(kernel)
				mod = rp.Module()
			}
			if err != nil {
				span.SetAttr("applied", "false")
				span.End()
				if strict {
					return nil, err
				}
				t.Err = err.Error()
				record(t, nil, nil)
				continue
			}
		}
		key := mod.Key()
		if m, ok := memo[key]; ok {
			span.SetAttr("reused", m.plan)
			span.End()
			t.Applied, t.Profile = true, m.prof
			record(t, k, m.ms)
			continue
		}
		ms, prof, err := launch(k)
		span.End()
		t.Profile = prof
		if err != nil {
			if strict || errors.Is(err, errStrayStore) {
				return nil, &PlanError{t.Plan, err}
			}
			t.Err = fmt.Sprintf("timing: %v", err)
			record(t, nil, nil)
			continue
		}
		memo[key] = timing{t.Plan, ms, t.Profile}
		t.Applied = true
		record(t, k, ms)
	}
	if bests[0].plan == "" {
		return nil, fmt.Errorf("grover: no plan could be evaluated for kernel %q", kernel)
	}
	for i, res := range results {
		b := bests[i]
		res.Plan = b.plan
		res.Kernel = b.k
		res.TransformedMS = b.ms
		if res.OriginalMS > 0 {
			res.Speedup = res.OriginalMS / b.ms
		}
		if b.plan != rewrite.BasePlanName {
			res.UseTransformed = true
			res.Rewrite = b.rewrite
			for _, st := range b.rewrite.Steps {
				if st.Grover != nil {
					res.Report = st.Grover
				}
			}
		}
	}
	return results, nil
}

// region is a byte range [off, end) of the context's global memory.
type region struct{ off, end int }

// writeSet is what a launch of fn with args may store to: the buffers
// bound to the parameters outside __local that some store reaches
// (ir.RootOf; an alloca is private or __local storage), or the
// whole arena of size bytes when a store's pointer does not resolve or fn
// calls a user function.
func writeSet(fn *ir.Function, args []vm.Arg, size int) []region {
	all := []region{{0, size}}
	var ws []region
	for _, b := range fn.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpCall {
				return all
			}
			if in.Op != ir.OpStore {
				continue
			}
			switch r := ir.RootOf(in.Args[0]).(type) {
			case nil:
				return all
			case *ir.Param:
				if r.Space == clc.ASLocal {
					continue
				}
				if r.Index >= len(args) || args[r.Index].Buf == nil {
					return all
				}
				buf := args[r.Index].Buf
				if w := (region{int(buf.Off), int(buf.Off) + buf.Size}); !slices.Contains(ws, w) {
					ws = append(ws, w)
				}
			}
		}
	}
	return ws
}

// snapshot holds the initial bytes of every region an executed kernel
// writes. An all-zero region is held as nil and restored with clear.
type snapshot map[region][]byte

// save adds the regions of ws it does not hold yet.
func (s snapshot) save(mem []byte, ws []region) {
	for _, r := range ws {
		if _, ok := s[r]; !ok {
			s[r] = nil
			if b := mem[r.off:r.end]; bytes.Count(b, []byte{0}) != len(b) {
				s[r] = slices.Clone(b)
			}
		}
	}
}

// restore puts the regions of ws back as save found them.
func (s snapshot) restore(mem []byte, ws []region) {
	for _, r := range ws {
		if b := s[r]; b != nil {
			copy(mem[r.off:r.end], b)
		} else {
			clear(mem[r.off:r.end])
		}
	}
}
