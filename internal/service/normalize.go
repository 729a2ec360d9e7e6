package service

import (
	"slices"
	"strings"

	"grover"
	"grover/internal/clc"
	"grover/internal/kcache"
	"grover/internal/rewrite"
	"grover/internal/vm"
	"grover/opencl"
)

// A job is what one endpoint computes from a request: its fields hold
// exactly what the computation reads, normalized so that two requests
// asking the same question hold equal jobs. The job is also the cache key
// (jobKey), so no field can be computed on and not keyed. What only shapes
// the response — want_ir, and the device list, since each device's verdict
// has its own key — stays outside.

// program is what a compile reads, and the first part of every job.
type program struct {
	Name    string // "kernel.cl" when the request leaves it empty
	Source  string
	Defines map[string]string // nil when empty
}

// lintJob is a lint of the program after Plan, when set, has rewritten
// Kernel, or every kernel when Kernel is empty. Local's zero dimensions
// mean unknown.
type lintJob struct {
	program
	Kernel string
	Local  [3]int
	Plan   *rewrite.Plan
	Access bool
}

// transformJob applies Plan, or the classic pass with Options when Plan is
// nil.
type transformJob struct {
	program
	Kernel  string
	Plan    *rewrite.Plan
	Options *grover.Options
}

// autotuneJob is a tuning for each of a set of devices: a plan search over
// the canonical Plans, or the two-version tune with Options when Plans is
// nil.
type autotuneJob struct {
	program
	Kernel        string
	Plans         []string
	Options       *grover.Options
	Global, Local [3]int // vm.Config.Normalized
	Args          []arg
	Profile       bool
}

// tuning is a normalized autotune request: the job, and the devices that
// each get its verdict under a key of their own.
type tuning struct {
	job  *autotuneJob
	devs []*opencl.Device
}

// arg is an ArgSpec with only the field its kind reads set. Every field is
// encoded into the key, -0 as well as 0.
type arg struct {
	Kind  string
	Size  int
	Int   int64
	Float float64
}

// maxWorkItems bounds a launch's NDRange. The largest app launch is 65,536
// work-items at scale 1 and 262,144 at scale 2.
const maxWorkItems = 1 << 24

// jobKey is the cache address of what endpoint computes from job: the job
// is the whole key, so a value the computation reads cannot be left out of
// it, and two requests that normalize alike share it.
func jobKey(endpoint string, job any) string { return kcache.Key(endpoint, job) }

func newProgram(name, source string, defines map[string]string) program {
	if name == "" {
		name = "kernel.cl"
	}
	if len(defines) == 0 {
		defines = nil
	}
	return program{Name: name, Source: source, Defines: defines}
}

// normalizeOptions validates the pass options and sorts and deduplicates
// their candidates: the pass reads them as a set.
func normalizeOptions(spec OptionsSpec) (*grover.Options, error) {
	opts := grover.Options{KeepBarriers: spec.KeepBarriers, CloneAll: spec.CloneAll, Strict: spec.Strict}
	if err := (grover.Options{Candidates: spec.Candidates}).Validate(); err != nil {
		return nil, badRequest("%v", err)
	}
	if len(spec.Candidates) > 0 {
		opts.Candidates = slices.Clone(spec.Candidates)
		slices.Sort(opts.Candidates)
		opts.Candidates = slices.Compact(opts.Candidates)
	}
	return &opts, nil
}

func normalizeCompile(req *CompileRequest) (program, error) {
	if req.Source == "" {
		return program{}, badRequest("source is required")
	}
	return newProgram(req.Name, req.Source, req.Defines), nil
}

func normalizeLint(req *LintRequest) (*lintJob, error) {
	if req.Source == "" {
		return nil, badRequest("source is required")
	}
	job := &lintJob{program: newProgram(req.Name, req.Source, req.Defines),
		Kernel: req.Kernel, Local: req.Local, Access: req.Access}
	if req.Plan != "" {
		var err error
		if job.Plan, err = rewrite.ParsePlan(req.Plan); err != nil {
			return nil, badRequest("%v", err)
		}
	}
	return job, nil
}

func normalizeTransform(req *TransformRequest) (*transformJob, error) {
	if req.Source == "" || req.Kernel == "" {
		return nil, badRequest("source and kernel are required")
	}
	job := &transformJob{program: newProgram(req.Name, req.Source, req.Defines), Kernel: req.Kernel}
	var err error
	if req.Plan != "" {
		if job.Plan, err = rewrite.ParsePlan(req.Plan); err != nil {
			return nil, badRequest("%v", err)
		}
	} else if job.Options, err = normalizeOptions(req.Options); err != nil {
		return nil, err
	}
	return job, nil
}

func (s *Server) normalizeAutotune(req *AutotuneRequest) (tuning, error) {
	if req.Source == "" || req.Kernel == "" {
		return tuning{}, badRequest("source and kernel are required")
	}
	job := &autotuneJob{program: newProgram(req.Name, req.Source, req.Defines),
		Kernel: req.Kernel, Profile: req.Profile}
	nd, err := CheckLaunch(req.Global, req.Local, req.Args)
	if err != nil {
		return tuning{}, err
	}
	job.Global, job.Local = nd.Global, nd.Local
	// "search" enumerates the default space for this launch geometry,
	// anything else is "|"-separated plans, each in its canonical spelling.
	if req.Plan == "search" {
		job.Plans = grover.DefaultPlanSpace(job.Local)
	} else if req.Plan != "" {
		for _, ps := range strings.Split(req.Plan, "|") {
			p, err := rewrite.ParsePlan(ps)
			if err != nil {
				return tuning{}, badRequest("%v", err)
			}
			job.Plans = append(job.Plans, p.String())
		}
	}
	if job.Plans == nil {
		if req.Profile {
			return tuning{}, badRequest("profile requires a plan search (set plan)")
		}
		if job.Options, err = normalizeOptions(req.Options); err != nil {
			return tuning{}, err
		}
	}
	devs := s.plat.Devices()
	if req.Device != "" && req.Device != "all" {
		d, err := s.plat.DeviceByName(req.Device)
		if err != nil {
			return tuning{}, notFound("%v", err)
		}
		devs = []*opencl.Device{d}
	}
	job.Args = make([]arg, len(req.Args))
	for i, a := range req.Args {
		switch a.Kind {
		case "buffer", "local":
			job.Args[i] = arg{Kind: a.Kind, Size: a.Size}
		case "int":
			job.Args[i] = arg{Kind: a.Kind, Int: a.Int}
		case "float":
			job.Args[i] = arg{Kind: a.Kind, Float: a.Float}
		}
	}
	return tuning{job, devs}, nil
}

// CheckLaunch is the check every launch's geometry and declared argument
// sizes pass, in groverd and in clrun: a negative or indivisible dimension,
// an NDRange over maxWorkItems and a buffer or local argument over
// clc.MaxObjectBytes, the cap a kernel's own arrays have, are refused
// before anything is allocated. It returns the geometry with zero
// dimensions made 1.
func CheckLaunch(global, local [3]int, args []ArgSpec) (opencl.NDRange, error) {
	cfg := vm.Config{GlobalSize: global, LocalSize: local}
	cfg, err := cfg.Normalized()
	if err != nil {
		return opencl.NDRange{}, badRequest("%v", err)
	}
	items := 1
	for _, n := range cfg.GlobalSize {
		if n > maxWorkItems/items {
			return opencl.NDRange{}, badRequest("global %v exceeds the %d-work-item limit", global, maxWorkItems)
		}
		items *= n
	}
	for i, a := range args {
		switch a.Kind {
		case "buffer", "local":
			if a.Size <= 0 {
				return opencl.NDRange{}, badRequest("arg %d: %s needs a positive size", i, a.Kind)
			}
			if a.Size > clc.MaxObjectBytes {
				return opencl.NDRange{}, badRequest("arg %d: %s size %d exceeds the %d-byte limit", i, a.Kind, a.Size, clc.MaxObjectBytes)
			}
		case "int", "float":
		default:
			return opencl.NDRange{}, badRequest("arg %d: unknown kind %q (want buffer, local, int or float)", i, a.Kind)
		}
	}
	return opencl.NDRange{Global: cfg.GlobalSize, Local: cfg.LocalSize}, nil
}
