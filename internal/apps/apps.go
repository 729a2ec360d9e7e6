// Package apps contains the paper's 11 benchmark applications (Table I /
// Table III rows), re-implemented in the supported OpenCL C subset with
// the same local-memory staging patterns as the originals:
//
//	AMD-SS     StringSearch      pattern staged, shared by all work-items
//	AMD-MT     MatrixTranspose   float4 vector-type transpose
//	NVD-MT     Transpose         classic tile staging (paper Fig. 1)
//	AMD-RG     RecursiveGaussian transpose-style staging kernel
//	AMD-MM     MatrixMul         float4 matmul, column-wise staged matrix
//	NVD-MM-A   MatrixMul         remove local memory for matrix A only
//	NVD-MM-B   MatrixMul         remove local memory for matrix B only
//	NVD-MM-AB  MatrixMul         remove both
//	NVD-NBody  NBody             body tiles broadcast through local memory
//	PAB-ST     Stencil           tile staging for the stencil center
//	ROD-SC     Streamcluster     strided gather of one point's coordinates
//
// Every app carries a host-side setup (input generation, launch geometry
// with the benchmark's default work-group size) and a correctness check
// against a host reference, used to validate the Grover transformation
// exactly as §VI-A does ("after the transformation, each benchmark still
// runs correctly").
package apps

import (
	"fmt"
	"math"
	"strings"
	"sync"

	"grover/opencl"
)

// Instance is one configured run of an application.
type Instance struct {
	// ND is the launch geometry (the benchmark's default work-group
	// size, per §V-B).
	ND opencl.NDRange
	// Args are the kernel arguments in declaration order.
	Args []interface{}
	// Check validates device results against the host reference, which the
	// process's first Check at this scale computes and every later one, of
	// any instance, reuses.
	Check func() error
	// Bytes is the total dataset size (for reports).
	Bytes int
}

// App is one benchmark application.
type App struct {
	// ID is the paper's benchmark identifier (e.g. "NVD-MT").
	ID string
	// Origin names the source suite.
	Origin string
	// Description is a one-line summary.
	Description string
	// Kernel is the kernel to transform and run.
	Kernel string
	// Source is the OpenCL C program.
	Source string
	// Defines are extra preprocessor definitions.
	Defines map[string]string
	// Candidates restricts which __local variables Grover removes (the
	// NVD-MM-A/B/AB variants); empty removes all.
	Candidates []string
	// Setup builds buffers and arguments at the given scale (1 = the
	// default dataset).
	Setup func(ctx *opencl.Context, scale int) (*Instance, error)
}

// All returns the 11 benchmark rows in the paper's order.
func All() []*App {
	return []*App{
		AMDSS(), AMDMT(), NVDMT(), AMDRG(), AMDMM(),
		NVDMMA(), NVDMMB(), NVDMMAB(), NVDNBody(), PABST(), RODSC(),
	}
}

// ByID returns the application with the given paper identifier.
func ByID(id string) (*App, error) {
	for _, a := range All() {
		if a.ID == id {
			return a, nil
		}
	}
	return nil, fmt.Errorf("apps: unknown benchmark %q", id)
}

// PlanSpace is the differential rewrite-plan list for a, launched with
// work-group size local: the Grover direction pinned to the app's candidate
// set, address hoisting alone and combined, a phase-order variant, and —
// for 1D launches — the inverse stage-local direction plus the
// stage-local→grover round trip.
func (a *App) PlanSpace(local [3]int) []string {
	g := "grover"
	if len(a.Candidates) > 0 {
		g = fmt.Sprintf("grover(cands=%s)", strings.Join(a.Candidates, "+"))
	}
	plans := []string{
		g,
		g + ",hoist-addr",
		"hoist-addr",
		g + ",opt(passes=cse+load-forward+dse+peephole+dce)",
	}
	if local[0] > 1 && local[1] <= 1 && local[2] <= 1 {
		plans = append(plans,
			fmt.Sprintf("stage-local(ls=%d)", local[0]),
			fmt.Sprintf("stage-local(ls=%d),grover", local[0]))
	}
	return plans
}

// ---------------------------------------------------------------- helpers

// refKey names a host reference: which computation, at which scale.
type refKey struct {
	name  string
	scale int
}

// refs holds one host reference per (computation, scale) for the process.
// Every input is an opencl.Pattern draw the scale fixes, so each Setup at a
// scale would compute the same values: the first Check computes them and
// every instance's Check at that scale reuses them.
var refs sync.Map // refKey → func() []float32

// reference returns the process's memoized host reference name at scale;
// compute is called the first time any instance asks for it. The slice it
// returns is shared and must not be written.
func reference(name string, scale int, compute func() []float32) func() []float32 {
	key := refKey{name, scale}
	if f, ok := refs.Load(key); ok {
		return f.(func() []float32)
	}
	f, _ := refs.LoadOrStore(key, sync.OnceValue(compute))
	return f.(func() []float32)
}

// almostEqual compares with a relative+absolute tolerance suited to
// float32 accumulation.
func almostEqual(a, b float32, tol float64) bool {
	d := math.Abs(float64(a) - float64(b))
	if d <= tol {
		return true
	}
	m := math.Max(math.Abs(float64(a)), math.Abs(float64(b)))
	return d <= tol*m
}

func compare(name string, got, want []float32, tol float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: length %d != %d", name, len(got), len(want))
	}
	for i := range got {
		if !almostEqual(got[i], want[i], tol) {
			return fmt.Errorf("%s: element %d = %g, want %g", name, i, got[i], want[i])
		}
	}
	return nil
}
