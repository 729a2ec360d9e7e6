package harness

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"grover/internal/apps"
	"grover/internal/device"
	"grover/internal/vm"
	"grover/opencl"
)

func TestRunCaseTranspose(t *testing.T) {
	app, err := apps.ByID("NVD-MT")
	if err != nil {
		t.Fatal(err)
	}
	m, err := RunCase(app, "SNB", Config{Validate: true})
	if err != nil {
		t.Fatal(err)
	}
	if m.WithLM <= 0 || m.WithoutLM <= 0 {
		t.Fatalf("non-positive times: %+v", m)
	}
	if m.NP <= 1.05 {
		t.Errorf("NVD-MT on SNB should gain from disabling local memory, np = %.2f", m.NP)
	}
	if m.Classify() != Gain {
		t.Errorf("classify = %v, want gain", m.Classify())
	}
	if m.Report == nil || !m.Report.Transformed() {
		t.Error("missing transformation report")
	}
}

// TestRunCaseDefaultEngine: Config.Backend selects nothing. A case runs
// on the engine whether or not it names it, and naming any other engine —
// the interpreter, or one of those removed in PRs 15 and 16 — fails the
// case, naming the engine that runs.
func TestRunCaseDefaultEngine(t *testing.T) {
	app, err := apps.ByID("NVD-MT")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"", vm.Engine()} {
		if _, err := RunCase(app, "SNB", Config{Backend: name}); err != nil {
			t.Errorf("RunCase with Backend %q: %v", name, err)
		}
	}
	other := vm.BackendInterp
	if vm.Engine() == other {
		other = vm.BackendWgvec
	}
	for _, name := range []string{other, "bcode", "jit"} {
		_, err := RunCase(app, "SNB", Config{Backend: name})
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%q: launches run on %s", name, vm.Engine())) {
			t.Errorf("RunCase with Backend %q: %v; want an error naming the engine", name, err)
		}
	}
}

// TestRunSetEqualsRunCase: one set of six devices reports, field by field,
// what six single-device cases do, for Fig. 2's apps.
func TestRunSetEqualsRunCase(t *testing.T) {
	var names []string
	for _, p := range device.All() {
		names = append(names, p.Name)
	}
	for _, id := range []string{"NVD-MT", "NVD-MM-A"} {
		app, err := apps.ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		set, err := RunSet(app, names, Config{Validate: true})
		if err != nil {
			t.Fatal(err)
		}
		if len(set) != len(names) {
			t.Fatalf("%s: %d measurements for %d devices", id, len(set), len(names))
		}
		for i, name := range names {
			one, err := RunCase(app, name, Config{Validate: true})
			if err != nil {
				t.Fatal(err)
			}
			got := set[i]
			if got.App != one.App || got.Device != one.Device || got.WithLM != one.WithLM ||
				got.WithoutLM != one.WithoutLM || got.NP != one.NP || got.Items != one.Items {
				t.Errorf("%s on %s: set %+v, case %+v", id, name, got, one)
			}
			if got.Report.String() != one.Report.String() {
				t.Errorf("%s on %s: reports differ:\n%s\nvs\n%s", id, name, got.Report, one.Report)
			}
		}
	}
}

func TestRunCaseGPULoss(t *testing.T) {
	app, err := apps.ByID("NVD-MT")
	if err != nil {
		t.Fatal(err)
	}
	m, err := RunCase(app, "Kepler", Config{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Classify() != Loss {
		t.Errorf("NVD-MT on Kepler should lose without local memory, np = %.2f", m.NP)
	}
}

func TestClassifyThreshold(t *testing.T) {
	cases := []struct {
		np   float64
		want Verdict
	}{
		{1.00, Similar}, {1.04, Similar}, {0.96, Similar},
		{1.06, Gain}, {2.0, Gain},
		{0.94, Loss}, {0.5, Loss},
	}
	for _, c := range cases {
		m := &Measurement{NP: c.np}
		if got := m.Classify(); got != c.want {
			t.Errorf("Classify(np=%.2f) = %v, want %v", c.np, got, c.want)
		}
	}
}

func TestMakeTable4(t *testing.T) {
	ms := []*Measurement{
		{Device: "SNB", NP: 1.5}, {Device: "SNB", NP: 0.8}, {Device: "SNB", NP: 1.0},
		{Device: "MIC", NP: 1.2}, {Device: "MIC", NP: 1.01},
	}
	tab := MakeTable4(ms)
	if tab.Total != 5 {
		t.Errorf("total = %d", tab.Total)
	}
	if tab.Gain["SNB"] != 1 || tab.Loss["SNB"] != 1 || tab.Similar["SNB"] != 1 {
		t.Errorf("SNB tally wrong: %+v", tab)
	}
	if tab.Gain["MIC"] != 1 || tab.Similar["MIC"] != 1 {
		t.Errorf("MIC tally wrong: %+v", tab)
	}
	s := tab.String()
	for _, frag := range []string{"Gain", "Loss", "Similar", "SNB", "MIC", "%"} {
		if !strings.Contains(s, frag) {
			t.Errorf("rendered table missing %q:\n%s", frag, s)
		}
	}
}

func TestStaticTables(t *testing.T) {
	t1 := Table1()
	for _, id := range []string{"AMD-SS", "NVD-MT", "NVD-MM-AB", "ROD-SC", "PAB-ST"} {
		if !strings.Contains(t1, id) {
			t.Errorf("Table1 missing %s", id)
		}
	}
	t2 := Table2()
	for _, d := range []string{"Fermi", "Kepler", "Tahiti", "SNB", "Nehalem", "MIC"} {
		if !strings.Contains(t2, d) {
			t.Errorf("Table2 missing %s", d)
		}
	}
}

func TestTable3AllBenchmarks(t *testing.T) {
	s, err := Table3()
	if err != nil {
		t.Fatal(err)
	}
	for _, app := range apps.All() {
		if !strings.Contains(s, app.ID) {
			t.Errorf("Table3 missing %s", app.ID)
		}
	}
	// The transpose rows must show the swapped solution from the paper.
	if !strings.Contains(s, "lx := ly, ly := lx") {
		t.Error("Table3 missing the transpose swap solution")
	}
	// The shared-pattern rows (AMD-SS/ROD-SC) map lx to the loop index.
	if !strings.Contains(s, "lx := j") {
		t.Error("Table3 missing the shared-tile loop-index solution")
	}
}

func TestRenderFigure(t *testing.T) {
	ms := []*Measurement{
		{App: "A", Device: "SNB", NP: 1.5, WithLM: 2, WithoutLM: 4.0 / 3},
		{App: "B", Device: "SNB", NP: 0.5, WithLM: 1, WithoutLM: 2},
	}
	s := RenderFigure("test", ms)
	for _, frag := range []string{"SNB", "A", "B", "gain", "loss", "|"} {
		if !strings.Contains(s, frag) {
			t.Errorf("figure missing %q:\n%s", frag, s)
		}
	}
}

func TestRunCaseDeterministic(t *testing.T) {
	app, err := apps.ByID("AMD-SS")
	if err != nil {
		t.Fatal(err)
	}
	a, err := RunCase(app, "Nehalem", Config{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunCase(app, "Nehalem", Config{})
	if err != nil {
		t.Fatal(err)
	}
	if a.WithLM != b.WithLM || a.WithoutLM != b.WithoutLM {
		t.Errorf("non-deterministic measurements: %+v vs %+v", a, b)
	}
}

func TestFigGPUSingle(t *testing.T) {
	// Smoke the GPU path of RunCase (warp formation + coalescing) on the
	// cheapest app.
	app, err := apps.ByID("AMD-SS")
	if err != nil {
		t.Fatal(err)
	}
	m, err := RunCase(app, "Fermi", Config{Validate: true})
	if err != nil {
		t.Fatal(err)
	}
	if m.WithLM <= 0 || m.WithoutLM <= 0 {
		t.Fatalf("bad GPU timing: %+v", m)
	}
}

// TestRunCaseNamesTheFailedVersion: a validation failure says which kernel
// and which of its two versions failed. The app copy's Check passes after
// the first launch (with local memory) and fails after the second (local
// memory disabled).
func TestRunCaseNamesTheFailedVersion(t *testing.T) {
	orig, err := apps.ByID("NVD-MT")
	if err != nil {
		t.Fatal(err)
	}
	app := *orig
	app.Setup = func(ctx *opencl.Context, scale int) (*apps.Instance, error) {
		inst, err := orig.Setup(ctx, scale)
		if err != nil {
			return nil, err
		}
		check, checks := inst.Check, 0
		inst.Check = func() error {
			if checks++; checks == 2 {
				return errors.New("mismatch at element 3")
			}
			return check()
		}
		return inst, nil
	}
	_, err = RunCase(&app, "SNB", Config{Validate: true})
	if err == nil {
		t.Fatal("the failing check went unreported")
	}
	for _, want := range []string{app.ID, app.Kernel, "local memory disabled", "mismatch at element 3"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not say %q", err, want)
		}
	}
	if strings.Contains(err.Error(), "with local memory") {
		t.Errorf("error %q blames the version that passed", err)
	}
}

// TestValidateChecksEachTimedLaunch: with Validate, the host reference is
// checked once after the timed launch of each version, and only then: a
// set of three checks twice, without Validate never.
func TestValidateChecksEachTimedLaunch(t *testing.T) {
	orig, err := apps.ByID("AMD-MT")
	if err != nil {
		t.Fatal(err)
	}
	checks := 0
	app := *orig
	app.Setup = func(ctx *opencl.Context, scale int) (*apps.Instance, error) {
		inst, err := orig.Setup(ctx, scale)
		if err != nil {
			return nil, err
		}
		check := inst.Check
		inst.Check = func() error { checks++; return check() }
		return inst, nil
	}
	devs := []string{"SNB", "Nehalem", "MIC"}
	for _, c := range []struct {
		validate bool
		want     int
	}{{true, 2}, {false, 0}} {
		checks = 0
		if _, err := RunSet(&app, devs, Config{Validate: c.validate}); err != nil {
			t.Fatal(err)
		}
		if checks != c.want {
			t.Errorf("Validate %v: %d checks, want %d", c.validate, checks, c.want)
		}
	}
}
