package device

import (
	"testing"

	"grover/internal/clc"
	"grover/internal/lower"
	"grover/internal/vm"
)

func TestProfiles(t *testing.T) {
	all := All()
	if len(all) != 6 {
		t.Fatalf("All() = %d profiles, want the paper's 6", len(all))
	}
	names := map[string]Kind{
		"Fermi": GPUKind, "Kepler": GPUKind, "Tahiti": GPUKind,
		"SNB": CPUKind, "Nehalem": CPUKind, "MIC": CPUKind,
	}
	for _, p := range all {
		want, ok := names[p.Name]
		if !ok {
			t.Errorf("unexpected profile %s", p.Name)
			continue
		}
		if p.Kind != want {
			t.Errorf("%s kind = %v, want %v", p.Name, p.Kind, want)
		}
		if p.Cores <= 0 || p.FreqGHz <= 0 {
			t.Errorf("%s has bad cores/frequency", p.Name)
		}
		if p.Kind == GPUKind && (p.WarpWidth <= 0 || p.Segment <= 0 || p.SPMBanks <= 0) {
			t.Errorf("%s missing GPU parameters", p.Name)
		}
		if _, err := NewSimulator(p); err != nil {
			t.Errorf("NewSimulator(%s): %v", p.Name, err)
		}
	}
	if ByName("SNB") == nil || ByName("nope") != nil {
		t.Error("ByName lookup broken")
	}
	if len(CPUs()) != 3 {
		t.Error("CPUs() should return the three cache-only platforms")
	}
	// MIC's architectural signature: no shared LLC level.
	if len(MIC().Caches) != 2 {
		t.Error("MIC should have exactly L1+L2 (distributed last level)")
	}
	if len(SNB().Caches) != 3 || len(Nehalem().Caches) != 3 {
		t.Error("SNB/Nehalem should have L1+L2+LLC")
	}
}

func compile(t *testing.T, src string) *vm.Program {
	t.Helper()
	f, err := clc.Parse("t.cl", src, nil)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	m, err := lower.Module(f)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	p, err := vm.Prepare(m)
	if err != nil {
		t.Fatalf("prepare: %v", err)
	}
	return p
}

// launchWith runs a simple strided-copy kernel through a simulator and
// returns the result.
func launchWith(t *testing.T, prof *Profile, stride int) Result {
	t.Helper()
	p := compile(t, `
__kernel void copy(__global float* dst, __global float* src, int stride) {
    int i = get_global_id(0);
    dst[i] = src[i * stride];
}
`)
	const n = 1024
	g := vm.NewGlobalMem(1 << 24)
	dst := g.Alloc(n * 4)
	src := g.Alloc(n * 4 * max(stride, 1))
	sim, err := NewSimulator(prof)
	if err != nil {
		t.Fatal(err)
	}
	cfg := vm.Config{
		GlobalSize: [3]int{n, 1, 1},
		LocalSize:  [3]int{64, 1, 1},
		Args:       []vm.Arg{vm.BufArg(dst), vm.BufArg(src), vm.IntArg(int64(stride))},
	}
	if err := p.Launch("copy", cfg, g, sim.Opts()); err != nil {
		t.Fatal(err)
	}
	return sim.Result()
}

func TestStridePenaltyOnGPU(t *testing.T) {
	// Uncoalesced (strided) access must cost more than unit stride on a
	// GPU profile — the coalescing model at work.
	seq := launchWith(t, Fermi(), 1)
	strided := launchWith(t, Fermi(), 32)
	if strided.Cycles <= seq.Cycles {
		t.Errorf("strided (%d cycles) should exceed sequential (%d cycles) on Fermi",
			strided.Cycles, seq.Cycles)
	}
	if seq.Transactions == 0 || strided.Transactions <= seq.Transactions {
		t.Errorf("transactions: seq=%d strided=%d", seq.Transactions, strided.Transactions)
	}
}

func TestStridePenaltyOnCPU(t *testing.T) {
	// The CPU cache model must also punish large strides (one line per
	// element instead of 16 elements per line).
	seq := launchWith(t, SNB(), 1)
	strided := launchWith(t, SNB(), 32)
	if strided.Cycles <= seq.Cycles {
		t.Errorf("strided (%d) should exceed sequential (%d) on SNB",
			strided.Cycles, seq.Cycles)
	}
}

func TestDeterminism(t *testing.T) {
	a := launchWith(t, SNB(), 7)
	b := launchWith(t, SNB(), 7)
	if a.Cycles != b.Cycles || a.Instrs != b.Instrs {
		t.Errorf("simulation not deterministic: %+v vs %+v", a, b)
	}
	c := launchWith(t, Kepler(), 7)
	d := launchWith(t, Kepler(), 7)
	if c.Cycles != d.Cycles {
		t.Errorf("GPU simulation not deterministic: %d vs %d", c.Cycles, d.Cycles)
	}
}

func TestSimulatorReset(t *testing.T) {
	prof := SNB()
	sim, err := NewSimulator(prof)
	if err != nil {
		t.Fatal(err)
	}
	p := compile(t, `
__kernel void k(__global float* a) { a[get_global_id(0)] = 1.0f; }
`)
	g := vm.NewGlobalMem(1 << 16)
	buf := g.Alloc(256 * 4)
	cfg := vm.Config{
		GlobalSize: [3]int{256, 1, 1},
		LocalSize:  [3]int{64, 1, 1},
		Args:       []vm.Arg{vm.BufArg(buf)},
	}
	if err := p.Launch("k", cfg, g, sim.Opts()); err != nil {
		t.Fatal(err)
	}
	r1 := sim.Result()
	sim.Reset()
	if err := p.Launch("k", cfg, g, sim.Opts()); err != nil {
		t.Fatal(err)
	}
	r2 := sim.Result()
	if r1.Cycles != r2.Cycles {
		t.Errorf("Reset not clean: %d vs %d cycles", r1.Cycles, r2.Cycles)
	}
	if r1.TimeMS <= 0 {
		t.Error("TimeMS should be positive")
	}
}

func TestBarrierCostCharged(t *testing.T) {
	withBarrier := compile(t, `
__kernel void k(__global float* a) {
    __local float sm[64];
    int lx = get_local_id(0);
    sm[lx] = 1.0f;
    barrier(CLK_LOCAL_MEM_FENCE);
    a[get_global_id(0)] = sm[lx];
}
`)
	withoutBarrier := compile(t, `
__kernel void k(__global float* a) {
    __local float sm[64];
    int lx = get_local_id(0);
    sm[lx] = 1.0f;
    a[get_global_id(0)] = sm[lx];
}
`)
	run := func(p *vm.Program) Result {
		g := vm.NewGlobalMem(1 << 16)
		buf := g.Alloc(256 * 4)
		sim, _ := NewSimulator(SNB())
		cfg := vm.Config{
			GlobalSize: [3]int{256, 1, 1},
			LocalSize:  [3]int{64, 1, 1},
			Args:       []vm.Arg{vm.BufArg(buf)},
		}
		if err := p.Launch("k", cfg, g, sim.Opts()); err != nil {
			t.Fatal(err)
		}
		return sim.Result()
	}
	a := run(withBarrier)
	b := run(withoutBarrier)
	if a.Cycles <= b.Cycles {
		t.Errorf("barrier version (%d) should cost more than barrier-free (%d)", a.Cycles, b.Cycles)
	}
}
