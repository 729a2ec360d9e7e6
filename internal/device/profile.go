// Package device models the six platforms of the paper's evaluation
// (Fermi, Kepler, Tahiti GPUs; Nehalem, Sandy Bridge CPUs; Knights Corner
// MIC) as trace-driven cost models over the memsim hierarchy:
//
//   - CPU-class devices execute a work-group's items serially on one core
//     (as the Intel OpenCL runtime does), every global and __local access
//     goes through that core's cache hierarchy (local memory is ordinary
//     cached memory on CPUs), and barriers pay a per-work-item fiber
//     switch cost.
//   - GPU-class devices execute in warps/wavefronts: per-warp instruction
//     issue, a coalescing unit turning warp accesses into segment
//     transactions that then go through the device cache hierarchy, a
//     banked scratch-pad for __local, and cheap hardware barriers.
//
// Cache geometries are scaled down ~8× from the real parts, matching the
// benchmark datasets which are scaled down ~8-64× from the paper's; this
// keeps every capacity/conflict regime (which side of the cache a working
// set falls on) the same while keeping simulation times reasonable. See
// DESIGN.md §2.
package device

import "grover/internal/memsim"

// Kind classifies the execution model.
type Kind int

// Device kinds.
const (
	// CPUKind devices serialize work-items per core and have no
	// scratch-pad: __local lives in cached ordinary memory.
	CPUKind Kind = iota
	// GPUKind devices execute warps in lockstep with a coalescing unit
	// and an on-chip scratch-pad.
	GPUKind
)

func (k Kind) String() string {
	if k == GPUKind {
		return "gpu"
	}
	return "cpu"
}

// Profile is one simulated platform.
type Profile struct {
	Name string
	Kind Kind
	// Cores is the number of CPU cores or GPU compute units: work-group g
	// of a launch is charged to core g mod Cores (a Set runs the launch on
	// GOMAXPROCS host workers, however many cores the model has).
	Cores int
	// FreqGHz converts cycles to wall-clock time.
	FreqGHz float64

	// IssueCost is cycles per retired instruction: per work-item on CPUs,
	// per warp on GPUs.
	IssueCost float64
	// BarrierCost is cycles per work-item (CPU fiber switch) or per warp
	// (GPU hardware barrier).
	BarrierCost int64
	// PrivCost is cycles per private-memory access (registers/stack).
	PrivCost int64

	// Caches is the per-core hierarchy, innermost first. For shared last
	// level caches the spec models one core's share. GPU profiles may
	// leave out levels (e.g. Fermi/Kepler do not cache global loads in
	// L1).
	Caches []memsim.CacheSpec
	// DRAMLatency is the backstop cost in cycles.
	DRAMLatency int64

	// GPU-only knobs.
	WarpWidth int // lanes per warp/wavefront
	Segment   int // coalescing transaction size in bytes
	TransCost int64
	SPMLat    int64
	SPMBanks  int
	BankWidth int
}

// line64 is the line size shared by every profile.
const line64 = 64

// SNB is the Sandy Bridge CPU profile (paper: dual Xeon E5-2650, here one
// socket scaled). Unified, inclusive LLC.
func SNB() *Profile {
	return &Profile{
		Name: "SNB", Kind: CPUKind, Cores: 8, FreqGHz: 2.0,
		IssueCost: 1.0, BarrierCost: 40, PrivCost: 1,
		Caches: []memsim.CacheSpec{
			{Name: "L1", Sets: 8, Ways: 8, LineSize: line64, Latency: 4},      // 4 KiB (32 KiB /8)
			{Name: "L2", Sets: 64, Ways: 8, LineSize: line64, Latency: 12},    // 32 KiB (256 KiB /8)
			{Name: "LLC", Sets: 256, Ways: 16, LineSize: line64, Latency: 28}, // 256 KiB share (2.5 MiB/core /8 ≈)
		},
		DRAMLatency: 180,
	}
}

// Nehalem is the previous-generation Intel CPU: same core counts, slower
// uncore, smaller LLC share, higher memory latency.
func Nehalem() *Profile {
	return &Profile{
		Name: "Nehalem", Kind: CPUKind, Cores: 8, FreqGHz: 2.26,
		IssueCost: 1.25, BarrierCost: 55, PrivCost: 1,
		Caches: []memsim.CacheSpec{
			{Name: "L1", Sets: 8, Ways: 8, LineSize: line64, Latency: 4},
			{Name: "L2", Sets: 64, Ways: 8, LineSize: line64, Latency: 14},
			{Name: "LLC", Sets: 128, Ways: 16, LineSize: line64, Latency: 38}, // 128 KiB share
		},
		DRAMLatency: 220,
	}
}

// MIC is the Xeon Phi (Knights Corner) profile: many slow in-order cores,
// a private L2 per core and a *distributed* last-level (no shared LLC
// level at all — the architectural difference §VI-C credits for the small
// with/without-local-memory gaps).
func MIC() *Profile {
	return &Profile{
		Name: "MIC", Kind: CPUKind, Cores: 60, FreqGHz: 1.05,
		IssueCost: 5.0, BarrierCost: 20, PrivCost: 1,
		Caches: []memsim.CacheSpec{
			{Name: "L1", Sets: 8, Ways: 8, LineSize: line64, Latency: 3},
			{Name: "L2", Sets: 128, Ways: 8, LineSize: line64, Latency: 22}, // 64 KiB (512 KiB /8)
		},
		DRAMLatency: 260,
	}
}

// Fermi is the NVIDIA GTX580-class GPU: global loads bypass L1 and go to
// a modest shared L2 (per-SM share modeled), strong coalescing
// sensitivity, fast scratch-pad.
func Fermi() *Profile {
	return &Profile{
		Name: "Fermi", Kind: GPUKind, Cores: 16, FreqGHz: 1.54,
		IssueCost: 1.0, BarrierCost: 24, PrivCost: 0,
		WarpWidth: 32, Segment: 128, TransCost: 2,
		SPMLat: 2, SPMBanks: 32, BankWidth: 4,
		Caches: []memsim.CacheSpec{
			{Name: "L2", Sets: 64, Ways: 6, LineSize: 128, Latency: 10}, // 48 KiB share of 768 KiB
		},
		DRAMLatency: 60,
	}
}

// Kepler is the NVIDIA GTX680-class GPU: more, slower warps per SMX,
// global loads uncached in L1, larger L2 share.
func Kepler() *Profile {
	return &Profile{
		Name: "Kepler", Kind: GPUKind, Cores: 8, FreqGHz: 1.06,
		IssueCost: 0.5, BarrierCost: 20, PrivCost: 0,
		WarpWidth: 32, Segment: 128, TransCost: 2,
		SPMLat: 2, SPMBanks: 32, BankWidth: 4,
		Caches: []memsim.CacheSpec{
			{Name: "L2", Sets: 64, Ways: 8, LineSize: 128, Latency: 8}, // 64 KiB share of 512 KiB
		},
		DRAMLatency: 55,
	}
}

// Tahiti is the AMD HD7970-class GPU: 64-lane wavefronts, a read/write
// per-CU L1 vector cache in front of the L2 share — the cache that lets
// de-staged matmul keep its data on chip.
func Tahiti() *Profile {
	return &Profile{
		Name: "Tahiti", Kind: GPUKind, Cores: 32, FreqGHz: 0.925,
		IssueCost: 1.0, BarrierCost: 20, PrivCost: 0,
		WarpWidth: 64, Segment: 64, TransCost: 5,
		SPMLat: 10, SPMBanks: 32, BankWidth: 4,
		Caches: []memsim.CacheSpec{
			{Name: "L1", Sets: 32, Ways: 4, LineSize: 128, Latency: 1}, // 16 KiB per CU
			{Name: "L2", Sets: 32, Ways: 6, LineSize: 128, Latency: 8}, // 24 KiB share of 768 KiB
		},
		DRAMLatency: 25,
	}
}

// All returns the six paper platforms in the paper's order.
func All() []*Profile {
	return []*Profile{Fermi(), Kepler(), Tahiti(), SNB(), Nehalem(), MIC()}
}

// CPUs returns the three cache-only platforms of Figure 10.
func CPUs() []*Profile {
	return []*Profile{SNB(), Nehalem(), MIC()}
}

// ByName returns the named profile, or nil.
func ByName(name string) *Profile {
	for _, p := range All() {
		if p.Name == name {
			return p
		}
	}
	return nil
}
