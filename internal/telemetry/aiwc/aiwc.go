// Package aiwc computes architecture-independent workload
// characterization (AIWC-style, after Johnston et al.) feature vectors
// for kernel launches: dynamic opcode mix, per-address-space load/store
// counts, unique-address counts and access entropy, barrier counts,
// branch-divergence rate and per-work-item instruction spread.
//
// The characterizer is a vm.Tracer, so it observes exactly the execution
// stream every backend is contractually required to emit bit-identically.
// Features are therefore backend-invariant by construction: the same launch
// characterized on the interpreter or on wgvec produces a byte-identical
// feature vector. They are also worker-count-invariant: per-worker partials
// merge only through commutative integer sums and map unions, and every
// float is derived from the merged integers in a deterministic (sorted)
// order.
//
// Nothing in the tuning path reads these features; the performance
// ledger's aiwc.characterize probe (bench/) is the package's only caller.
package aiwc

import (
	"math"
	"sort"
	"sync"

	"grover/internal/clc"
	"grover/internal/ir"
	"grover/internal/vm"
)

// Features is one launch's architecture-independent feature vector. All
// integer fields are exact dynamic counts; float fields are deterministic
// functions of those counts, so two vectors from the same launch are
// byte-identical however they were executed.
type Features struct {
	// Kernel is the launch's entry point.
	Kernel string `json:"kernel"`
	// Groups and WorkItems count the launch geometry actually executed.
	Groups    int64 `json:"groups"`
	WorkItems int64 `json:"work_items"`

	// Instructions is the total dynamic instruction count (memory
	// operations included); Opcodes is its breakdown — dynamic counts per
	// memory opcode plus "other" for non-memory retired instructions.
	Instructions int64            `json:"instructions"`
	Opcodes      map[string]int64 `json:"opcodes"`

	// Load/store counts per address space.
	GlobalLoads   int64 `json:"global_loads"`
	GlobalStores  int64 `json:"global_stores"`
	LocalLoads    int64 `json:"local_loads"`
	LocalStores   int64 `json:"local_stores"`
	PrivateLoads  int64 `json:"private_loads"`
	PrivateStores int64 `json:"private_stores"`
	// LoadBytes and StoreBytes total the bytes moved (all spaces).
	LoadBytes  int64 `json:"load_bytes"`
	StoreBytes int64 `json:"store_bytes"`

	// Unique addresses touched per space and the Shannon entropy (bits)
	// of the access distribution over them. High entropy means accesses
	// spread evenly over many addresses (streaming); low entropy means a
	// few hot addresses (reuse — the pattern local staging exploits).
	UniqueGlobalAddrs int64   `json:"unique_global_addrs"`
	UniqueLocalAddrs  int64   `json:"unique_local_addrs"`
	GlobalEntropy     float64 `json:"global_entropy_bits"`
	LocalEntropy      float64 `json:"local_entropy_bits"`

	// Barriers counts executed work-group barriers; BarriersPerGroup is
	// the mean.
	Barriers         int64   `json:"barriers"`
	BarriersPerGroup float64 `json:"barriers_per_group"`

	// DivergentGroups counts work-groups whose work-items retired unequal
	// instruction counts — the observable signature of id-dependent
	// control flow. BranchDivergence is the divergent fraction.
	DivergentGroups  int64   `json:"divergent_groups"`
	BranchDivergence float64 `json:"branch_divergence"`

	// Per-work-item instruction spread: min/max across all work-items,
	// the mean, and the coefficient of variation (stddev/mean).
	MinItemInstrs  int64   `json:"min_item_instrs"`
	MaxItemInstrs  int64   `json:"max_item_instrs"`
	MeanItemInstrs float64 `json:"mean_item_instrs"`
	ItemInstrCV    float64 `json:"item_instr_cv"`
}

// Characterizer accumulates features across the workers of one launch.
// Use one Characterizer per launch: pass Opts to the launch, then read
// Features once it returns.
type Characterizer struct {
	kernel string

	mu      sync.Mutex
	workers []*workerChar
}

// New returns a characterizer for one launch of the named kernel.
func New(kernel string) *Characterizer {
	return &Characterizer{kernel: kernel}
}

// TracerFor returns the tracer for one VM worker. It is safe for
// concurrent use (the VM calls it from each worker goroutine).
func (c *Characterizer) TracerFor(worker int) vm.Tracer {
	w := &workerChar{
		opcodes: map[ir.Op]int64{},
		gAddr:   map[uint64]int64{},
		lAddr:   map[uint64]int64{},
	}
	c.mu.Lock()
	c.workers = append(c.workers, w)
	c.mu.Unlock()
	return w
}

// Opts builds launch options that wire this characterizer into a launch.
// workers <= 0 lets the VM pick; the feature vector does not depend on
// the worker count.
func (c *Characterizer) Opts(workers int) *vm.LaunchOpts {
	return &vm.LaunchOpts{Workers: workers, TracerFor: c.TracerFor}
}

// workerChar is the per-worker partial: integer counts only, merged
// commutatively in Features.
type workerChar struct {
	opcodes    map[ir.Op]int64
	loads      [3]int64 // indexed by spaceIdx
	stores     [3]int64
	loadBytes  int64
	storeBytes int64
	gAddr      map[uint64]int64
	lAddr      map[uint64]int64
	barriers   int64
	other      int64

	groups    int64
	divergent int64
	items     int64
	itemMin   int64
	itemMax   int64
	itemSum   int64
	itemSumSq float64 // Σ n², accumulated in deterministic per-group order

	wiTotal []int64 // current group's per-work-item instruction counts
}

const (
	idxGlobal = iota
	idxLocal
	idxPrivate
)

func spaceIdx(s clc.AddrSpace) int {
	switch s {
	case clc.ASGlobal, clc.ASConstant:
		return idxGlobal
	case clc.ASLocal:
		return idxLocal
	default:
		return idxPrivate
	}
}

// GroupBegin implements vm.Tracer.
func (w *workerChar) GroupBegin(group [3]int, linear int) {
	w.wiTotal = w.wiTotal[:0]
}

func (w *workerChar) wi(i int) *int64 {
	for i >= len(w.wiTotal) {
		w.wiTotal = append(w.wiTotal, 0)
	}
	return &w.wiTotal[i]
}

// Access implements vm.Tracer.
func (w *workerChar) Access(in *ir.Instr, wi int, addr uint64, size int, store bool) {
	space, off := vm.SplitAddr(addr)
	si := spaceIdx(space)
	w.opcodes[in.Op]++
	*w.wi(wi)++
	if store {
		w.stores[si]++
		w.storeBytes += int64(size)
	} else {
		w.loads[si]++
		w.loadBytes += int64(size)
	}
	switch si {
	case idxGlobal:
		w.gAddr[off]++
	case idxLocal:
		w.lAddr[off]++
	}
}

// Barrier implements vm.Tracer.
func (w *workerChar) Barrier(wiCount int) { w.barriers++ }

// Instrs implements vm.Tracer.
func (w *workerChar) Instrs(wi int, n int64) {
	w.other += n
	*w.wi(wi) += n
}

// GroupEnd implements vm.Tracer: fold the finished group's per-item
// counts into the aggregate spread statistics.
func (w *workerChar) GroupEnd() {
	w.groups++
	divergent := false
	for i, n := range w.wiTotal {
		if i > 0 && n != w.wiTotal[0] {
			divergent = true
		}
		if w.items == 0 && i == 0 {
			w.itemMin, w.itemMax = n, n
		}
		if n < w.itemMin {
			w.itemMin = n
		}
		if n > w.itemMax {
			w.itemMax = n
		}
		w.items++
		w.itemSum += n
		w.itemSumSq += float64(n) * float64(n)
	}
	if divergent {
		w.divergent++
	}
	w.wiTotal = w.wiTotal[:0]
}

// Features merges the per-worker partials into the launch's feature
// vector. Merging is commutative (sums, map unions, min/max), and every
// derived float is computed from merged integers in sorted order, so the
// result is independent of worker count and scheduling.
func (c *Characterizer) Features() *Features {
	c.mu.Lock()
	workers := append([]*workerChar(nil), c.workers...)
	c.mu.Unlock()

	f := &Features{Kernel: c.kernel, Opcodes: map[string]int64{}}
	ops := map[ir.Op]int64{}
	gAddr := map[uint64]int64{}
	lAddr := map[uint64]int64{}
	var itemSumSq float64
	first := true
	for _, w := range workers {
		for op, n := range w.opcodes {
			ops[op] += n
		}
		f.GlobalLoads += w.loads[idxGlobal]
		f.GlobalStores += w.stores[idxGlobal]
		f.LocalLoads += w.loads[idxLocal]
		f.LocalStores += w.stores[idxLocal]
		f.PrivateLoads += w.loads[idxPrivate]
		f.PrivateStores += w.stores[idxPrivate]
		f.LoadBytes += w.loadBytes
		f.StoreBytes += w.storeBytes
		for a, n := range w.gAddr {
			gAddr[a] += n
		}
		for a, n := range w.lAddr {
			lAddr[a] += n
		}
		f.Barriers += w.barriers
		f.Groups += w.groups
		f.DivergentGroups += w.divergent
		f.WorkItems += w.items
		f.Instructions += w.other
		f.MeanItemInstrs += float64(w.itemSum) // reused as the sum below
		itemSumSq += w.itemSumSq
		if w.items > 0 {
			if first || w.itemMin < f.MinItemInstrs {
				f.MinItemInstrs = w.itemMin
			}
			if first || w.itemMax > f.MaxItemInstrs {
				f.MaxItemInstrs = w.itemMax
			}
			first = false
		}
	}

	f.Opcodes["other"] = f.Instructions
	for op, n := range ops {
		f.Opcodes[op.String()] = n
		f.Instructions += n
	}

	f.UniqueGlobalAddrs = int64(len(gAddr))
	f.UniqueLocalAddrs = int64(len(lAddr))
	f.GlobalEntropy = entropy(gAddr)
	f.LocalEntropy = entropy(lAddr)

	if f.Groups > 0 {
		f.BarriersPerGroup = float64(f.Barriers) / float64(f.Groups)
		f.BranchDivergence = float64(f.DivergentGroups) / float64(f.Groups)
	}
	itemSum := f.MeanItemInstrs
	f.MeanItemInstrs = 0
	if f.WorkItems > 0 {
		mean := itemSum / float64(f.WorkItems)
		f.MeanItemInstrs = mean
		if mean > 0 {
			variance := itemSumSq/float64(f.WorkItems) - mean*mean
			if variance < 0 {
				variance = 0 // float round-off on perfectly uniform kernels
			}
			f.ItemInstrCV = math.Sqrt(variance) / mean
		}
	}
	return f
}

// entropy computes the Shannon entropy (bits) of the access distribution
// over addresses. Keys are summed in sorted order so the float result is
// bit-reproducible for a given histogram.
func entropy(hist map[uint64]int64) float64 {
	if len(hist) == 0 {
		return 0
	}
	addrs := make([]uint64, 0, len(hist))
	var total int64
	for a, n := range hist {
		addrs = append(addrs, a)
		total += n
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	h := 0.0
	for _, a := range addrs {
		p := float64(hist[a]) / float64(total)
		h -= p * math.Log2(p)
	}
	return h
}

// Characterize runs one traced launch of the kernel with a fresh
// characterizer and returns its feature vector. The launch must be
// traced, so it uses the deterministic round-robin group schedule; cfg
// selects the backend exactly as a normal launch would.
func Characterize(p *vm.Program, kernel string, cfg vm.Config, gmem *vm.GlobalMem) (*Features, error) {
	ch := New(kernel)
	if err := p.Launch(kernel, cfg, gmem, ch.Opts(0)); err != nil {
		return nil, err
	}
	return ch.Features(), nil
}
