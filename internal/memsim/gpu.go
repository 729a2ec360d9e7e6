package memsim

import "slices"

// The warp helpers below find distinct values by scanning the ones found
// so far. A warp has at most 64 lanes, so the scan is short, needs no map
// and — unlike a map — yields the values in first-touch order, which is
// the order the hierarchy has to see them in. BankConflictDegree first
// splits the lanes into progression runs, and when they form at most
// maxRuns of them of a shape it knows, charges the access by arithmetic
// on the runs instead.

// Segments appends to dst the distinct segment-aligned blocks a warp's
// simultaneous accesses touch, as block indices (address / segment) in
// first-touch order: lanes in order, each lane's blocks ascending. addrs
// are the byte addresses of the active lanes, sizes their access sizes
// (a missing or non-positive size counts as 4 bytes), segment the
// transaction size in bytes (e.g. 128). Both the transaction count — the
// list's length — and the lines the hierarchy is walked through derive
// from this one list.
func Segments(dst []uint64, addrs []uint64, sizes []int, segment int) []uint64 {
	seg := uint64(segment)
	start := len(dst)
	// top is one past the highest block found so far: a block from there on
	// is new and the one just below is not, without looking, so a warp whose
	// lanes ascend — any unit- or positive-stride column — never scans. lo
	// is the first byte of the block the lane before ended in: a lane inside
	// that block adds nothing and costs no division, and one that does not
	// straddle costs one.
	var top, lo uint64
	for i, a := range addrs {
		sz := 4
		if i < len(sizes) && sizes[i] > 0 {
			sz = sizes[i]
		}
		end := a + uint64(sz) - 1
		if i > 0 && a >= lo && end-lo < seg {
			continue
		}
		last := end / seg
		lo = last * seg
		first := last
		if a < lo {
			first = a / seg
		}
	blocks:
		for s := first; s <= last; s++ {
			switch {
			case s >= top:
				top = s + 1
			case s+1 == top:
				continue blocks
			default:
				for _, t := range dst[start:] {
					if t == s {
						continue blocks
					}
				}
			}
			dst = append(dst, s)
		}
	}
	return dst
}

// BankConflictDegree computes the scratch-pad conflict factor of a warp
// access: the maximum number of distinct addresses mapping to one bank.
// Lanes reading the same address broadcast and do not conflict.
func BankConflictDegree(addrs []uint64, banks, bankWidth int) int {
	if len(addrs) == 0 {
		return 0
	}
	if deg, ok := runConflictDegree(addrs, banks, bankWidth); ok {
		return deg
	}
	// Distinct bank-width words are chained per bank: head[b] is the
	// latest word of bank b and prev links to the one before it, both as
	// index+1 into words with 0 ending the chain. A lane only scans its
	// own bank's chain, so a conflict-free warp costs one step per lane.
	var headScratch, prevScratch [64]int32
	var wordScratch [64]uint64
	head, prev, words := headScratch[:], prevScratch[:0], wordScratch[:0]
	if banks > len(head) {
		head = make([]int32, banks)
	}
	maxDeg := 1
lanes:
	for _, a := range addrs {
		w := a / uint64(bankWidth)
		b := w % uint64(banks)
		deg := 1
		for i := head[b]; i != 0; i = prev[i-1] {
			if words[i-1] == w {
				continue lanes
			}
			deg++
		}
		words, prev = append(words, w), append(prev, head[b])
		head[b] = int32(len(words))
		maxDeg = max(maxDeg, deg)
	}
	return maxDeg
}

// maxRuns is the most runs a warp access is charged from by arithmetic. A
// warp spans one or more rows of its work-group and a lane's address
// usually steps by a constant along a row, so nearly every column is one
// run per row: a 16-wide work-group gives a 32-lane warp two and a 64-lane
// one four.
const maxRuns = 4

// maxRunStride bounds a run's stride, so that no run can travel past the
// end of the address space and back unnoticed.
const maxRunStride = 1 << 32

// run is a progression of consecutive lanes: n lanes at base, base+stride,
// base+2·stride, .... A run of one lane has stride 0.
type run struct {
	base   uint64
	stride int64
	n      int
}

// progressions splits addrs into runs greedily along the warp: a run
// takes its first two lanes' difference as its stride and every lane after
// them that keeps it. It reports false when the lanes take more than
// maxRuns runs, or a run's stride or extent is one the arithmetic does not
// trust (past maxRunStride, or wrapping around the address space).
func progressions(runs *[maxRuns]run, addrs []uint64) (int, bool) {
	k := 0
	for i := 0; i < len(addrs); {
		if k == maxRuns {
			return 0, false
		}
		r := run{base: addrs[i], n: 1}
		if i+1 < len(addrs) {
			d := addrs[i+1] - addrs[i]
			j := i + 2
			for j < len(addrs) && addrs[j]-addrs[j-1] == d {
				j++
			}
			r.stride, r.n = int64(d), j-i
			last := addrs[j-1]
			if r.stride >= maxRunStride || r.stride <= -maxRunStride || r.stride > 0 && last < r.base || r.stride < 0 && last > r.base {
				return 0, false
			}
		}
		runs[k] = r
		k++
		i += r.n
	}
	return k, true
}

// runConflictDegree is BankConflictDegree for lanes that form at most
// maxRuns runs, each either a broadcast (one lane, or stride 0) or a
// whole number of bank-width words apart, where the runs are all
// broadcasts or all the same strided run. A strided run of n lanes with
// word stride d visits every g-th bank, g = gcd(d mod banks, banks), and
// comes back to a bank every banks/g lanes, each time at a new word: its
// degree is ⌈n / (banks/g)⌉. Broadcasts count their distinct words per
// bank. It reports false for any other warp.
func runConflictDegree(addrs []uint64, banks, bankWidth int) (int, bool) {
	var runs [maxRuns]run
	k, ok := progressions(&runs, addrs)
	if !ok {
		return 0, false
	}
	width, nb := uint64(bankWidth), uint64(banks)
	var words [maxRuns]uint64 // the broadcast runs' distinct words
	nw := 0
	var strided *run
	for i := range runs[:k] {
		r := &runs[i]
		if r.stride == 0 || r.n == 1 {
			w := r.base / width
			if !slices.Contains(words[:nw], w) {
				words[nw] = w
				nw++
			}
			continue
		}
		if r.stride%int64(bankWidth) != 0 || strided != nil && *strided != *r {
			return 0, false
		}
		strided = r
	}
	if strided != nil {
		if nw > 0 {
			return 0, false
		}
		d := strided.stride / int64(bankWidth)
		if d < 0 {
			d = -d
		}
		period := nb / gcd(uint64(d)%nb, nb)
		return (strided.n + int(period) - 1) / int(period), true
	}
	deg := 1
	for i, w := range words[:nw] {
		same := 1
		for _, v := range words[i+1 : nw] {
			if v%nb == w%nb {
				same++
			}
		}
		deg = max(deg, same)
	}
	return deg, true
}

// gcd is the greatest common divisor of a and b; gcd(0, b) is b.
func gcd(a, b uint64) uint64 {
	for a != 0 {
		a, b = b%a, a
	}
	return b
}
