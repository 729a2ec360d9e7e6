package memsim

// The warp helpers below find distinct values by scanning the ones found
// so far. A warp has at most 64 lanes, so the scan is short, needs no map
// and — unlike a map — yields the values in first-touch order, which is
// the order the hierarchy has to see them in.

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
