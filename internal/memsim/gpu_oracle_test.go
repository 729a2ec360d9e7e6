package memsim

import (
	"math/rand"
	"slices"
	"testing"
)

// The map-based warp helpers the scan-based ones replaced, kept as
// oracles. oracleSegments is the hierarchy-charging walk that used to
// follow the transaction count in device and profit, with its size rule.

func oracleSize(sizes []int, i int) int {
	if i < len(sizes) && sizes[i] > 0 {
		return sizes[i]
	}
	return 4
}

func oracleSegments(addrs []uint64, sizes []int, segment int) []uint64 {
	var order []uint64
	seen := map[uint64]struct{}{}
	for i, a := range addrs {
		firstSeg := a / uint64(segment)
		lastSeg := (a + uint64(oracleSize(sizes, i)) - 1) / uint64(segment)
		for s := firstSeg; s <= lastSeg; s++ {
			if _, ok := seen[s]; ok {
				continue
			}
			seen[s] = struct{}{}
			order = append(order, s)
		}
	}
	return order
}

func oracleBankConflictDegree(addrs []uint64, banks, bankWidth int) int {
	if len(addrs) == 0 {
		return 0
	}
	perBank := map[int]map[uint64]struct{}{}
	for _, a := range addrs {
		b := int((a / uint64(bankWidth)) % uint64(banks))
		if perBank[b] == nil {
			perBank[b] = map[uint64]struct{}{}
		}
		perBank[b][a/uint64(bankWidth)] = struct{}{}
	}
	maxDeg := 1
	for _, m := range perBank {
		if len(m) > maxDeg {
			maxDeg = len(m)
		}
	}
	return maxDeg
}

// randomWarp draws one warp access: a lane count up to past the 64-lane
// scratch, and one of the address patterns the models distinguish
// (broadcast, unit stride, power-of-two stride, scattered, clustered near
// zero, descending, an ascending run that starts over every few lanes),
// with sizes from 0 (the hazard) to a 16-byte vector and one that spans
// several segments.
func randomWarp(r *rand.Rand) (addrs []uint64, sizes []int) {
	lanes := 1 + r.Intn(64)
	if r.Intn(8) == 0 {
		lanes = 65 + r.Intn(64)
	}
	base := uint64(r.Intn(1 << 16))
	if r.Intn(4) == 0 {
		base = 0
	}
	stride := uint64([]int{0, 1, 4, 8, 64, 128, 132, 4096}[r.Intn(8)])
	pattern := r.Intn(5)
	sizeChoices := []int{0, 1, 2, 4, 4, 4, 8, 16, 100}
	uniformSize := sizeChoices[r.Intn(len(sizeChoices))]
	mixed := r.Intn(3) == 0
	for l := 0; l < lanes; l++ {
		var a uint64
		switch pattern {
		case 0:
			a = base + uint64(l)*stride
		case 1:
			a = uint64(r.Intn(1 << 14))
		case 2:
			a = base + uint64(lanes-1-l)*stride
		case 3:
			a = base + uint64(l%5)*stride
		default:
			a = base + uint64(r.Intn(8))*stride
		}
		addrs = append(addrs, a)
		sz := uniformSize
		if mixed {
			sz = sizeChoices[r.Intn(len(sizeChoices))]
		}
		sizes = append(sizes, sz)
	}
	if r.Intn(5) == 0 {
		sizes = sizes[:r.Intn(len(sizes))] // missing sizes default to 4
	}
	return addrs, sizes
}

// progressionWarp draws a warp access shaped like the columns the engines
// record: one to four runs of lanes (a 2D work-group's rows), each a
// broadcast or a progression with a word, byte, negative or
// beyond-a-segment stride, a later run sometimes repeating an earlier one
// or continuing a row pitch further on; lanes up to 64 and past it, sizes
// as randomWarp's, one for every lane or mixed.
func progressionWarp(r *rand.Rand) (addrs []uint64, sizes []int) {
	lanes := []int{1, 2, 16, 32, 33, 48, 64, 65 + r.Intn(64), 1 + r.Intn(64)}[r.Intn(9)]
	runs := 1 + r.Intn(4)
	strides := []int64{0, 0, 1, 2, 4, 4, 8, 16, -4, -8, 12, 64, 128, 132, 256, 512, 4096, int64(r.Intn(300)) - 150}
	base := uint64(1<<20 + r.Intn(1<<16))
	var prevBase uint64
	var prevStride int64
	for k := 0; k < runs; k++ {
		n := lanes / runs
		if k == runs-1 {
			n = lanes - len(addrs)
		}
		b, stride := base+uint64(r.Intn(1<<12)), strides[r.Intn(len(strides))]
		switch {
		case k > 0 && r.Intn(3) == 0: // the same lanes again
			b, stride = prevBase, prevStride
		case k > 0 && r.Intn(3) == 0: // the next row of a pitched array
			b, stride = prevBase+uint64([]int{16, 64, 72, 128, 512}[r.Intn(5)]), prevStride
		}
		for j := 0; j < n; j++ {
			addrs = append(addrs, b+uint64(int64(j)*stride))
		}
		prevBase, prevStride = b, stride
	}
	sizeChoices := []int{0, 1, 2, 4, 4, 4, 8, 16, 100}
	size := sizeChoices[r.Intn(len(sizeChoices))]
	mixed := r.Intn(5) == 0
	for range addrs {
		if mixed {
			size = sizeChoices[r.Intn(len(sizeChoices))]
		}
		sizes = append(sizes, size)
	}
	if r.Intn(10) == 0 {
		sizes = sizes[:r.Intn(len(sizes)+1)] // missing sizes default to 4
	}
	return addrs, sizes
}

// checkWarpHelpers fails t unless Segments and BankConflictDegree give the
// map oracles' answers for one warp access.
func checkWarpHelpers(t *testing.T, scratch []uint64, addrs []uint64, sizes []int, seg, banks, width int) []uint64 {
	t.Helper()
	scratch = Segments(scratch[:0], addrs, sizes, seg)
	if want := oracleSegments(addrs, sizes, seg); !slices.Equal(scratch, want) {
		t.Fatalf("Segments(%v, %v, %d) = %v, want %v", addrs, sizes, seg, scratch, want)
	}
	if got, want := BankConflictDegree(addrs, banks, width), oracleBankConflictDegree(addrs, banks, width); got != want {
		t.Fatalf("BankConflictDegree(%v, %d, %d) = %d, want %d", addrs, banks, width, got, want)
	}
	return scratch
}

var (
	oracleSegmentSizes = []int{32, 64, 128}
	oracleBankings     = [][2]int{{32, 4}, {16, 4}, {32, 8}, {48, 4}, {64, 4}, {96, 4}}
)

// TestWarpHelpersMatchMapOracles: random lanes and progression-shaped
// lanes, the second kind's degree often charged from runs, against the
// oracles.
func TestWarpHelpersMatchMapOracles(t *testing.T) {
	r := rand.New(rand.NewSource(20140909))
	var scratch []uint64
	for _, warp := range []func(*rand.Rand) ([]uint64, []int){randomWarp, progressionWarp} {
		runDegs := 0
		for i := 0; i < 20000; i++ {
			addrs, sizes := warp(r)
			seg := oracleSegmentSizes[r.Intn(len(oracleSegmentSizes))]
			bk := oracleBankings[r.Intn(len(oracleBankings))]
			scratch = checkWarpHelpers(t, scratch, addrs, sizes, seg, bk[0], bk[1])
			if _, ok := runConflictDegree(addrs, bk[0], bk[1]); ok {
				runDegs++
			}
		}
		t.Logf("%d of 20000 bank-conflict degrees from runs", runDegs)
	}
}

// TestRunPathShapes pins which warps' bank-conflict degree the run path
// charges and which it leaves to the scan.
func TestRunPathShapes(t *testing.T) {
	rows := func(n, width int, base, stride, pitch uint64) []uint64 {
		var out []uint64
		for l := 0; l < n; l++ {
			out = append(out, base+uint64(l/width)*pitch+uint64(l%width)*stride)
		}
		return out
	}
	for _, tc := range []struct {
		what  string
		addrs []uint64
		sizes []int
		degs  bool
	}{
		{"one unit-stride row", rows(32, 32, 4096, 4, 0), uniform(32, 4), true},
		{"two rows of 16", rows(32, 16, 4096, 4, 512), uniform(32, 4), false},
		{"the same row twice", rows(32, 16, 4096, 4, 0), uniform(32, 4), true},
		{"two broadcast rows", rows(32, 16, 4096, 0, 512), uniform(32, 4), true},
		{"four rows of a 64-lane warp", rows(64, 16, 4096, 8, 1024), uniform(64, 8), false},
		{"a descending row", rows(32, 32, 4096, ^uint64(3), 0), uniform(32, 4), true},
		{"a stride past the segment", rows(32, 32, 4096, 132, 0), uniform(32, 4), true},
		{"a byte stride", rows(32, 32, 4096, 2, 0), uniform(32, 2), false},
		{"mixed sizes", rows(32, 32, 4096, 4, 0), append(uniform(31, 4), 8), true},
		{"five rows", rows(40, 8, 4096, 4, 512), uniform(40, 4), false},
	} {
		if _, ok := runConflictDegree(tc.addrs, 32, 4); ok != tc.degs {
			t.Errorf("%s: bank-conflict degree from runs %v, want %v", tc.what, ok, tc.degs)
		}
		checkWarpHelpers(t, nil, tc.addrs, tc.sizes, 128, 32, 4)
	}
}

// TestBankConflictDegreeIgnoresACommonShift: adding k·bankWidth to every
// lane moves each word to the bank k further on, for every lane alike, so
// neither the degree nor the path that charges it changes. The device's GPU
// model relies on this to charge local offsets as they are.
func TestBankConflictDegreeIgnoresACommonShift(t *testing.T) {
	r := rand.New(rand.NewSource(20140910))
	for _, banks := range []int{32, 48} {
		for _, width := range []int{4, 8} {
			for _, warp := range []func(*rand.Rand) ([]uint64, []int){randomWarp, progressionWarp} {
				var runs, chains int
				for i := 0; i < 5000; i++ {
					addrs, _ := warp(r)
					k := []uint64{1, 7, uint64(banks), uint64(banks) + 1, 1 << 38, uint64(r.Intn(1 << 20))}[r.Intn(6)]
					shifted := make([]uint64, len(addrs))
					for j, a := range addrs {
						shifted[j] = a + k*uint64(width)
					}
					deg, viaRuns := BankConflictDegree(addrs, banks, width), false
					if _, ok := runConflictDegree(addrs, banks, width); ok {
						viaRuns, runs = true, runs+1
					} else {
						chains++
					}
					if got := BankConflictDegree(shifted, banks, width); got != deg {
						t.Fatalf("%d banks of %d bytes: degree %d, %d after adding %d words to %v", banks, width, deg, got, k, addrs)
					}
					if _, ok := runConflictDegree(shifted, banks, width); ok != viaRuns {
						t.Fatalf("%d banks of %d bytes: from runs %v, %v after adding %d words to %v", banks, width, viaRuns, ok, k, addrs)
					}
				}
				if runs == 0 || chains == 0 {
					t.Errorf("%d banks of %d bytes: %d warps charged from runs and %d by the chain, want both", banks, width, runs, chains)
				}
			}
		}
	}
}

// uniform is n lanes' sizes, all size.
func uniform(n, size int) []int {
	sizes := make([]int, n)
	for i := range sizes {
		sizes[i] = size
	}
	return sizes
}

// FuzzWarpHelpers: a warp of up to four rows, each a progression, with
// some lanes moved off it, gets the map oracles' segments and degree.
func FuzzWarpHelpers(f *testing.F) {
	f.Add(uint8(32), uint64(4096), int64(4), uint8(2), int64(64), uint8(3), uint8(2), uint8(0), []byte{})
	f.Add(uint8(64), uint64(100), int64(0), uint8(4), int64(516), uint8(4), uint8(1), uint8(3), []byte{5, 9})
	f.Add(uint8(33), uint64(7), int64(-8), uint8(1), int64(0), uint8(7), uint8(0), uint8(2), []byte{})
	f.Add(uint8(32), uint64(0), int64(132), uint8(2), int64(4), uint8(1), uint8(2), uint8(4), []byte{31, 1, 0, 200})
	f.Fuzz(func(t *testing.T, lanes uint8, base uint64, stride int64, rows uint8, pitch int64, size, seg, banking uint8, moves []byte) {
		n := 1 + int(lanes)%128
		perRow := (n + int(rows)%4) / (1 + int(rows)%4)
		base = 1<<44 + base%(1<<44) // far from both ends of the address space
		stride, pitch = stride%(1<<16), pitch%(1<<20)
		addrs := make([]uint64, n)
		for l := range addrs {
			addrs[l] = base + uint64(int64(l/perRow)*pitch+int64(l%perRow)*stride)
		}
		for i := 0; i+1 < len(moves); i += 2 {
			addrs[int(moves[i])%n] += uint64(moves[i+1])
		}
		sizes := uniform(n, []int{0, 1, 2, 4, 8, 16, 100, 4}[size%8])
		bk := oracleBankings[int(banking)%len(oracleBankings)]
		checkWarpHelpers(t, nil, addrs, sizes, oracleSegmentSizes[int(seg)%len(oracleSegmentSizes)], bk[0], bk[1])
	})
}

// TestCoalesce: the 128-byte blocks of warp accesses whose answer is
// known. The transaction count of the coalescing rule is the list's length.
func TestCoalesce(t *testing.T) {
	lanes := func(stride, base uint64) []uint64 {
		out := make([]uint64, 32)
		for i := range out {
			out[i] = base + uint64(i)*stride
		}
		return out
	}
	fours := make([]int, 32)
	for i := range fours {
		fours[i] = 4
	}
	for _, tc := range []struct {
		what  string
		addrs []uint64
		sizes []int
		want  []uint64
	}{
		{"32 consecutive floats: one segment", lanes(4, 0), fours, []uint64{0}},
		{"a 512-byte stride: a segment per lane", lanes(512, 0), fours, lanes(4, 0)},
		{"a broadcast", lanes(0, 4096), fours, []uint64{32}},
		{"no lanes", nil, nil, nil},
		{"16 bytes over a boundary", []uint64{120}, []int{16}, []uint64{0, 1}},
	} {
		if got := Segments(nil, tc.addrs, tc.sizes, 128); !slices.Equal(got, tc.want) {
			t.Errorf("%s: segments %v, want %v", tc.what, got, tc.want)
		}
	}
}

// A size-0 access at address 0 used to wrap (0 + 0 - 1) / segment in the
// hierarchy walk and loop ~2^57 times; it counts as 4 bytes everywhere.
func TestSegmentsNonPositiveSize(t *testing.T) {
	for _, sz := range []int{0, -8} {
		got := Segments(nil, []uint64{0, 126}, []int{sz, sz}, 128)
		if want := []uint64{0, 1}; !slices.Equal(got, want) {
			t.Errorf("size %d: segments %v, want %v", sz, got, want)
		}
		if n := len(Segments(nil, []uint64{0}, []int{sz}, 128)); n != 1 {
			t.Errorf("size %d: %d transactions, want 1", sz, n)
		}
	}
}

func TestWarpHelpersDoNotAllocate(t *testing.T) {
	addrs := make([]uint64, 64)
	sizes := make([]int, 64)
	for i := range addrs {
		addrs[i] = uint64(i * 132)
		sizes[i] = 4
	}
	scratch := make([]uint64, 0, 128)
	allocs := testing.AllocsPerRun(100, func() {
		scratch = Segments(scratch[:0], addrs, sizes, 128)
		_ = BankConflictDegree(addrs, 32, 4)
	})
	if allocs != 0 {
		t.Errorf("warp helpers allocate %.0f objects per warp access, want 0", allocs)
	}
}
