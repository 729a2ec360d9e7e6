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

func TestWarpHelpersMatchMapOracles(t *testing.T) {
	r := rand.New(rand.NewSource(20140909))
	segments := []int{32, 64, 128}
	bankings := [][2]int{{32, 4}, {16, 4}, {32, 8}, {48, 4}, {96, 4}}
	var scratch []uint64
	for i := 0; i < 20000; i++ {
		addrs, sizes := randomWarp(r)
		seg := segments[r.Intn(len(segments))]
		scratch = Segments(scratch[:0], addrs, sizes, seg)
		if want := oracleSegments(addrs, sizes, seg); !slices.Equal(scratch, want) {
			t.Fatalf("Segments(%v, %v, %d) = %v, want %v", addrs, sizes, seg, scratch, want)
		}
		bk := bankings[r.Intn(len(bankings))]
		if got, want := BankConflictDegree(addrs, bk[0], bk[1]), oracleBankConflictDegree(addrs, bk[0], bk[1]); got != want {
			t.Fatalf("BankConflictDegree(%v, %d, %d) = %d, want %d", addrs, bk[0], bk[1], got, want)
		}
	}
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
