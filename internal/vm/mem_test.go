package vm

import (
	"testing"
	"testing/quick"

	"grover/internal/clc"
)

// TestAddrEncoding round-trips address space tags.
func TestAddrEncoding(t *testing.T) {
	check := func(off uint32) bool {
		for _, sp := range []clc.AddrSpace{clc.ASPrivate, clc.ASGlobal, clc.ASLocal} {
			a := MakeAddr(sp, uint64(off))
			gotSp, gotOff := SplitAddr(a)
			if gotOff != uint64(off) {
				return false
			}
			wantSp := sp
			if gotSp != wantSp {
				return false
			}
		}
		// Constant space maps onto global.
		a := MakeAddr(clc.ASConstant, uint64(off))
		sp, _ := SplitAddr(a)
		return sp == clc.ASGlobal
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestMemScalarRoundTrip round-trips every scalar kind through memory.
func TestMemScalarRoundTrip(t *testing.T) {
	m := &memView{global: make([]byte, 64)}
	addr := MakeAddr(clc.ASGlobal, 8)
	intKinds := []clc.ScalarKind{clc.KChar, clc.KUChar, clc.KShort, clc.KUShort,
		clc.KInt, clc.KUInt, clc.KLong, clc.KULong}
	for _, k := range intKinds {
		want := clc.NormInt(-123456789, k)
		if err := m.storeScalar(addr, k, rv{i: want}); err != nil {
			t.Fatalf("%s store: %v", k, err)
		}
		got, err := m.loadScalar(addr, k)
		if err != nil {
			t.Fatalf("%s load: %v", k, err)
		}
		if got.i != want {
			t.Errorf("%s round trip: %d != %d", k, got.i, want)
		}
	}
	for _, k := range []clc.ScalarKind{clc.KFloat, clc.KDouble} {
		want := 3.14159
		if k == clc.KFloat {
			want = float64(float32(want))
		}
		if err := m.storeScalar(addr, k, rv{f: want}); err != nil {
			t.Fatal(err)
		}
		got, err := m.loadScalar(addr, k)
		if err != nil {
			t.Fatal(err)
		}
		if got.f != want {
			t.Errorf("%s round trip: %g != %g", k, got.f, want)
		}
	}
}

// TestMemBoundsChecked verifies out-of-range accesses error out.
func TestMemBoundsChecked(t *testing.T) {
	m := &memView{global: make([]byte, 16), local: make([]byte, 8), private: make([]byte, 8)}
	if _, err := m.loadScalar(MakeAddr(clc.ASGlobal, 20), clc.KInt); err == nil {
		t.Error("global OOB load accepted")
	}
	if err := m.storeScalar(MakeAddr(clc.ASLocal, 8), clc.KInt, rv{}); err == nil {
		t.Error("local OOB store accepted")
	}
	if _, err := m.loadScalar(MakeAddr(clc.ASPrivate, 6), clc.KInt); err == nil {
		t.Error("private partially-OOB load accepted")
	}
}
