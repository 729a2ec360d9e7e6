// Package vm executes IR kernels over an NDRange with OpenCL work-group
// semantics: work-items within a group run as resumable contexts that are
// suspended at barriers and resumed once the whole group arrives; work
// groups are independent and may be distributed over simulated cores.
//
// Addresses are uint64 values carrying a 2-bit address-space tag in the top
// bits; each space is a flat byte arena (global per launch, local per work
// group, private per work item).
package vm

import (
	"encoding/binary"
	"fmt"
	"math"

	"grover/internal/clc"
)

// Address-space tags (top 2 bits of a pointer).
const (
	tagPrivate uint64 = 0
	tagGlobal  uint64 = 1
	tagLocal   uint64 = 2

	tagShift = 62
	offMask  = (uint64(1) << tagShift) - 1
)

// MakeAddr builds a tagged pointer.
func MakeAddr(space clc.AddrSpace, off uint64) uint64 {
	var tag uint64
	switch space {
	case clc.ASGlobal, clc.ASConstant:
		tag = tagGlobal
	case clc.ASLocal:
		tag = tagLocal
	default:
		tag = tagPrivate
	}
	return tag<<tagShift | (off & offMask)
}

// tagSpaces is the address space each tag names; the unused fourth tag
// reads as private.
var tagSpaces = [4]clc.AddrSpace{tagPrivate: clc.ASPrivate, tagGlobal: clc.ASGlobal, tagLocal: clc.ASLocal, 3: clc.ASPrivate}

// SplitAddr decomposes a tagged pointer. It does not branch, so a caller
// that only wants the offset pays one mask.
func SplitAddr(addr uint64) (space clc.AddrSpace, off uint64) {
	return tagSpaces[addr>>tagShift], addr & offMask
}

// GlobalMem is the device's global memory arena. Buffers are allocated
// sequentially; 256-byte alignment mirrors real device allocators.
type GlobalMem struct {
	Data []byte
}

// NewGlobalMem returns an arena with the given capacity in bytes.
func NewGlobalMem(capacity int) *GlobalMem {
	return &GlobalMem{Data: make([]byte, 0, capacity)}
}

// Buffer is a region of global memory.
type Buffer struct {
	Off  uint64
	Size int
	mem  *GlobalMem
}

// Alloc carves a new buffer out of the arena.
func (g *GlobalMem) Alloc(size int) *Buffer {
	const align = 256
	off := (len(g.Data) + align - 1) &^ (align - 1)
	need := off + size
	if need > cap(g.Data) {
		grown := make([]byte, len(g.Data), max(need, 2*cap(g.Data)))
		copy(grown, g.Data)
		g.Data = grown
	}
	g.Data = g.Data[:need]
	return &Buffer{Off: uint64(off), Size: size, mem: g}
}

// Addr returns the buffer's tagged base pointer.
func (b *Buffer) Addr() uint64 { return MakeAddr(clc.ASGlobal, b.Off) }

// Bytes returns the buffer's backing slice.
func (b *Buffer) Bytes() []byte { return b.mem.Data[b.Off : int(b.Off)+b.Size] }

// WriteFloat32s fills the buffer with float32 values starting at the front.
func (b *Buffer) WriteFloat32s(vals []float32) {
	bs := b.Bytes()
	for i, v := range vals {
		binary.LittleEndian.PutUint32(bs[i*4:], math.Float32bits(v))
	}
}

// ReadFloat32s reads n float32 values from the front of the buffer.
func (b *Buffer) ReadFloat32s(n int) []float32 {
	bs := b.Bytes()
	out := make([]float32, n)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(bs[i*4:]))
	}
	return out
}

// WriteInt32s fills the buffer with int32 values.
func (b *Buffer) WriteInt32s(vals []int32) {
	bs := b.Bytes()
	for i, v := range vals {
		binary.LittleEndian.PutUint32(bs[i*4:], uint32(v))
	}
}

// ReadInt32s reads n int32 values.
func (b *Buffer) ReadInt32s(n int) []int32 {
	bs := b.Bytes()
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(bs[i*4:]))
	}
	return out
}

// WriteBytes copies raw bytes into the buffer.
func (b *Buffer) WriteBytes(p []byte) { copy(b.Bytes(), p) }

// memView bundles the three arenas a work-item sees.
type memView struct {
	global  []byte
	local   []byte
	private []byte
}

// ResolveAccess resolves a tagged address against the arenas one
// work-item sees, for a load or store of size bytes, and checks that the
// access starts inside its arena and does not overrun it. Its errors are
// the out-of-bounds diagnostics of every engine.
func ResolveAccess(addr uint64, size int, store bool, global, local, private []byte) ([]byte, uint64, error) {
	off := addr & offMask
	a, space := private, "private"
	switch addr >> tagShift {
	case tagGlobal:
		a, space = global, "global"
	case tagLocal:
		a, space = local, "local"
	}
	if int(off) >= len(a) {
		return nil, 0, fmt.Errorf("vm: %s access at %d out of bounds (%d)", space, off, len(a))
	}
	if int(off)+size > len(a) {
		what := "load"
		if store {
			what = "store"
		}
		return nil, 0, fmt.Errorf("vm: %s of %d bytes at %d overruns arena (%d)", what, size, off, len(a))
	}
	return a, off, nil
}

// loadScalar reads a scalar of kind k at addr.
func (m *memView) loadScalar(addr uint64, k clc.ScalarKind) (rv, error) {
	a, off, err := ResolveAccess(addr, k.Size(), false, m.global, m.local, m.private)
	switch {
	case err != nil:
		return rv{}, err
	case k.IsFloat():
		return rv{f: LoadFloat(a, off, k)}, nil
	case k.IsInteger():
		return rv{i: LoadInt(a, off, k)}, nil
	}
	return rv{}, fmt.Errorf("vm: load of unsupported type %s", k)
}

// storeScalar writes a scalar of kind k at addr.
func (m *memView) storeScalar(addr uint64, k clc.ScalarKind, v rv) error {
	a, off, err := ResolveAccess(addr, k.Size(), true, m.global, m.local, m.private)
	switch {
	case err != nil:
		return err
	case k.IsFloat():
		StoreFloat(a, off, k, v.f)
	case k.IsInteger():
		StoreInt(a, off, k, v.i)
	default:
		return fmt.Errorf("vm: store of unsupported type %s", k)
	}
	return nil
}

// LoadInt reads the integer of kind k at a[off:], the one memory image of
// an integer both engines read: little-endian, sign- or zero-extended to
// the kind's NormInt representation.
func LoadInt(a []byte, off uint64, k clc.ScalarKind) int64 {
	switch k {
	case clc.KBool, clc.KUChar:
		return int64(a[off])
	case clc.KChar:
		return int64(int8(a[off]))
	case clc.KShort:
		return int64(int16(binary.LittleEndian.Uint16(a[off:])))
	case clc.KUShort:
		return int64(binary.LittleEndian.Uint16(a[off:]))
	case clc.KInt:
		return int64(int32(binary.LittleEndian.Uint32(a[off:])))
	case clc.KUInt:
		return int64(binary.LittleEndian.Uint32(a[off:]))
	default: // KLong, KULong
		return int64(binary.LittleEndian.Uint64(a[off:]))
	}
}

// StoreInt writes v, an integer of kind k, at a[off:] in the image
// LoadInt reads.
func StoreInt(a []byte, off uint64, k clc.ScalarKind, v int64) {
	switch k {
	case clc.KBool, clc.KChar, clc.KUChar:
		a[off] = byte(v)
	case clc.KShort, clc.KUShort:
		binary.LittleEndian.PutUint16(a[off:], uint16(v))
	case clc.KInt, clc.KUInt:
		binary.LittleEndian.PutUint32(a[off:], uint32(v))
	default: // KLong, KULong
		binary.LittleEndian.PutUint64(a[off:], uint64(v))
	}
}

// LoadFloat reads the float of kind k (KFloat or KDouble) at a[off:], the
// one memory image of a float both engines read: little-endian IEEE 754, a
// float widened exactly to float64.
func LoadFloat(a []byte, off uint64, k clc.ScalarKind) float64 {
	if k == clc.KFloat {
		return float64(math.Float32frombits(binary.LittleEndian.Uint32(a[off:])))
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(a[off:]))
}

// StoreFloat writes v, a float of kind k, at a[off:] in the image
// LoadFloat reads: a float rounds to 32 bits.
func StoreFloat(a []byte, off uint64, k clc.ScalarKind, v float64) {
	if k == clc.KFloat {
		binary.LittleEndian.PutUint32(a[off:], math.Float32bits(float32(v)))
		return
	}
	binary.LittleEndian.PutUint64(a[off:], math.Float64bits(v))
}
