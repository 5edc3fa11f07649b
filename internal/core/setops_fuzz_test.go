package core

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

// decodeSortedList turns fuzz bytes into a strictly ascending uint32
// slice: consecutive 2-byte deltas (+1, so lists are strictly sorted)
// over a uint32 accumulator. Small deltas keep values clustered the way
// adjacency lists are.
func decodeSortedList(data []byte) []uint32 {
	var out []uint32
	cur := uint32(0)
	for len(data) >= 2 {
		delta := uint32(binary.LittleEndian.Uint16(data)) + 1
		data = data[2:]
		// Cap the accumulator so multi-list intersections stay plausible.
		if cur > 1<<24 {
			break
		}
		cur += delta
		out = append(out, cur)
	}
	return out
}

// FuzzSetOps differentially fuzzes every intersection kernel against
// the naive map-based reference: raw kernels, the adaptive dispatchers,
// clipped bounds, the |a ∩ b| kernel and the marked kernels, the scans
// that stop at a window's bound among them. Seed corpus lives under
// testdata/fuzz/FuzzSetOps.
func FuzzSetOps(f *testing.F) {
	f.Add([]byte{1, 0, 1, 0, 1, 0}, []byte{2, 0, 2, 0}, uint32(0), uint32(0))
	f.Add([]byte{1, 0}, []byte{}, uint32(1), uint32(9))
	f.Add([]byte{5, 0, 5, 0, 5, 0, 5, 0}, []byte{1, 0, 19, 0}, uint32(3), uint32(40))
	// |a ∩ b| shapes: both empty, disjoint (all of one list below the
	// other), identical, nested, and one element against enough to gallop.
	ramp := bytes.Repeat([]byte{0, 0}, 40) // 1, 2, ..., 40
	f.Add([]byte{}, []byte{}, uint32(0), uint32(0))
	f.Add([]byte{0, 0, 0, 0, 0, 0}, []byte{9, 0, 0, 0, 0, 0}, uint32(0), uint32(0))
	f.Add(ramp, ramp, uint32(0), uint32(0))
	f.Add(ramp, []byte{9, 0, 4, 0, 9, 0}, uint32(0), uint32(0))
	f.Add([]byte{19, 0}, ramp, uint32(0), uint32(0))
	// A driver starting past the operand's end; a driver starting inside
	// an operand of 64 elements, and of 63; a driver clipped to start
	// mid-way.
	ramp64, ramp63 := bytes.Repeat([]byte{0, 0}, 64), bytes.Repeat([]byte{0, 0}, 63)
	f.Add(ramp64, []byte{99, 0, 0, 0}, uint32(0), uint32(0))
	f.Add(ramp64, []byte{31, 0, 9, 0, 22, 0}, uint32(0), uint32(0))
	f.Add(ramp63, []byte{31, 0, 9, 0, 22, 0}, uint32(0), uint32(0))
	f.Add(ramp64, ramp, uint32(31), uint32(0))
	f.Fuzz(func(t *testing.T, rawA, rawB []byte, loRaw, hiRaw uint32) {
		a := decodeSortedList(rawA)
		b := decodeSortedList(rawB)
		lo, hi := noLo, noHi
		if loRaw != 0 {
			lo = int64(loRaw - 1)
		}
		if hiRaw != 0 {
			hi = int64(hiRaw - 1)
		}

		// clip against the reference.
		if got, want := clip(a, lo, hi), refIntersect([][]uint32{a}, lo, hi); !equalU32(got, want) {
			t.Fatalf("clip(%v, %d, %d) = %v, want %v", a, lo, hi, got, want)
		}

		want := refIntersect([][]uint32{a, b}, noLo, noHi)
		if got := intersectMerge(nil, a, b); !equalU32(got, want) {
			t.Fatalf("intersectMerge = %v, want %v", got, want)
		}
		small, big := a, b
		if len(small) > len(big) {
			small, big = big, small
		}
		if got := intersectGallop(nil, small, big); !equalU32(got, want) {
			t.Fatalf("intersectGallop = %v, want %v", got, want)
		}
		if got := intersectSetsInto(nil, [][]uint32{a, b}, noLo, noHi); !equalU32(got, want) {
			t.Fatalf("intersectSetsInto = %v, want %v", got, want)
		}
		if got := intersectInPlace(append([]uint32(nil), a...), b); !equalU32(got, want) {
			t.Fatalf("intersectInPlace = %v, want %v", got, want)
		}

		// The |a ∩ b| kernel, both argument orders, galloping where the
		// lengths are skewed and with the gallop turned off.
		for _, ab := range [][2][]uint32{{a, b}, {b, a}} {
			if got := intersectCount(ab[0], ab[1]); got != uint64(len(want)) {
				t.Fatalf("intersectCount(%v, %v) = %d, want %d", ab[0], ab[1], got, len(want))
			}
			if got := intersectCountSkew(ab[0], ab[1], math.MaxInt); got != uint64(len(want)) {
				t.Fatalf("intersectCountSkew(%v, %v, never) = %d, want %d", ab[0], ab[1], got, len(want))
			}
		}

		// Clipped multi-list dispatcher.
		lists := [][]uint32{a, b}
		wantClipped := refIntersect(lists, lo, hi)
		if len(a) > 0 || len(b) > 0 {
			if got := intersectSetsInto(make([]uint32, 0, 4), lists, lo, hi); !equalU32(got, wantClipped) {
				t.Fatalf("intersectSetsInto = %v, want %v", got, wantClipped)
			}
			// A third operand takes the in-place path.
			for _, three := range [][][]uint32{{a, b, a}, {b, a, b}} {
				if got := intersectSetsInto(make([]uint32, 0, 4), three, lo, hi); !equalU32(got, wantClipped) {
					t.Fatalf("intersectSetsInto(3 lists) = %v, want %v", got, wantClipped)
				}
			}
		}

		// The marked kernel, holding each list in turn at every position,
		// scanning or falling back as the lengths say; releasing the last
		// hold must leave no bit set.
		n := 1
		for _, l := range lists {
			if len(l) > 0 {
				n = max(n, int(l[len(l)-1])+1)
			}
		}
		var ms markSet
		for h, held := range lists {
			ms.hold(held, n)
			for _, ops := range [][][]uint32{{a, b}, {b, a}, {a, b, a}, {b, a, b}} {
				if got := ms.intersect(make([]uint32, 0, 4), ops, lo, hi); !equalU32(got, wantClipped) {
					t.Fatalf("marked intersect(%d lists) = %v, want %v", len(ops), got, wantClipped)
				}
			}
			// The scan of the other list through these marks, whatever
			// markedDriver would pick: up to hi, and counted above lo.
			other := lists[1-h]
			if got := intersectMarked(make([]uint32, 0, 4), lists, h, 1-h, &ms, lo, hi); !equalU32(got, wantClipped) {
				t.Fatalf("intersectMarked(driver %v, %d, %d) = %v, want %v", other, lo, hi, got, wantClipped)
			}
			if lo != noLo {
				if got, want := ms.countAbove(other, uint32(lo)), len(refIntersect(lists, lo, noHi)); got != want {
					t.Fatalf("countAbove(%v, %d) = %d, want %d", other, lo, got, want)
				}
			}
		}
		ms.release()
		for i, w := range ms.bits {
			if w != 0 {
				t.Fatalf("word %d = %#x after release", i, w)
			}
		}
	})
}
