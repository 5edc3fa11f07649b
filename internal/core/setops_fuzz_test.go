package core

import (
	"bytes"
	"encoding/binary"
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

// naiveCountPairs is countPairsExcluding by double loop, all three
// orders at once; with skip empty, less and eq are countPairs' results.
func naiveCountPairs(a, b, skip []uint32) (less, eq, greater uint64) {
	skipped := func(x uint32) bool {
		for _, s := range skip {
			if s == x {
				return true
			}
		}
		return false
	}
	for _, x := range a {
		for _, y := range b {
			switch {
			case skipped(x) || skipped(y):
			case x < y:
				less++
			case x > y:
				greater++
			default:
				eq++
			}
		}
	}
	return less, eq, greater
}

// FuzzSetOps differentially fuzzes every intersection kernel against
// the naive map-based reference: raw kernels, the adaptive dispatchers
// and clipped bounds — and the pair-counting kernel against a double
// loop. Seed corpus lives under
// testdata/fuzz/FuzzSetOps.
func FuzzSetOps(f *testing.F) {
	f.Add([]byte{1, 0, 1, 0, 1, 0}, []byte{2, 0, 2, 0}, uint32(0), uint32(0))
	f.Add([]byte{1, 0}, []byte{}, uint32(1), uint32(9))
	f.Add([]byte{5, 0, 5, 0, 5, 0, 5, 0}, []byte{1, 0, 19, 0}, uint32(3), uint32(40))
	// Pair-kernel shapes: both empty, disjoint (all of one list below the
	// other), identical, nested, and one element against enough to gallop.
	ramp := bytes.Repeat([]byte{0, 0}, 40) // 1, 2, ..., 40
	f.Add([]byte{}, []byte{}, uint32(0), uint32(0))
	f.Add([]byte{0, 0, 0, 0, 0, 0}, []byte{9, 0, 0, 0, 0, 0}, uint32(0), uint32(0))
	f.Add(ramp, ramp, uint32(0), uint32(0))
	f.Add(ramp, []byte{9, 0, 4, 0, 9, 0}, uint32(0), uint32(0))
	f.Add([]byte{19, 0}, ramp, uint32(0), uint32(0))
	// Operand-skip shapes (skipMin = 64): a driver starting past the
	// operand's end; a driver starting inside an operand of exactly 64
	// elements, and of 63 (no skip); a driver clipped to start mid-way.
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

		// The pair kernel, both argument orders (each order reaches the
		// other gallop branch on skewed lengths), then with a skip set made
		// of members of either list, of both, and of neither.
		wantLess, wantEq, wantGreater := naiveCountPairs(a, b, nil)
		if less, eq := countPairs(a, b); less != wantLess || eq != wantEq {
			t.Fatalf("countPairs(%v, %v) = %d, %d, want %d, %d", a, b, less, eq, wantLess, wantEq)
		}
		if less, eq := countPairs(b, a); less != wantGreater || eq != wantEq {
			t.Fatalf("countPairs(%v, %v) = %d, %d, want %d, %d", b, a, less, eq, wantGreater, wantEq)
		}
		picks := []uint32{loRaw, hiRaw}
		if len(a) > 0 {
			picks = append(picks, a[int(loRaw)%len(a)], a[int(hiRaw)%len(a)])
		}
		if len(b) > 0 {
			picks = append(picks, b[int(hiRaw)%len(b)])
		}
		picks = append(picks, want...) // members of both lists
		// A partial match holds no id twice and is short.
		var skip []uint32
	picking:
		for _, x := range picks {
			for _, s := range skip {
				if s == x {
					continue picking
				}
			}
			if len(skip) < 6 {
				skip = append(skip, x)
			}
		}
		wantLess, _, wantGreater = naiveCountPairs(a, b, skip)
		for order, wantPairs := range map[int]uint64{1: wantLess, -1: wantGreater, 0: wantLess + wantGreater} {
			if got := countPairsExcluding(a, b, skip, order); got != wantPairs {
				t.Fatalf("countPairsExcluding(%v, %v, %v, %d) = %d, want %d", a, b, skip, order, got, wantPairs)
			}
		}

		// Clipped multi-list dispatcher.
		lists := [][]uint32{a, b}
		wantClipped := refIntersect(lists, lo, hi)
		if len(a) > 0 || len(b) > 0 {
			if got := intersectSetsInto(make([]uint32, 0, 4), lists, lo, hi); !equalU32(got, wantClipped) {
				t.Fatalf("intersectSetsInto = %v, want %v", got, wantClipped)
			}
			// A third operand takes the in-place path, skip included.
			for _, three := range [][][]uint32{{a, b, a}, {b, a, b}} {
				if got := intersectSetsInto(make([]uint32, 0, 4), three, lo, hi); !equalU32(got, wantClipped) {
					t.Fatalf("intersectSetsInto(3 lists) = %v, want %v", got, wantClipped)
				}
			}
		}
	})
}
