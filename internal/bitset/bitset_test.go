package bitset

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// sparse builds b with the Roaring threshold alone: chunks of at most
// arrayToBitmapThreshold values stay sorted arrays.
func sparse(vals []uint32) *Bitmap { return FromSortedDense(vals, arrayToBitmapThreshold+1) }

// randSorted returns a strictly ascending slice of n values drawn from
// [0, span), mixing dense and sparse chunks.
func randSorted(rng *rand.Rand, n int, span uint32) []uint32 {
	seen := make(map[uint32]bool, n)
	for len(seen) < n {
		var v uint32
		if rng.Intn(3) == 0 {
			v = uint32(rng.Intn(8192)) // dense low chunk
		} else {
			v = rng.Uint32() % span
		}
		seen[v] = true
	}
	out := make([]uint32, 0, n)
	for v := range seen {
		out = append(out, v)
	}
	slices.Sort(out)
	return out
}

// holds reports whether b's members among the ascending probe, read
// through FilterSortedInto, are exactly those in want.
func holds(b *Bitmap, probe []uint32, want map[uint32]bool) bool {
	var model []uint32
	for _, v := range probe {
		if want[v] {
			model = append(model, v)
		}
	}
	return slices.Equal(b.FilterSortedInto(nil, probe), model)
}

func setOf(vals []uint32) map[uint32]bool {
	m := make(map[uint32]bool, len(vals))
	for _, v := range vals {
		m[v] = true
	}
	return m
}

func TestFromSortedEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		vals := randSorted(rng, 1+rng.Intn(6000), 1<<22)
		probe := randSorted(rng, 1+rng.Intn(2000), 1<<22)
		b, in := sparse(vals), setOf(vals)
		return holds(b, vals, in) && holds(b, probe, in)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

func TestFromSortedDense(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		vals := randSorted(rng, 1+rng.Intn(3000), 1<<20)
		probe := randSorted(rng, 1+rng.Intn(1000), 1<<20)
		in := setOf(vals)
		perChunk := make(map[uint16]int)
		for _, v := range vals {
			perChunk[uint16(v>>16)]++
		}
		for _, denseMin := range []int{0, 1, 64, 512, arrayToBitmapThreshold + 2} {
			b := FromSortedDense(vals, denseMin)
			if !holds(b, vals, in) || !holds(b, probe, in) {
				return false
			}
			// Every chunk at or above the threshold must be bitmap-mode;
			// a denseMin of <=1 forces every chunk dense.
			for i, c := range b.cts {
				card := perChunk[b.keys[i]]
				wantDense := card >= denseMin || denseMin <= 1
				if denseMin > arrayToBitmapThreshold+1 {
					wantDense = card > arrayToBitmapThreshold
				}
				if c.isBitmap() != wantDense {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 6}); err != nil {
		t.Fatal(err)
	}
}

func TestFromSortedBitmapMode(t *testing.T) {
	// A chunk past the array threshold must materialize directly as a
	// bitmap and stay exact.
	vals := make([]uint32, 0, arrayToBitmapThreshold+512)
	for i := 0; i < arrayToBitmapThreshold+512; i++ {
		vals = append(vals, uint32(i*3))
	}
	b := sparse(vals)
	if !b.cts[0].isBitmap() {
		t.Fatal("dense chunk not in bitmap mode")
	}
	if got := b.FilterSortedInto(nil, vals); !slices.Equal(got, vals) {
		t.Fatalf("lost %d of %d values", len(vals)-len(got), len(vals))
	}
	phantoms := make([]uint32, len(vals))
	for i, v := range vals {
		phantoms[i] = v + 1
	}
	if got := b.FilterSortedInto(nil, phantoms); len(got) != 0 {
		t.Fatalf("phantoms %v", got[:min(len(got), 5)])
	}
}

func TestFilterSortedInto(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		span := uint32(1 << 21)
		hub := randSorted(rng, 1+rng.Intn(8000), span)
		probe := randSorted(rng, 1+rng.Intn(500), span)
		inHub := make(map[uint32]bool, len(hub))
		for _, v := range hub {
			inHub[v] = true
		}
		var want []uint32
		for _, v := range probe {
			if inHub[v] {
				want = append(want, v)
			}
		}
		// Array-mode and dense (hub-adjacency) chunk layouts must agree.
		for _, b := range []*Bitmap{sparse(hub), FromSortedDense(hub, 1)} {
			got := b.FilterSortedInto(nil, probe)
			if len(got) != len(want) {
				return false
			}
			for i := range got {
				if got[i] != want[i] {
					return false
				}
			}
			// In-place compaction must agree.
			scratch := append([]uint32(nil), probe...)
			inPlace := b.FilterSortedInto(scratch[:0], scratch)
			if len(inPlace) != len(want) {
				return false
			}
			for i := range inPlace {
				if inPlace[i] != want[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

func TestAndSortedInto(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		span := uint32(1 << 20)
		// Size mix drives all three container pairings: array∩array,
		// array∩bitmap, bitmap∩bitmap.
		xs := randSorted(rng, 1+rng.Intn(7000), span)
		ys := randSorted(rng, 1+rng.Intn(7000), span)
		inY := make(map[uint32]bool, len(ys))
		for _, v := range ys {
			inY[v] = true
		}
		var want []uint32
		for _, v := range xs {
			if inY[v] {
				want = append(want, v)
			}
		}
		// Array-vs-array, mixed, and dense-vs-dense chunk pairings.
		for _, pair := range [][2]*Bitmap{
			{sparse(xs), sparse(ys)},
			{FromSortedDense(xs, 1), sparse(ys)},
			{FromSortedDense(xs, 1), FromSortedDense(ys, 1)},
		} {
			got := pair[0].AndSortedInto(nil, pair[1])
			if len(got) != len(want) {
				return false
			}
			for i := range got {
				if got[i] != want[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

func TestSizeBytesCompression(t *testing.T) {
	// A sparse set must be far smaller than a dense bitmap over the same
	// key range — the reason the paper uses Roaring-style bitmaps (§5.5).
	vals := make([]uint32, 1000)
	for i := range vals {
		vals[i] = uint32(i * 4096)
	}
	denseEquivalent := (1000 * 4096) / 8
	if b := sparse(vals); b.SizeBytes() >= denseEquivalent/10 {
		t.Fatalf("sparse set uses %d bytes; dense equivalent %d — compression missing",
			b.SizeBytes(), denseEquivalent)
	}
}
