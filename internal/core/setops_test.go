package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"peregrine/internal/bitset"
	"peregrine/internal/gen"
	"peregrine/internal/pattern"
)

// refIntersect is the naive map-based reference every kernel is checked
// against: intersect all lists, keep lo < x < hi, ascending output.
func refIntersect(lists [][]uint32, lo, hi int64) []uint32 {
	if len(lists) == 0 {
		return nil
	}
	count := make(map[uint32]int)
	for _, l := range lists {
		seen := make(map[uint32]bool)
		for _, x := range l {
			if !seen[x] {
				seen[x] = true
				count[x]++
			}
		}
	}
	out := []uint32{}
	for _, x := range lists[0] {
		if count[x] == len(lists) && int64(x) > lo && int64(x) < hi {
			out = append(out, x)
		}
	}
	return out
}

// sortedRand returns a strictly ascending slice of up to n values in
// [0, span).
func sortedRand(rng *rand.Rand, n int, span uint32) []uint32 {
	seen := make(map[uint32]bool)
	for i := 0; i < n; i++ {
		seen[rng.Uint32()%span] = true
	}
	out := make([]uint32, 0, len(seen))
	for v := uint32(0); v < span; v++ {
		if seen[v] {
			out = append(out, v)
		}
	}
	return out
}

func equalU32(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestClipSentinelFastPath(t *testing.T) {
	s := []uint32{1, 5, 9, 12}
	got := clip(s, noLo, noHi)
	if len(got) != len(s) || &got[0] != &s[0] {
		t.Fatal("unbounded clip must return the input slice itself")
	}
	if got := clip(nil, noLo, noHi); len(got) != 0 {
		t.Fatal("unbounded clip of nil must be empty")
	}
}

func TestClipMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := sortedRand(rng, rng.Intn(200), 300)
		for trial := 0; trial < 50; trial++ {
			// Real bounds are always data-vertex ids (non-negative); the
			// sentinels are the only out-of-range values the engine passes.
			lo, hi := noLo, noHi
			if rng.Intn(2) == 0 {
				lo = int64(rng.Intn(310))
			}
			if rng.Intn(2) == 0 {
				hi = int64(rng.Intn(310))
			}
			got := clip(s, lo, hi)
			want := refIntersect([][]uint32{s}, lo, hi)
			if !equalU32(got, want) {
				t.Logf("clip(%v, %d, %d) = %v, want %v", s, lo, hi, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestSearchKernels(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := sortedRand(rng, rng.Intn(300), 1000)
		for trial := 0; trial < 100; trial++ {
			x := rng.Uint32() % 1050
			lb := lowerBound(s, x)
			if lb > 0 && s[lb-1] >= x {
				return false
			}
			if lb < len(s) && s[lb] < x {
				return false
			}
			ub := upperBound(s, x)
			if ub > 0 && s[ub-1] > x {
				return false
			}
			if ub < len(s) && s[ub] <= x {
				return false
			}
			from := 0
			if len(s) > 0 {
				from = rng.Intn(len(s) + 1)
			}
			gb := gallopLowerBound(s, from, x)
			// Galloping from `from` must agree with binary search over the
			// suffix.
			want := from + lowerBound(s[from:], x)
			if gb != want {
				return false
			}
			inRef := false
			for _, v := range s {
				if v == x {
					inRef = true
				}
			}
			if containsSorted(s, x) != inRef {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestIntersectKernelsDifferential(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		span := uint32(1 + rng.Intn(4000))
		a := sortedRand(rng, rng.Intn(500), span)
		b := sortedRand(rng, rng.Intn(500), span)
		want := refIntersect([][]uint32{a, b}, noLo, noHi)

		if !equalU32(intersectMerge(nil, a, b), want) {
			t.Log("intersectMerge mismatch")
			return false
		}
		small, big := a, b
		if len(small) > len(big) {
			small, big = big, small
		}
		if !equalU32(intersectGallop(nil, small, big), want) {
			t.Log("intersectGallop mismatch")
			return false
		}
		if !equalU32(intersectSetsInto(nil, [][]uint32{a, b}, nil, noLo, noHi), want) {
			t.Log("intersectSetsInto mismatch")
			return false
		}
		dst := append([]uint32(nil), a...)
		if !equalU32(intersectInPlace(dst, b), want) {
			t.Log("intersectInPlace mismatch")
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestIntersectListsIntoDifferential(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		span := uint32(1 + rng.Intn(2000))
		k := 1 + rng.Intn(4)
		lists := make([][]uint32, k)
		for i := range lists {
			lists[i] = sortedRand(rng, rng.Intn(400), span)
		}
		lo, hi := noLo, noHi
		if rng.Intn(2) == 0 {
			lo = int64(rng.Intn(int(span)))
		}
		if rng.Intn(2) == 0 {
			hi = int64(rng.Intn(int(span)))
		}
		got := intersectSetsInto(make([]uint32, 0, 8), lists, nil, lo, hi)
		want := refIntersect(lists, lo, hi)
		if !equalU32(got, want) {
			t.Logf("lists=%d lo=%d hi=%d: got %v want %v", k, lo, hi, got, want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestIntersectSetsIntoBitsetPaths(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		span := uint32(1 << 16)
		// A big hub list vs a small leaf list drives the filter path; two
		// big lists with bitmaps and no bounds drive bitset∩bitset.
		hub := sortedRand(rng, bitsetAndMin*4, span)
		hub2 := sortedRand(rng, bitsetAndMin*4, span)
		leaf := sortedRand(rng, 1+rng.Intn(60), span)
		mk := func(ls ...[]uint32) []*bitset.Bitmap {
			bs := make([]*bitset.Bitmap, len(ls))
			for i, l := range ls {
				bs[i] = bitset.FromSorted(l)
			}
			return bs
		}
		cases := []struct {
			lists [][]uint32
			bits  []*bitset.Bitmap
			lo    int64
			hi    int64
		}{
			{[][]uint32{leaf, hub}, mk(leaf, hub), noLo, noHi},                       // filter
			{[][]uint32{leaf, hub}, []*bitset.Bitmap{nil, mk(hub)[0]}, noLo, noHi},   // filter, leaf has no bitmap
			{[][]uint32{hub, hub2}, mk(hub, hub2), noLo, noHi},                       // bitset AND
			{[][]uint32{hub, hub2}, mk(hub, hub2), int64(span / 4), int64(span / 2)}, // bounded: AND must not fire
			{[][]uint32{leaf, hub, hub2}, mk(leaf, hub, hub2), noLo, noHi},           // chained filters
			{[][]uint32{leaf, hub}, nil, noLo, noHi},                                 // no bitmaps at all
		}
		for ci, c := range cases {
			got := intersectSetsInto(make([]uint32, 0, 8), c.lists, c.bits, c.lo, c.hi)
			want := refIntersect(c.lists, c.lo, c.hi)
			if !equalU32(got, want) {
				t.Logf("case %d: got %d elems, want %d", ci, len(got), len(want))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 6}); err != nil {
		t.Fatal(err)
	}
}

func TestKernelSelectionProperties(t *testing.T) {
	f := func(smallRaw, bigRaw uint16, driverBits, listBits, bounded bool) bool {
		small, big := int(smallRaw), int(bigRaw)
		k := chooseKernel(small, big, driverBits, listBits, bounded)
		switch k {
		case kernelBitsetAnd:
			// Sound only when both bitmaps exist and the driver is
			// unclipped; chosen only for big drivers.
			if !listBits || !driverBits || bounded || small < bitsetAndMin {
				return false
			}
		case kernelBitsetFilter:
			if !listBits || big/(small+1) < bitsetFilterRatio {
				return false
			}
		case kernelGallop:
			if big/(small+1) < gallopRatio {
				return false
			}
		case kernelMerge:
			// Merge is the fallback: no skew large enough for galloping
			// unless a bitset path claimed the pair first.
			if big/(small+1) >= gallopRatio && !listBits {
				return false
			}
		default:
			return false
		}
		// Without any bitmap the choice is purely the gallop threshold.
		if !listBits {
			wantGallop := big/(small+1) >= gallopRatio
			if (k == kernelGallop) != wantGallop {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

// TestSingleListResultAliasesInput pins the ownership contract: one
// list in, the result is a subslice of that list (zero copy), so
// callers must not write through it.
func TestSingleListResultAliasesInput(t *testing.T) {
	s := []uint32{2, 4, 6, 8, 10}
	got := intersectSetsInto(make([]uint32, 0, 8), [][]uint32{s}, nil, 3, 9)
	want := []uint32{4, 6, 8}
	if !equalU32(got, want) {
		t.Fatalf("clipped single list = %v, want %v", got, want)
	}
	if &got[0] != &s[1] {
		t.Fatal("single-list result must alias the input list, not a copy")
	}
	// Multi-list results must NOT alias either input.
	buf := make([]uint32, 0, 8)
	got = intersectSetsInto(buf, [][]uint32{s, {4, 8}}, nil, noLo, noHi)
	if &got[0] == &s[1] || &got[0] == &s[3] {
		t.Fatal("multi-list result must be caller-owned buf storage")
	}
}

// TestEngineDoesNotScribbleAdjacency runs full mining passes and then
// verifies the graph's adjacency storage is byte-identical — the
// regression test for writes through single-list aliased candidate
// views (engine.go call sites), which would corrupt heap graphs and
// fault mmap-backed ones.
func TestEngineDoesNotScribbleAdjacency(t *testing.T) {
	g := gen.RMAT(gen.RMATConfig{Vertices: 96, Edges: 400, Seed: 41})
	n := g.NumVertices()
	snapshot := make([][]uint32, n)
	for v := uint32(0); v < n; v++ {
		snapshot[v] = append([]uint32(nil), g.Adj(v)...)
	}
	// Star patterns produce single-list candidate sets (one core
	// neighbor); cliques and anti-vertex patterns cover the multi-list
	// and unbounded-check call sites. Hub bitsets cover the bitset paths.
	g.BuildHubBitsets(8)
	pats := []*pattern.Pattern{
		pattern.Star(3),
		pattern.Star(4),
		pattern.Clique(3),
		pattern.Clique(4),
		pattern.MustParse("0-1 1-2 2-0 2-3"),
		pattern.MustParse("0-1 0-2 1!2"),
	}
	for _, p := range pats {
		Count(t, g, p, Options{Threads: 4})
	}
	for v := uint32(0); v < n; v++ {
		if !equalU32(g.Adj(v), snapshot[v]) {
			t.Fatalf("adjacency of vertex %d changed during mining", v)
		}
	}
}
