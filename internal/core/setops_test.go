package core

import (
	"math/bits"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

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
		if !equalU32(intersectSetsInto(nil, [][]uint32{a, b}, noLo, noHi), want) {
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
		got := intersectSetsInto(make([]uint32, 0, 8), lists, lo, hi)
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

// TestKernelSelectionProperties pins the dispatcher's one choice: gallop
// exactly from gallopRatio·(driver+1) operand elements up, so the choice
// is monotone — more operand, or less driver, never turns galloping off —
// and lists of comparable length always merge.
func TestKernelSelectionProperties(t *testing.T) {
	f := func(smallRaw, bigRaw, moreRaw uint16) bool {
		small, big, more := int(smallRaw), int(bigRaw), int(moreRaw)
		edge := gallopRatio * (small + 1)
		if !gallops(small, edge) || gallops(small, edge-1) {
			return false
		}
		if big <= small && gallops(small, big) {
			return false
		}
		if gallops(small, big) {
			return gallops(small, big+more) && gallops(max(small-more, 0), big)
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
	got := intersectSetsInto(make([]uint32, 0, 8), [][]uint32{s}, 3, 9)
	want := []uint32{4, 6, 8}
	if !equalU32(got, want) {
		t.Fatalf("clipped single list = %v, want %v", got, want)
	}
	if &got[0] != &s[1] {
		t.Fatal("single-list result must alias the input list, not a copy")
	}
	// Multi-list results must NOT alias either input.
	buf := make([]uint32, 0, 8)
	got = intersectSetsInto(buf, [][]uint32{s, {4, 8}}, noLo, noHi)
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
	// and unbounded-check call sites.
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

// TestMarkedKernelDifferential checks the marked kernel against the
// reference and intersectSetsInto: two to four random sorted lists of
// skewed lengths, a random window, and each list held in turn, so that
// the held list sits at every position. A copy of the held list, equal
// in contents but not in storage, joins some trials as one more operand:
// it is scanned or filtered like any other list. Both of markedDriver's
// outcomes must occur — the scan, and the fallback to intersectSetsInto
// where every other list is long enough to gallop through.
func TestMarkedKernelDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	const span = 1 << 11
	var ms markSet
	var scans, fallbacks int
	buf := make([]uint32, 0, 4)
	for trial := 0; trial < 2000; trial++ {
		lists := make([][]uint32, 2+rng.Intn(3))
		for i := range lists {
			lists[i] = sortedRand(rng, rng.Intn(2<<rng.Intn(10)), span)
		}
		lo, hi := noLo, noHi
		if rng.Intn(2) == 0 {
			lo = int64(rng.Intn(span))
		}
		if rng.Intn(2) == 0 {
			hi = int64(rng.Intn(span))
		}
		for m := range lists {
			ms.hold(lists[m], span)
			ops := lists
			if trial%5 == 0 {
				ops = append(append([][]uint32(nil), lists...), append([]uint32(nil), lists[m]...))
			}
			want := refIntersect(ops, lo, hi)
			if _, d := markedDriver(ops, ms.held); d < 0 {
				fallbacks++
			} else {
				scans++
			}
			got := ms.intersect(buf, ops, lo, hi)
			if !equalU32(got, want) {
				t.Fatalf("trial %d, %d lists, held at %d, window (%d, %d): %v, want %v", trial, len(ops), m, lo, hi, got, want)
			}
			if plain := intersectSetsInto(nil, ops, lo, hi); !equalU32(got, plain) {
				t.Fatalf("trial %d: marked %v, intersectSetsInto %v", trial, got, plain)
			}
		}
	}
	ms.release()
	t.Logf("%d scans, %d fallbacks", scans, fallbacks)
	if scans == 0 || fallbacks == 0 {
		t.Fatalf("%d scans, %d fallbacks: both branches must be taken", scans, fallbacks)
	}
	for i, w := range ms.bits {
		if w != 0 {
			t.Fatalf("word %d = %#x after release", i, w)
		}
	}
}

// TestMarkSetHoldsExactlyItsList runs random hold and release cycles:
// after each hold the bitmap holds exactly the list's members, and after
// the last release not one bit is left. A leaked bit would make a later
// task's intersections keep a vertex its list does not hold.
func TestMarkSetHoldsExactlyItsList(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	const span = 1000 // not a multiple of 64: the last word is partial
	var ms markSet
	for cycle := 0; cycle < 500; cycle++ {
		if rng.Intn(4) == 0 {
			ms.release()
			continue
		}
		l := sortedRand(rng, rng.Intn(1<<rng.Intn(11)), span)
		ms.hold(l, span)
		n := 0
		for _, w := range ms.bits {
			n += bits.OnesCount64(w)
		}
		if n != len(l) {
			t.Fatalf("cycle %d: %d bits set holding %d ids", cycle, n, len(l))
		}
		for _, x := range l {
			if ms.hit(x) != 1 {
				t.Fatalf("cycle %d: %d held but not marked", cycle, x)
			}
		}
	}
	ms.release()
	for i, w := range ms.bits {
		if w != 0 {
			t.Fatalf("word %d = %#x after release", i, w)
		}
	}
}

// boundsOf returns the window bounds a bounded-kernel trial draws from
// for list s over [0, span): its first and last ids and two others, a
// random id, and ids below and above all of s. Like the engine's, every
// bound is a vertex id, never negative; noLo and noHi come on top for
// the kernels that take them.
func boundsOf(rng *rand.Rand, s []uint32, span uint32) []int64 {
	b := []int64{0, int64(span), int64(rng.Intn(int(span)))}
	if len(s) > 0 {
		b = append(b, int64(s[0]), int64(s[len(s)-1]), max(int64(s[0])-1, 0), int64(s[len(s)-1])+1,
			int64(s[rng.Intn(len(s))]), int64(s[rng.Intn(len(s))]))
	}
	return b
}

// TestBoundedKernelsMatchReference checks the kernels that stop at a
// window's bound against the reference over random lists, empty ones
// among them, and every bound boundsOf draws — members of the list,
// bounds above and below every id, the sentinels: countAbove against
// the marked filter of the list above lo; intersectMarked, the driver
// at either position, and clip, whose endpoint test returns a list the
// window cannot cut, against refIntersect.
func TestBoundedKernelsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	const span = 600
	var ms markSet
	buf := make([]uint32, 0, 4)
	for trial := 0; trial < 1000; trial++ {
		s := sortedRand(rng, rng.Intn(2<<rng.Intn(8)), span)
		held := sortedRand(rng, rng.Intn(2<<rng.Intn(9)), span)
		if trial%10 == 0 {
			s = nil
		}
		ms.hold(held, span)
		bounds := boundsOf(rng, s, span)
		for _, lo := range bounds {
			want := len(refIntersect([][]uint32{s, held}, lo, noHi))
			if got := ms.countAbove(s, uint32(lo)); got != want {
				t.Fatalf("countAbove(%v, %d) holding %v = %d, want %d", s, lo, held, got, want)
			}
		}
		for _, lo := range slices.Concat(bounds, []int64{noLo}) {
			for _, hi := range slices.Concat(bounds, []int64{noHi}) {
				if got, want := clip(s, lo, hi), refIntersect([][]uint32{s}, lo, hi); !equalU32(got, want) {
					t.Fatalf("clip(%v, %d, %d) = %v, want %v", s, lo, hi, got, want)
				}
				lists := [][]uint32{s, held}
				want := refIntersect(lists, lo, hi)
				if got := intersectMarked(buf, lists, 1, 0, &ms, lo, hi); !equalU32(got, want) {
					t.Fatalf("intersectMarked(%v through %v, %d, %d) = %v, want %v", s, held, lo, hi, got, want)
				}
				lists = [][]uint32{held, s, held}
				if got := intersectMarked(buf, lists, 0, 1, &ms, lo, hi); !equalU32(got, want) {
					t.Fatalf("intersectMarked(3 lists, %d, %d) = %v, want %v", lo, hi, got, want)
				}
			}
		}
	}
	ms.release()
}
