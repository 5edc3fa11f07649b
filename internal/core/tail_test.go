package core

import (
	"math"
	"math/big"
	"math/rand"
	"testing"

	"peregrine/internal/gen"
	"peregrine/internal/graph"
	"peregrine/internal/pattern"
	"peregrine/internal/plan"
	"peregrine/internal/ref"
)

// naiveTail counts the placements tailCounter.count sizes by enumerating
// them: class by class, an increasing run of sizes[c] members of sets[c]
// (the chain), none in skip and none used by an earlier class.
func naiveTail(sets [][]uint32, sizes []int, skip []uint32) uint64 {
	used := make(map[uint32]bool)
	for _, s := range skip {
		used[s] = true
	}
	var place func(c, left, from int) uint64
	place = func(c, left, from int) uint64 {
		if c == len(sets) {
			return 1
		}
		if left == 0 {
			if c+1 == len(sets) {
				return 1
			}
			return place(c+1, sizes[c+1], 0)
		}
		var n uint64
		for i := from; i < len(sets[c]); i++ {
			if x := sets[c][i]; !used[x] {
				used[x] = true
				n += place(c, left-1, i+1)
				used[x] = false
			}
		}
		return n
	}
	return place(0, sizes[0], 0)
}

// TestTailCountMatchesEnumeration checks the closed form against
// enumeration on random class sets: one to four classes of one to three
// vertices, six at most, over a small id range, so that sets overlap,
// plus a partial match that may sit in any of them.
func TestTailCountMatchesEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	for trial := 0; trial < 2000; trial++ {
		var sizes []int
		for left := 6; left > 0 && len(sizes) < 4; {
			s := 1 + rng.Intn(min(3, left))
			sizes = append(sizes, s)
			left -= s
			if rng.Intn(3) == 0 {
				break
			}
		}
		span := uint32(6 + rng.Intn(20))
		tc := newTailCounter(plan.ClassTail(sizes...))
		for c := range tc.sets {
			tc.sets[c] = sortedRand(rng, rng.Intn(int(span)), span)
		}
		var skip []uint32
		for _, x := range rng.Perm(int(span) + 2)[:rng.Intn(5)] {
			skip = append(skip, uint32(x))
		}
		want := naiveTail(tc.sets, sizes, skip)
		if got, merges := tc.count(skip); got != want || merges > uint64(len(tc.tl.Subsets)-len(sizes)) {
			t.Fatalf("classes %v over %v, skip %v: %d placements in %d merges, want %d", sizes, tc.sets, skip, got, merges, want)
		}
	}
}

// wheel is a hub connected to each of n vertices on a ring.
func wheel(n uint32) *graph.Graph {
	b := graph.NewBuilder()
	for i := uint32(1); i <= n; i++ {
		b.AddEdge(0, i)
		b.AddEdge(i, i%n+1)
	}
	return b.Build()
}

// star returns a star graph with the given number of leaves.
func star(leaves uint32) *graph.Graph {
	edges := make([]graph.Edge, leaves)
	for i := range edges {
		edges[i] = graph.Edge{Src: 0, Dst: uint32(i) + 1}
	}
	return graph.FromEdges(edges)
}

// A 6-star on a 3000-leaf star has C(3000, 6) ≈ 1.0e18 matches: its terms
// reach 3000⁶ ≈ 7.3e20, past 64 bits, and a walk would never finish.
func TestTailCountExactPast64Bits(t *testing.T) {
	got := Count(t, star(3000), pattern.Star(7), Options{Threads: 2})
	want := new(big.Int).Binomial(3000, 6)
	if !want.IsUint64() || got != want.Uint64() {
		t.Fatalf("6-star on a 3000-leaf star = %d, want %v", got, want)
	}
}

// A worker sizes a tail only where tailFits proves 128 bits enough: an
// 8-star's terms on a hub of 2¹⁷ leaves reach 8!·2¹³⁶, so it sizes the
// longest suffix that fits — the last seven leaves, terms to 2¹¹⁹ — and
// walks the first; a 3-star's whole tail stays small. The 8-star's count
// there, C(2¹⁷, 8) ≈ 2¹²¹, keeps its low 64 bits, as a walk's uint64
// tally would.
func TestTailFitsGate(t *testing.T) {
	g := star(1 << 17)
	for _, tc := range []struct {
		p     *pattern.Pattern
		fits  bool
		start int // the level the worker's tail starts at
	}{{pattern.Star(4), true, 0}, {pattern.Star(9), false, 1}} {
		pl := mustPlan(t, tc.p)
		if pl.Tail == nil {
			t.Fatalf("%v: no tail", tc.p)
		}
		if fits := tailFits(pl.Tail, g.MaxDegree()); fits != tc.fits {
			t.Errorf("%v on max degree %d: fits %v, want %v", tc.p, g.MaxDegree(), fits, tc.fits)
		}
		if start := tailStart(g, pl); start != tc.start {
			t.Errorf("%v: worker sizes a tail from level %d, want %d", tc.p, start, tc.start)
		}
	}
	want := new(big.Int).Binomial(1<<17, 8)
	want.And(want, new(big.Int).SetUint64(math.MaxUint64))
	if got := Count(t, g, pattern.Star(9), Options{Threads: 2}); got != want.Uint64() {
		t.Errorf("8-star on a 2¹⁷-leaf star = %d, want C(2¹⁷, 8) mod 2⁶⁴ = %v", got, want)
	}
}

// TestCountModeTails checks counts through tails against brute force,
// with and without symmetry breaking, count mode against enumeration, on
// a wheel — where the sets share the hub's list and hold matched
// vertices — and on a small dense graph.
func TestCountModeTails(t *testing.T) {
	graphs := []*graph.Graph{
		wheel(16),
		gen.ErdosRenyi(gen.ERConfig{Vertices: 20, Edges: 80, Seed: 5}),
	}
	// Every shape's completion is one Tail, sized from its first level.
	for _, text := range []string{
		"0-1 0-2 0-3",
		"0-1 0-2 0-3 0-4 0-5",
		"0-1 0-3 0-4 1-2",             // chair: classes of one and two
		"0-1 1-2 2-0 0-3 1-4",         // bull: a two-list class beside its operands
		"0-1 1-2 2-0 0-3 0-4 1-5",     // two tails on one corner, one on the next
		"0-1 1-2 0-3 3-4 0-5",         // spider: three classes of one
		"0-2 1-2 0-4 3-4 0-5",         // spider respelled: its orders stay on the core
		"0-1 0-2 0-3 1-4 1-5",         // double star: two chained pairs
		"0-1 0-2 1-2 0-3 1-3 0-4 1-4", // three vertices on one edge
	} {
		p := pattern.MustParse(text)
		if start := tailStart(graphs[0], mustPlan(t, p)); start != 0 {
			t.Fatalf("%v: worker sizes a tail from level %d, want 0", p, start)
		}
		for _, noSym := range []bool{false, true} {
			for gi, g := range graphs {
				want := ref.CountUnique(g, p)
				if noSym {
					want = ref.CountAll(g, p)
				}
				if got := countBothWays(t, g, p, Options{Threads: 2, NoSymmetryBreaking: noSym}); got != want {
					t.Errorf("%v noSym=%v graph %d = %d, want %d", p, noSym, gi, got, want)
				}
			}
		}
	}
}
