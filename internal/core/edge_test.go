package core

import (
	"testing"

	"peregrine/internal/graph"
	"peregrine/internal/pattern"
	"peregrine/internal/ref"
)

// Edge cases and regression tests for the matching engine.

func TestEmptyGraph(t *testing.T) {
	g := graph.NewBuilder().Build()
	n := Count(t, g, pattern.Clique(3), Options{})
	if n != 0 {
		t.Fatalf("empty graph count = %d", n)
	}
}

func TestGraphSmallerThanPattern(t *testing.T) {
	g := graph.FromEdges([]graph.Edge{{Src: 0, Dst: 1}})
	n := Count(t, g, pattern.Clique(4), Options{})
	if n != 0 {
		t.Fatalf("count = %d, want 0", n)
	}
}

func TestSingleEdgePattern(t *testing.T) {
	g := graph.FromEdges([]graph.Edge{
		{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 0, Dst: 2}, {Src: 2, Dst: 3},
	})
	n := Count(t, g, pattern.Chain(2), Options{})
	if n != g.NumEdges() {
		t.Fatalf("edge count = %d, want %d", n, g.NumEdges())
	}
}

func TestSingleVertexCorePatterns(t *testing.T) {
	// Stars have single-vertex cores: every non-core vertex is completed
	// by intersection against one adjacency list, and leaf ordering comes
	// from partial orders alone.
	g := graph.FromEdges([]graph.Edge{
		{Src: 0, Dst: 1}, {Src: 0, Dst: 2}, {Src: 0, Dst: 3}, {Src: 0, Dst: 4},
		{Src: 1, Dst: 2},
	})
	for k := 3; k <= 5; k++ {
		p := pattern.Star(k)
		want := ref.CountUnique(g, p)
		got := Count(t, g, p, Options{Threads: 2})
		if got != want {
			t.Fatalf("star(%d) = %d, want %d", k, got, want)
		}
	}
}

// hubGraph is one hub connected to everything plus a ring.
func hubGraph() *graph.Graph {
	b := graph.NewBuilder()
	const n = 50
	for i := uint32(1); i <= n; i++ {
		b.AddEdge(0, i)
		b.AddEdge(i, i%n+1)
	}
	return b.Build()
}

func TestHubGraph(t *testing.T) {
	// Exercises the degree ordering (hub gets the highest id) and
	// high-to-low task order.
	g := hubGraph()
	for _, p := range []*pattern.Pattern{pattern.Clique(3), pattern.Star(4), pattern.Cycle(4)} {
		want := ref.CountUnique(g, p)
		got := Count(t, g, p, Options{Threads: 4})
		if got != want {
			t.Fatalf("%v on hub graph = %d, want %d", p, got, want)
		}
	}
}

// TestCountModeSubtractsAssigned pins the term count mode subtracts from
// the last level's set size: vertices already in the match that are
// members of that set. On the hub graph every
// leaf and tail candidate list is the hub's adjacency, so earlier
// leaves sit inside it — inside the window too once symmetry breaking
// is off — and a wrong subtraction changes the count. The 4-star's
// last leaf is also the shape whose window is bounded by an earlier
// non-core vertex rather than a core one.
func TestCountModeSubtractsAssigned(t *testing.T) {
	g := hubGraph()
	star := pattern.Star(4)
	pl := mustPlan(t, star)
	last := pl.NonCore[len(pl.NonCore)-1]
	boundedByNonCore := false
	for _, pv := range append(append([]int(nil), last.LowerBound...), last.UpperBound...) {
		for _, st := range pl.NonCore[:len(pl.NonCore)-1] {
			boundedByNonCore = boundedByNonCore || st.V == pv
		}
	}
	if !boundedByNonCore {
		t.Fatalf("star(4): last non-core step %+v is not bounded by an earlier non-core vertex", last)
	}
	for _, p := range []*pattern.Pattern{
		star,
		pattern.Star(5),
		pattern.MustParse("0-1 1-2 2-0 0-3 0-4"), // triangle, two tails on one corner
		pattern.MustParse("0-1 1-2 2-0 0-3 1-4"), // triangle, tails on two corners
	} {
		for _, noSym := range []bool{false, true} {
			want := ref.CountUnique(g, p)
			if noSym {
				want = ref.CountAll(g, p)
			}
			got := countBothWays(t, g, p, Options{Threads: 4, NoSymmetryBreaking: noSym})
			if got != want {
				t.Errorf("%v noSym=%v on hub graph = %d, want %d", p, noSym, got, want)
			}
		}
	}
}

func TestDisconnectedDataGraph(t *testing.T) {
	// Two disjoint triangles; matching must count both components.
	g := graph.FromEdges([]graph.Edge{
		{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 0},
		{Src: 10, Dst: 11}, {Src: 11, Dst: 12}, {Src: 12, Dst: 10},
	})
	n := Count(t, g, pattern.Clique(3), Options{})
	if n != 2 {
		t.Fatalf("two disjoint triangles counted as %d", n)
	}
}

func TestAntiEdgeBetweenCoreVertices(t *testing.T) {
	// A pattern whose anti-edge joins two core vertices: square with both
	// diagonals anti (vertex-induced C4). The cover must contain 3 of the
	// cycle vertices, so one anti-edge lies inside the core and is
	// checked during core traversal rather than completion.
	g := graph.FromEdges([]graph.Edge{
		{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 3}, {Src: 3, Dst: 0}, // chordless C4
		{Src: 4, Dst: 5}, {Src: 5, Dst: 6}, {Src: 6, Dst: 7}, {Src: 7, Dst: 4}, {Src: 4, Dst: 6}, // chorded C4
	})
	p := pattern.VertexInduced(pattern.Cycle(4))
	n := Count(t, g, p, Options{})
	if n != 1 {
		t.Fatalf("chordless squares = %d, want 1", n)
	}
}

func TestMultipleAntiVertices(t *testing.T) {
	// Pattern pf-style: a wedge with two anti-vertices imposing different
	// neighborhood constraints. Cross-check against brute force.
	p := pattern.MustParse("0-1 1-2")
	a1 := p.AddVertex()
	p.AddAntiEdge(0, a1)
	p.AddAntiEdge(2, a1) // endpoints share no outside neighbor
	a2 := p.AddVertex()
	p.AddAntiEdge(1, a2) // center has no neighbors beyond the matched ones
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	g := graph.FromEdges([]graph.Edge{
		{Src: 0, Dst: 1}, {Src: 1, Dst: 2},
		{Src: 3, Dst: 4}, {Src: 4, Dst: 5}, {Src: 4, Dst: 6},
	})
	want := ref.CountUnique(g, p)
	got := Count(t, g, p, Options{})
	if got != want {
		t.Fatalf("two-anti-vertex pattern = %d, want %d", got, want)
	}
}

func TestLargeCliquePatternOnCliqueGraph(t *testing.T) {
	// K12 data graph contains exactly C(12,k) k-cliques; check a large
	// pattern (total order, 11-vertex core) end to end.
	var edges []graph.Edge
	for u := 0; u < 12; u++ {
		for v := u + 1; v < 12; v++ {
			edges = append(edges, graph.Edge{Src: uint32(u), Dst: uint32(v)})
		}
	}
	g := graph.FromEdges(edges)
	want := map[int]uint64{3: 220, 6: 924, 10: 66, 12: 1}
	for k, w := range want {
		got := Count(t, g, pattern.Clique(k), Options{Threads: 2})
		if got != w {
			t.Fatalf("K12 %d-cliques = %d, want %d", k, got, w)
		}
	}
	ok := Exists(t, g, pattern.Clique(13), Options{})
	if ok {
		t.Fatal("found a 13-clique in K12")
	}
}

func TestStatsFields(t *testing.T) {
	g := graph.FromEdges([]graph.Edge{
		{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 0},
	})
	st := Run(t, g, pattern.Clique(3), nil, Options{Threads: 2})
	if st.Matches != 1 || st.Tasks != 3 || st.Threads != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if st.String() == "" {
		t.Fatal("empty stats string")
	}
}

func TestWildcardAndConcreteLabelMix(t *testing.T) {
	b := graph.NewBuilder()
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	for i, l := range []uint32{1, 2, 1, 2} {
		b.SetLabel(uint32(i), l)
	}
	g := b.Build()
	// Wedge with labeled center (2) and wildcard endpoints.
	p := pattern.MustParse("0-1 1-2 [1:2]")
	want := ref.CountUnique(g, p)
	got := Count(t, g, p, Options{})
	if got != want {
		t.Fatalf("wildcard-mix wedge = %d, want %d", got, want)
	}
}
