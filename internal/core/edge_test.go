package core

import (
	"slices"
	"testing"

	"peregrine/internal/gen"
	"peregrine/internal/graph"
	"peregrine/internal/pattern"
	"peregrine/internal/plan"
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
func hubGraph() *graph.Graph { return wheel(50) }

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
//
// The cliques and cycles are plans whose whole completion is one level,
// sized at the core binding (plan.NonCoreStep.Distinct lists what it
// subtracts): K4 and K5 subtract nothing; the edge-induced C4 and C5
// subtract one and two core vertices without symmetry breaking, and the
// second C5 spelling, with it, subtracts one on a trie node sized for
// all of its candidates in one loop (plan.ShareNode.Sized).
//
// The partially labeled wedge, on a labeled hub graph, completes a
// filtered leaf and then an unfiltered last one with no Tail: that last
// level is walked and counted in place, skipping the filtered leaf's
// binding, which its set holds.
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
		pattern.Clique(4),
		pattern.Clique(5),
		pattern.MustParse("0-2 0-3 1-2 1-3"),     // C4: core 0, 1, 2; 3 may equal 2
		pattern.MustParse("0-3 0-4 1-2 1-4 2-3"), // C5: core 0..3; 4 may equal 2 or 3
		pattern.MustParse("0-1 0-2 1-3 2-4 3-4"), // C5, sized per node
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

	lg := labeledWheel(50)
	wedge := pattern.MustParse("0-1 0-2 [1:1]")
	for _, noSym := range []bool{false, true} {
		pl, err := plan.New(wedge, plan.Options{NoSymmetryBreaking: noSym})
		if err != nil {
			t.Fatal(err)
		}
		if nc := pl.NonCore; len(nc) != 2 || nc[0].Unfiltered() || !nc[1].Unfiltered() || len(nc[1].Distinct) == 0 || pl.Tail != nil {
			t.Fatalf("%v noSym=%v: completion %+v, tail %v; want a filtered step, then an unfiltered last that may hold its binding, and no tail", wedge, noSym, nc, pl.Tail)
		}
		want := ref.CountUnique(lg, wedge)
		if noSym {
			want = ref.CountAll(lg, wedge)
		}
		if got := countPlanBothWays(t, lg, pl, Options{Threads: 4, NoSymmetryBreaking: noSym}); got != want {
			t.Errorf("%v noSym=%v on labeled hub graph = %d, want %d", wedge, noSym, got, want)
		}
	}
}

// labeledWheel is wheel(n) with every odd vertex labeled 1, the rest 0.
func labeledWheel(n uint32) *graph.Graph {
	b := graph.NewBuilder()
	for i := uint32(1); i <= n; i++ {
		b.AddEdge(0, i)
		b.AddEdge(i, i%n+1)
	}
	for i := uint32(0); i <= n; i++ {
		b.SetLabel(i, i%2)
	}
	return b.Build()
}

// tailStart returns the completion level from which a count of pl on g
// sizes a Tail, or -1 when it sizes none.
func tailStart(g *graph.Graph, pl *plan.Plan) int {
	if tl := fitTail(pl, g.MaxDegree()); tl != nil {
		return tl.Start
	}
	return -1
}

// flipTail returns pl with its last two completion steps in the other
// order, the condition between them carried over: "last above
// second-to-last" becomes an upper bound on the new last step. plan.New
// completes symmetric non-core vertices in id order and orients every
// condition from the lower id, so it only ever produces the first form;
// the plan contract allows both.
func flipTail(t *testing.T, pl *plan.Plan) *plan.Plan {
	t.Helper()
	k := len(pl.NonCore)
	prev, last := pl.NonCore[k-2], pl.NonCore[k-1]
	var lower []int
	for _, pv := range last.LowerBound {
		if pv != prev.V {
			lower = append(lower, pv)
		}
	}
	if len(lower) == len(last.LowerBound) {
		t.Fatalf("%v: last step %+v is not bounded below by the step before it", pl.Pat, last)
	}
	last.LowerBound = lower
	prev.UpperBound = append(append([]int(nil), prev.UpperBound...), last.V)
	flipped := *pl
	flipped.NonCore = append(append([]plan.NonCoreStep(nil), pl.NonCore[:k-2]...), last, prev)
	flipped.Tail = plan.TailOf(&flipped, 0)
	return &flipped
}

// TestCountModeTwoStepTails pins count mode's shortest tails: when the
// last two or more completion steps are unfiltered, a count sizes them
// from their classes' sets instead of walking any of them — one chained
// class, an unordered one (no symmetry breaking) or classes of one. Each
// shape is checked against brute force with and without symmetry
// breaking, count mode against enumeration, on the hub graph — where
// every tail's list is the hub's adjacency, so matched vertices sit
// inside the sets and their overlap — and on a small dense graph where
// the id windows cut the sets unevenly. A plan whose last two steps chain
// is checked again with them in the other order (flipTail).
func TestCountModeTwoStepTails(t *testing.T) {
	graphs := []*graph.Graph{
		hubGraph(),
		gen.ErdosRenyi(gen.ERConfig{Vertices: 20, Edges: 80, Seed: 5}),
	}
	flips := 0
	for _, text := range []string{
		"0-1 1-2 2-3",                 // 4-path: each end's set holds the other end's core neighbour
		"0-1 1-2 2-3 3-4",             // 5-path
		"0-1 0-2 0-3",                 // 3-star and up: one class
		"0-1 0-2 0-3 0-4",             //
		"0-1 1-2 2-0 0-3",             // tailed triangle
		"0-1 1-2 2-0 0-3 0-4",         // two tails on one corner: matched vertices in A ∩ B
		"0-1 1-2 2-0 0-3 1-4",         // tails on two corners: the third corner is in both tails' sets
		"0-1 1-2 2-0 0-3 1-4 2-5",     // a tail per corner
		"0-1 1-2 2-3 3-0 0-4 2-5",     // 4-cycle with tails on opposite corners
		"0-1 0-2 0-3 1-4 1-5",         // double star: two chained pairs
		"0-1 0-2 1-2 0-3 1-3 0-4 1-4", // three vertices on one edge: nested two-list sets
	} {
		p := pattern.MustParse(text)
		for _, noSym := range []bool{false, true} {
			pl, err := plan.New(p, plan.Options{NoSymmetryBreaking: noSym})
			if err != nil {
				t.Fatal(err)
			}
			k := len(pl.NonCore)
			if start := tailStart(graphs[0], pl); start < 0 || start > k-2 {
				t.Fatalf("%v noSym=%v: tail from level %d of %d, want one over the last two at least", p, noSym, start, k)
			}
			var flipped *plan.Plan
			if slices.Contains(pl.NonCore[k-1].LowerBound, pl.NonCore[k-2].V) {
				flipped = flipTail(t, pl)
				if start := tailStart(graphs[0], flipped); start < 0 || start > k-2 {
					t.Fatalf("%v: flipped plan's tail from level %d of %d", p, start, k)
				}
				flips++
			}
			for gi, g := range graphs {
				want := ref.CountUnique(g, p)
				if noSym {
					want = ref.CountAll(g, p)
				}
				if got := countBothWays(t, g, p, Options{Threads: 2, NoSymmetryBreaking: noSym}); got != want {
					t.Errorf("%v noSym=%v graph %d = %d, want %d", p, noSym, gi, got, want)
				}
				if flipped != nil {
					if got := countPlanBothWays(t, g, flipped, Options{Threads: 2}); got != want {
						t.Errorf("%v with its tail flipped, graph %d = %d, want %d", p, gi, got, want)
					}
				}
			}
		}
	}
	if flips == 0 {
		t.Error("no shape's last two steps chain")
	}

	// Every condition plan.New emits joins two vertices an automorphism
	// exchanges, so over a whole graph "x below y" and "y below x" count
	// the same and a wrong direction goes unseen. Conditions added by
	// hand between the two tails of different corners — and an upper
	// bound on both from the third corner, a non-core vertex — make the
	// direction, and the bounds on the last set, show in the total. No
	// Tail holds an order across sets, so count mode walks the levels
	// above the last.
	p := pattern.MustParse("0-1 1-2 2-0 0-3 1-4")
	forward := *mustPlan(t, p)
	forward.NonCore = append([]plan.NonCoreStep(nil), forward.NonCore...)
	if k := len(forward.NonCore); k != 3 || forward.NonCore[0].V != 2 || forward.NonCore[1].V != 3 || forward.NonCore[2].V != 4 {
		t.Fatalf("%v: completion order %+v, want 2, 3, 4", p, forward.NonCore)
	}
	forward.NonCore[1].UpperBound = []int{2}
	forward.NonCore[2].LowerBound = []int{3}
	forward.NonCore[2].UpperBound = []int{2}
	forward.Tail = plan.TailOf(&forward, 0)
	backward := flipTail(t, &forward)
	if forward.Tail != nil || backward.Tail != nil {
		t.Fatalf("hand-ordered plan: orders across sets, yet a tail")
	}
	for gi, g := range graphs {
		var want, mirrored uint64
		ref.Enumerate(g, p, func(m []uint32) bool {
			if m[0] < m[1] && m[3] < m[2] && m[4] < m[2] {
				if m[3] < m[4] {
					want++
				} else {
					mirrored++
				}
			}
			return true
		})
		if want == mirrored {
			t.Fatalf("graph %d cannot tell the two directions apart (%d either way)", gi, want)
		}
		if got := countPlanBothWays(t, g, &forward, Options{Threads: 2}); got != want {
			t.Errorf("hand-ordered plan, graph %d = %d, want %d", gi, got, want)
		}
		if got := countPlanBothWays(t, g, backward, Options{Threads: 2}); got != want {
			t.Errorf("hand-ordered plan with its tail flipped, graph %d = %d, want %d", gi, got, want)
		}
	}

	// The shapes that must keep walking: a label or an anti-edge on either
	// of the last two steps, or an anti-vertex to check per match.
	labeled := gen.ErdosRenyi(gen.ERConfig{Vertices: 20, Edges: 80, Seed: 5, Labels: 2})
	for _, text := range []string{
		"0-1 0-2 0-3 [3:1]",       // label on the last step
		"0-1 0-2 0-3 [2:1]",       // label on the second-to-last
		"0-1 1-2 2-3 0!2",         // anti-edge on the second-to-last
		"0-1 1-2 2-3 0!2 1!3",     // anti-edges on both
		"0-1 1-2 2-3 1!4 2!4",     // anti-vertex
		"0-1 0-2 0-3 1!4 2!4 3!4", // anti-vertex over the leaves
	} {
		p := pattern.MustParse(text)
		if len(mustPlan(t, p).NonCore) < 2 {
			t.Fatalf("%v: fewer than two completion steps", p)
		}
		for _, noSym := range []bool{false, true} {
			pl, err := plan.New(p, plan.Options{NoSymmetryBreaking: noSym})
			if err != nil {
				t.Fatal(err)
			}
			if start := tailStart(labeled, pl); start >= 0 {
				t.Fatalf("%v noSym=%v: filtered steps sized as a tail from level %d", p, noSym, start)
			}
			want := ref.CountUnique(labeled, p)
			if noSym {
				want = ref.CountAll(labeled, p)
			}
			if got := countBothWays(t, labeled, p, Options{Threads: 2, NoSymmetryBreaking: noSym}); got != want {
				t.Errorf("%v noSym=%v = %d, want %d", p, noSym, got, want)
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
