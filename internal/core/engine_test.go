package core

import (
	"fmt"
	"testing"
	"unsafe"

	"peregrine/internal/gen"
	"peregrine/internal/graph"
	"peregrine/internal/pattern"
	"peregrine/internal/plan"
	"peregrine/internal/ref"
)

// testGraphs returns a spread of small graphs: hand-built corner cases
// plus deterministic random graphs of varying density.
func testGraphs(tb testing.TB) map[string]*graph.Graph {
	gs := map[string]*graph.Graph{
		"triangle":    graph.FromEdges([]graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 0}}),
		"path4":       graph.FromEdges([]graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 3}}),
		"star5":       graph.FromEdges([]graph.Edge{{Src: 0, Dst: 1}, {Src: 0, Dst: 2}, {Src: 0, Dst: 3}, {Src: 0, Dst: 4}}),
		"k5":          completeGraph(5),
		"k6":          completeGraph(6),
		"paperFig6":   paperDataGraph(),
		"bipartite33": bipartite(3, 3),
		"sparse":      gen.ErdosRenyi(gen.ERConfig{Vertices: 40, Edges: 60, Seed: 7}),
		"medium":      gen.ErdosRenyi(gen.ERConfig{Vertices: 30, Edges: 90, Seed: 8}),
		"dense":       gen.ErdosRenyi(gen.ERConfig{Vertices: 18, Edges: 110, Seed: 9}),
		"powerlaw":    gen.RMAT(gen.RMATConfig{Vertices: 64, Edges: 220, Seed: 10}),
		"labeled":     gen.ErdosRenyi(gen.ERConfig{Vertices: 32, Edges: 80, Seed: 11, Labels: 3}),
	}
	return gs
}

func completeGraph(n int) *graph.Graph {
	var edges []graph.Edge
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			edges = append(edges, graph.Edge{Src: uint32(u), Dst: uint32(v)})
		}
	}
	return graph.FromEdges(edges)
}

func bipartite(a, b int) *graph.Graph {
	var edges []graph.Edge
	for u := 0; u < a; u++ {
		for v := 0; v < b; v++ {
			edges = append(edges, graph.Edge{Src: uint32(u), Dst: uint32(a + v)})
		}
	}
	return graph.FromEdges(edges)
}

// paperDataGraph is the 7-vertex data graph of Figure 6.
func paperDataGraph() *graph.Graph {
	return graph.FromEdges([]graph.Edge{
		{Src: 1, Dst: 2}, {Src: 1, Dst: 4}, {Src: 1, Dst: 6},
		{Src: 2, Dst: 3}, {Src: 2, Dst: 4},
		{Src: 3, Dst: 5},
		{Src: 4, Dst: 5}, {Src: 4, Dst: 6},
		{Src: 5, Dst: 6}, {Src: 5, Dst: 7},
		{Src: 6, Dst: 7},
	})
}

// testPatterns is a spread of plain, anti-edge, anti-vertex, and labeled
// patterns exercising distinct plan shapes (single-vertex cores, multi
// matching orders, completion constraints).
func testPatterns(tb testing.TB) map[string]*pattern.Pattern {
	ps := map[string]*pattern.Pattern{
		"edge":          pattern.MustParse("0-1"),
		"wedge":         pattern.Star(3),
		"triangle":      pattern.Clique(3),
		"path4":         pattern.Chain(4),
		"square":        pattern.Cycle(4),
		"star4":         pattern.Star(4),
		"diamond":       pattern.MustParse("0-1 1-2 2-3 3-0 0-2"),
		"k4":            pattern.Clique(4),
		"tailedTri":     pattern.MustParse("0-1 1-2 2-0 2-3"),
		"house":         pattern.MustParse("0-1 1-2 2-3 3-4 4-0 1-4"),
		"antiEdgeWedge": pattern.MustParse("0-1 0-2 1!2"),
		"vindSquare":    pattern.VertexInduced(pattern.Cycle(4)),
		"chordalSqAnti": pattern.MustParse("0-1 1-2 2-3 3-0 0-2 1!3"),
		"antiVertexTri": antiVertexTriangle(),
		"antiVertexPe":  patternPe(),
		"labeledEdge":   pattern.MustParse("0-1 [0:1] [1:2]"),
		"labeledTri":    pattern.MustParse("0-1 1-2 2-0 [0:0] [1:0] [2:1]"),
		"wildcardsTri":  pattern.MustParse("0-1 1-2 2-0 [0:0]"),
	}
	return ps
}

// antiVertexTriangle is p7 of Figure 9: a triangle with a fully
// connected anti-vertex, matching maximal triangles only.
func antiVertexTriangle() *pattern.Pattern {
	p := pattern.Clique(3)
	a := p.AddVertex()
	for v := 0; v < 3; v++ {
		p.AddAntiEdge(v, a)
	}
	return p
}

// patternPe is pe of Figure 3: a triangle u1,u2,u3 plus an anti-vertex
// u4 anti-adjacent to u1 and u3 (pairs of friends with exactly one
// mutual friend, §3.1.2).
func patternPe() *pattern.Pattern {
	p := pattern.Clique(3)
	a := p.AddVertex()
	p.AddAntiEdge(0, a)
	p.AddAntiEdge(2, a)
	return p
}

func TestEngineMatchesBruteForce(t *testing.T) {
	graphs := testGraphs(t)
	pats := testPatterns(t)
	for gn, g := range graphs {
		for pn, p := range pats {
			if p.Labeled() && !g.Labeled() {
				continue
			}
			t.Run(fmt.Sprintf("%s/%s", gn, pn), func(t *testing.T) {
				want := ref.CountUnique(g, p)
				got := Count(t, g, p, Options{Threads: 4})
				if got != want {
					t.Fatalf("engine count = %d, brute force = %d (pattern %v)", got, want, p)
				}
			})
		}
	}
}

func TestEngineNoSymmetryBreakingMatchesAllIsomorphisms(t *testing.T) {
	graphs := testGraphs(t)
	pats := testPatterns(t)
	for gn, g := range graphs {
		for pn, p := range pats {
			if p.Labeled() && !g.Labeled() {
				continue
			}
			t.Run(fmt.Sprintf("%s/%s", gn, pn), func(t *testing.T) {
				want := ref.CountAll(g, p)
				got := Count(t, g, p, Options{Threads: 4, NoSymmetryBreaking: true})
				if got != want {
					t.Fatalf("PRG-U count = %d, brute force all = %d (pattern %v)", got, want, p)
				}
			})
		}
	}
}

func TestPaperFigure6Example(t *testing.T) {
	// The chordal-square pattern of Figure 6 (u1-u2-u3-u4 square with
	// chord u2-u4).
	p := pattern.MustParse("0-1 1-2 2-3 3-0 1-3")
	g := paperDataGraph()
	want := ref.CountUnique(g, p)
	got := Count(t, g, p, Options{Threads: 2})
	if got != want {
		t.Fatalf("figure 6 pattern count = %d, want %d", got, want)
	}
}

func TestMatchMappingsAreValid(t *testing.T) {
	g := testGraphs(t)["medium"]
	for pn, p := range testPatterns(t) {
		if p.Labeled() {
			continue
		}
		p := p
		t.Run(pn, func(t *testing.T) {
			reg := p.RegularVertices()
			Run(t, g, p, func(ctx *Ctx, m *Match) {
				seen := make(map[uint32]bool)
				for _, v := range reg {
					d := m.Mapping[v]
					if d == NoVertex {
						t.Fatalf("regular vertex %d unmatched", v)
					}
					if seen[d] {
						t.Fatalf("duplicate data vertex %d in match", d)
					}
					seen[d] = true
				}
				for i, u := range reg {
					for _, v := range reg[i+1:] {
						switch p.EdgeKindOf(u, v) {
						case pattern.Regular:
							if !g.HasEdge(m.Mapping[u], m.Mapping[v]) {
								t.Fatalf("pattern edge (%d,%d) not present in data", u, v)
							}
						case pattern.Anti:
							if g.HasEdge(m.Mapping[u], m.Mapping[v]) {
								t.Fatalf("anti-edge (%d,%d) violated", u, v)
							}
						}
					}
				}
				for _, a := range p.AntiVertices() {
					if m.Mapping[a] != NoVertex {
						t.Fatalf("anti-vertex %d has a mapping", a)
					}
				}
			}, Options{Threads: 4})
		})
	}
}

func TestExistsStopsEarly(t *testing.T) {
	g := gen.ErdosRenyi(gen.ERConfig{Vertices: 500, Edges: 3000, Seed: 3})
	ok := Exists(t, g, pattern.Clique(3), Options{Threads: 4})
	if !ok {
		t.Fatal("expected a triangle to exist")
	}
	// A pattern that cannot exist: a 9-clique in a sparse graph.
	ok = Exists(t, g, pattern.Clique(9), Options{Threads: 4})
	if ok {
		t.Fatal("found a 9-clique in a graph that cannot contain one")
	}
}

func TestStopTerminatesQuickly(t *testing.T) {
	g := gen.RMAT(gen.RMATConfig{Vertices: 1 << 12, Edges: 80000, Seed: 5})
	var calls int
	st := Run(t, g, pattern.Clique(3), func(ctx *Ctx, m *Match) {
		calls++
		ctx.Stop()
	}, Options{Threads: 1})
	if !st.Stopped {
		t.Fatal("stats should report early termination")
	}
	if calls > 4 {
		t.Fatalf("callback ran %d times after Stop with 1 thread", calls)
	}
}

func TestThreadCountsAgree(t *testing.T) {
	g := gen.RMAT(gen.RMATConfig{Vertices: 1 << 10, Edges: 20000, Seed: 6})
	p := pattern.Clique(4)
	base := Count(t, g, p, Options{Threads: 1})
	for _, threads := range []int{2, 3, 8} {
		got := Count(t, g, p, Options{Threads: threads})
		if got != base {
			t.Fatalf("threads=%d count=%d, want %d", threads, got, base)
		}
	}
}

func TestLabeledMatching(t *testing.T) {
	// A small labeled graph built by hand: labels partition a 4-cycle.
	b := graph.NewBuilder()
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	b.AddEdge(3, 0)
	b.SetLabel(0, 1)
	b.SetLabel(1, 2)
	b.SetLabel(2, 1)
	b.SetLabel(3, 2)
	g := b.Build()

	cnt := Count(t, g, pattern.MustParse("0-1 [0:1] [1:2]"), Options{Threads: 2})
	if cnt != 4 {
		t.Fatalf("labeled edge count = %d, want 4", cnt)
	}
	cnt = Count(t, g, pattern.MustParse("0-1 [0:1] [1:3]"), Options{Threads: 2})
	if cnt != 0 {
		t.Fatalf("labeled edge with absent label count = %d, want 0", cnt)
	}
}

// A count returns one Stats row per requested pattern, and callers keep
// them: the benchmark holds every op's MultiStats for its whole run, so
// on a fast engine a row's bytes are resident memory that grows with the
// ops completed. Run-wide figures belong on MultiStats, not in each row.
func TestStatsRowSize(t *testing.T) {
	if n := unsafe.Sizeof(Stats{}); n > 40 {
		t.Errorf("a Stats row is %d bytes, want at most 40 (four counters, Threads and Stopped)", n)
	}
}

// An anti-vertex check's common-neighbour set lives in a buffer its
// worker keeps, grown buffer included, like every other candidate set:
// counting edges with no common neighbour on K300, where each of the
// 44,850 edges' checks merges two 299-vertex lists into 298 common
// neighbours — past the buffer's first size — allocates per run, not
// per check.
func TestAntiVertexCheckKeepsItsBuffer(t *testing.T) {
	g := completeGraph(300)
	pls := []*plan.Plan{mustPlan(t, pattern.MustParse("0-1 0!2 1!2"))}
	var ms MultiStats
	allocs := testing.AllocsPerRun(1, func() {
		ms = RunPlans(g, pls, nil, Options{Threads: 1})
	})
	if ms.Per[0].Matches != 0 || ms.Per[0].Intersections != 44850 {
		t.Fatalf("matches = %d, intersections = %d, want 0 and 44850", ms.Per[0].Matches, ms.Per[0].Intersections)
	}
	if allocs >= 1000 {
		t.Errorf("a count allocates %.0f times, want fewer than 1000", allocs)
	}
}

// A count-mode level that may hold matched vertices gathers their
// bindings into scratch its thread keeps, like the anti-vertex check's
// set: counting the edge-induced C5 on K20 — with symmetry breaking on
// Sized nodes, without it at each delivered core match, each time with
// core vertices to subtract, thousands of times — allocates per run, not
// per level.
func TestSizedLevelKeepsItsScratch(t *testing.T) {
	g := completeGraph(20)
	const cycles = 15504 * 12 // C(20, 5) vertex sets, 4!/2 cycles on each
	for _, noSym := range []bool{false, true} {
		pl, err := plan.New(pattern.MustParse("0-1 0-2 1-3 2-4 3-4"), plan.Options{NoSymmetryBreaking: noSym})
		if err != nil {
			t.Fatal(err)
		}
		if len(pl.NonCore) != 1 || len(pl.NonCore[0].Distinct) == 0 {
			t.Fatalf("noSym=%v: completion %+v, want one step that may hold core vertices", noSym, pl.NonCore)
		}
		var ms MultiStats
		allocs := testing.AllocsPerRun(1, func() {
			ms = RunPlans(g, []*plan.Plan{pl}, nil, Options{Threads: 1, NoSymmetryBreaking: noSym})
		})
		want := uint64(cycles)
		if noSym {
			want *= 10 // |Aut(C5)|
		}
		if ms.Per[0].Matches != want {
			t.Fatalf("noSym=%v: matches = %d, want %d", noSym, ms.Per[0].Matches, want)
		}
		if allocs >= 1000 {
			t.Errorf("noSym=%v: a count allocates %.0f times, want fewer than 1000", noSym, allocs)
		}
	}
}

// A thread completes one core match of one plan at a time, so all a plan
// keeps per thread is its row: the allocations each thread past the
// first adds must not grow with the batch. Thirty-two copies of the
// 4-cycle, each compiled on its own, against one, at four threads and at
// one, counting and enumerating.
func TestThreadStateDoesNotGrowWithPlans(t *testing.T) {
	g := gen.ErdosRenyi(gen.ERConfig{Vertices: 200, Edges: 600, Seed: 1})
	batch := func(k int) []*plan.Plan {
		pls := make([]*plan.Plan, k)
		for i := range pls {
			pls[i] = mustPlan(t, pattern.Cycle(4))
		}
		return pls
	}
	one, many := batch(1), batch(32)
	noop := func(*Ctx, int, *Match) {}
	for _, cb := range []PlanCallback{nil, noop} {
		// extra is what the three threads past the first allocate.
		extra := func(pls []*plan.Plan) float64 {
			allocs := func(threads int) float64 {
				return testing.AllocsPerRun(5, func() {
					RunPlans(g, pls, cb, Options{Threads: threads})
				})
			}
			return allocs(4) - allocs(1)
		}
		if growth := extra(many) - extra(one); growth >= float64(len(many)-1) {
			t.Errorf("callback=%v: 3 more threads allocate %.0f times more for %d copies of a plan than for 1, want fewer than %d",
				cb != nil, growth, len(many), len(many)-1)
		}
	}
}
