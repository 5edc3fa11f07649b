package core

import (
	"math/rand"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"peregrine/internal/gen"
	"peregrine/internal/graph"
	"peregrine/internal/pattern"
	"peregrine/internal/plan"
	"peregrine/internal/ref"
)

// randomGraph builds a random graph sized for brute-force checking.
func randomGraph(rng *rand.Rand) *graph.Graph {
	n := 8 + rng.Intn(20)
	e := n + rng.Intn(n*3)
	return gen.ErdosRenyi(gen.ERConfig{
		Vertices: uint32(n), Edges: uint64(e), Seed: rng.Uint64() | 1,
		Labels: []int{0, 0, 2, 3}[rng.Intn(4)], // often unlabeled
	})
}

// randomQueryPattern builds a random connected pattern with occasional
// anti-edges, anti-vertices, and labels.
func randomQueryPattern(rng *rand.Rand) *pattern.Pattern {
	n := 2 + rng.Intn(3)
	p := pattern.New(n)
	for v := 1; v < n; v++ {
		p.AddEdge(v, rng.Intn(v))
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if p.EdgeKindOf(u, v) == pattern.None && rng.Intn(3) == 0 {
				if rng.Intn(2) == 0 {
					p.AddEdge(u, v)
				} else {
					p.AddAntiEdge(u, v)
				}
			}
		}
	}
	// Occasionally attach an anti-vertex to a random non-empty subset of
	// the regular vertices.
	if rng.Intn(3) == 0 && n < pattern.MaxVertices {
		reg := p.RegularVertices()
		a := p.AddVertex()
		attached := false
		for _, v := range reg {
			if rng.Intn(2) == 0 {
				p.AddAntiEdge(v, a)
				attached = true
			}
		}
		if !attached {
			p.AddAntiEdge(reg[0], a)
		}
	}
	// Occasionally label a vertex.
	for _, v := range p.RegularVertices() {
		if rng.Intn(4) == 0 {
			p.SetLabel(v, pattern.Label(rng.Intn(3)))
		}
	}
	return p
}

// countBothWays counts p's matches in count mode (no callback: the last
// completion level is added up, not visited) and by counting callback
// invocations, and fails the test if the two disagree.
func countBothWays(tb testing.TB, g *graph.Graph, p *pattern.Pattern, opt Options) uint64 {
	tb.Helper()
	pl, err := plan.New(p, plan.Options{NoSymmetryBreaking: opt.NoSymmetryBreaking})
	if err != nil {
		tb.Fatal(err)
	}
	return countPlanBothWays(tb, g, pl, opt)
}

// countPlanBothWays is countBothWays for a plan already built — by
// plan.New or by hand.
func countPlanBothWays(tb testing.TB, g *graph.Graph, pl *plan.Plan, opt Options) uint64 {
	tb.Helper()
	counted := RunPlans(g, []*plan.Plan{pl}, nil, opt).Per[0].Matches
	var calls atomic.Uint64
	RunPlans(g, []*plan.Plan{pl}, func(*Ctx, int, *Match) { calls.Add(1) }, opt)
	if counted != calls.Load() {
		tb.Errorf("pattern %v (%+v): counted %d matches, enumerated %d", pl.Pat, opt, counted, calls.Load())
	}
	return counted
}

// TestPropertyEngineEqualsBruteForce is the central randomized
// correctness property: for random (graph, pattern) pairs spanning
// anti-edges, anti-vertices, and labels, the engine count — taken both
// in count mode and by enumeration — equals the brute-force oracle
// count, with and without symmetry breaking.
func TestPropertyEngineEqualsBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng)
		p := randomQueryPattern(rng)
		if p.Validate() != nil {
			return true // skip degenerate randomizations
		}
		wantUnique := ref.CountUnique(g, p)
		gotUnique := countBothWays(t, g, p, Options{Threads: 2})
		if gotUnique != wantUnique {
			t.Logf("unique mismatch: got %d want %d (pattern %v, graph %v)", gotUnique, wantUnique, p, g)
			return false
		}
		wantAll := ref.CountAll(g, p)
		gotAll := countBothWays(t, g, p, Options{Threads: 2, NoSymmetryBreaking: true})
		if gotAll != wantAll {
			t.Logf("all mismatch: got %d want %d (pattern %v)", gotAll, wantAll, p)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyVertexInducedTheorem checks Theorem 3.1 on random inputs:
// vertex-induced matches of p == edge-induced matches of the anti-edge
// augmented pattern.
func TestPropertyVertexInducedTheorem(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng)
		// Plain pattern, no constraints (the theorem's setting).
		n := 3 + rng.Intn(2)
		p := pattern.New(n)
		for v := 1; v < n; v++ {
			p.AddEdge(v, rng.Intn(v))
		}
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if p.EdgeKindOf(u, v) == pattern.None && rng.Intn(3) == 0 {
					p.AddEdge(u, v)
				}
			}
		}
		return Count(t, g, pattern.VertexInduced(p), Options{Threads: 2}) == ref.CountVertexInduced(g, p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyMotifPartition: vertex-induced motif counts partition the
// connected k-subsets — each connected set of k vertices is counted by
// exactly one motif, so a motif pattern.GenerateAllVertexInduced misses
// shows up as a shortfall against the direct census, for k up to 5.
func TestPropertyMotifPartition(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng)
		for _, size := range []int{3, 4, 5} {
			var motifTotal uint64
			for _, m := range pattern.GenerateAllVertexInduced(size) {
				motifTotal += Count(t, g, pattern.VertexInduced(m), Options{Threads: 2})
			}
			if want := countConnectedSets(g, size); motifTotal != want {
				t.Logf("motif total %d != connected %d-sets %d", motifTotal, size, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// countConnectedSets counts vertex subsets of the given size that induce
// a connected subgraph, by direct enumeration.
func countConnectedSets(g *graph.Graph, size int) uint64 {
	n := int(g.NumVertices())
	var count uint64
	set := make([]uint32, 0, size)
	var rec func(start int)
	rec = func(start int) {
		if len(set) == size {
			if connected(g, set) {
				count++
			}
			return
		}
		for v := start; v < n; v++ {
			set = append(set, uint32(v))
			rec(v + 1)
			set = set[:len(set)-1]
		}
	}
	rec(0)
	return count
}

func connected(g *graph.Graph, set []uint32) bool {
	seen := make([]bool, len(set))
	stack := []int{0}
	seen[0] = true
	cnt := 1
	for len(stack) > 0 {
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for j := range set {
			if !seen[j] && g.HasEdge(set[i], set[j]) {
				seen[j] = true
				cnt++
				stack = append(stack, j)
			}
		}
	}
	return cnt == len(set)
}

// TestDeadlineStopsUnproductiveSearch: a deadline must bound a search
// that produces no matches (the stop flag cannot rely on callbacks).
func TestDeadlineStopsUnproductiveSearch(t *testing.T) {
	g := gen.RMAT(gen.RMATConfig{Vertices: 1 << 11, Edges: 120000, Seed: 99})
	start := time.Now()
	st := Run(t, g, pattern.Clique(14), nil, Options{Threads: 2, Deadline: 50 * 1e6}) // 50ms
	if took := time.Since(start); !st.Stopped && took.Seconds() > 5 {
		t.Fatalf("deadline did not stop the search in %v: %v", took, st)
	}
}
