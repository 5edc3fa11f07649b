package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"peregrine/internal/graph"
	"peregrine/internal/pattern"
)

// TestPropertyCountInvariantUnderRelabeling: match counts are a graph
// property — permuting the input's vertex ids must not change any count.
// This exercises the whole stack: Builder's degree-ordered renaming, the
// planner's partial orders (which compare renamed ids), and the engine.
func TestPropertyCountInvariantUnderRelabeling(t *testing.T) {
	pats := []*pattern.Pattern{
		pattern.Clique(3),
		pattern.Star(4),
		pattern.Cycle(4),
		pattern.MustParse("0-1 1-2 2-3 3-0 0-2"),
		pattern.MustParse("0-1 0-2 1!2"),
		pattern.VertexInduced(pattern.Chain(4)),
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 12 + rng.Intn(20)
		var edges [][2]uint32
		for i := 0; i < n*2; i++ {
			u, v := uint32(rng.Intn(n)), uint32(rng.Intn(n))
			if u != v {
				edges = append(edges, [2]uint32{u, v})
			}
		}
		build := func(perm []int) *graph.Graph {
			b := graph.NewBuilder()
			for _, e := range edges {
				b.AddEdge(uint32(perm[e[0]]), uint32(perm[e[1]]))
			}
			return b.Build()
		}
		id := make([]int, n)
		for i := range id {
			id[i] = i
		}
		g1 := build(id)
		g2 := build(rng.Perm(n))
		for _, p := range pats {
			c1, c2 := Count(t, g1, p, Options{Threads: 2}), Count(t, g2, p, Options{Threads: 2})
			if c1 != c2 {
				t.Logf("count changed under relabeling: %d vs %d (pattern %v)", c1, c2, p)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyMatchesAreDistinctSets: within one run, no two delivered
// matches may map the pattern to the same data-vertex assignment.
func TestPropertyMatchesAreDistinctSets(t *testing.T) {
	g := graph.FromAdjacency(map[uint32][]uint32{
		0: {1, 2, 3, 4}, 1: {2, 3}, 2: {3, 4}, 3: {4}, 5: {0, 1, 2},
	})
	for _, p := range []*pattern.Pattern{
		pattern.Clique(3), pattern.Star(3), pattern.Cycle(4), pattern.Chain(4),
	} {
		seen := make(map[string]bool)
		dup := false
		Run(t, g, p, func(ctx *Ctx, m *Match) {
			key := make([]byte, 0, len(m.Mapping)*4)
			for _, v := range m.Mapping {
				key = append(key, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
			}
			if seen[string(key)] {
				dup = true
			}
			seen[string(key)] = true
		}, Options{Threads: 1})
		if dup {
			t.Fatalf("duplicate match delivered for %v", p)
		}
	}
}
