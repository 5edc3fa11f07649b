package peregrine_test

import (
	"fmt"
	"sort"

	"peregrine"
	"peregrine/internal/gen"
)

// The Figure 6 data graph from the paper, used across examples.
func figure6Graph() *peregrine.Graph {
	return peregrine.GraphFromEdges([][2]uint32{
		{1, 2}, {1, 4}, {1, 6},
		{2, 3}, {2, 4},
		{3, 5},
		{4, 5}, {4, 6},
		{5, 6}, {5, 7},
		{6, 7},
	})
}

func ExampleCount() {
	g := figure6Graph()
	triangles, _ := peregrine.Count(g, peregrine.GenerateClique(3))
	wedges, _ := peregrine.Count(g, peregrine.GenerateStar(3))
	fmt.Println("triangles:", triangles)
	fmt.Println("wedges:", wedges)
	// Output:
	// triangles: 4
	// wedges: 26
}

func ExampleForEachMatch() {
	g := figure6Graph()
	triangle := peregrine.GenerateClique(3)
	var found [][]uint32
	peregrine.ForEachMatch(g, triangle, func(ctx *peregrine.Ctx, m *peregrine.Match) {
		orig := m.OrigMapping(ctx.G)
		sort.Slice(orig, func(i, j int) bool { return orig[i] < orig[j] })
		found = append(found, orig)
	}, peregrine.WithThreads(1))
	sort.Slice(found, func(i, j int) bool {
		for k := range found[i] {
			if found[i][k] != found[j][k] {
				return found[i][k] < found[j][k]
			}
		}
		return false
	})
	for _, m := range found {
		fmt.Println(m)
	}
	// Output:
	// [1 2 4]
	// [1 4 6]
	// [4 5 6]
	// [5 6 7]
}

func ExampleMustParsePattern_antiEdge() {
	// Unrelated people with two mutual friends (pattern pa of Figure 3):
	// vertices 0 and 2 are anti-adjacent, 1 and 3 are the mutual friends.
	g := figure6Graph()
	pa := peregrine.MustParsePattern("1-0 1-2 3-0 3-2 0!2")
	n, _ := peregrine.Count(g, pa)
	fmt.Println("recommendation pairs:", n)
	// Output:
	// recommendation pairs: 5
}

func ExampleExists() {
	g := figure6Graph()
	four, _ := peregrine.Exists(g, peregrine.GenerateClique(4))
	three, _ := peregrine.Exists(g, peregrine.GenerateClique(3))
	fmt.Println("4-clique:", four, "triangle:", three)
	// Output:
	// 4-clique: false triangle: true
}

func ExampleVertexInduced() {
	// Chordless squares: the 4-cycle with vertex-induced semantics.
	g := figure6Graph()
	edgeInduced, _ := peregrine.Count(g, peregrine.GenerateCycle(4))
	chordless, _ := peregrine.Count(g, peregrine.GenerateCycle(4), peregrine.VertexInduced())
	fmt.Println(edgeInduced, "squares,", chordless, "chordless")
	// Output:
	// 4 squares, 1 chordless
}

func ExampleMotifCounts() {
	g := figure6Graph()
	motifs, _ := peregrine.MotifCounts(g, 3)
	for _, mc := range motifs {
		fmt.Printf("%v -> %d\n", mc.Pattern, mc.Count)
	}
	// Output:
	// 0-1 0-2 -> 14
	// 0-1 0-2 1-2 -> 4
}

func ExampleCount_differential() {
	// The seeded er-48 graph's triangle count is stable across runs.
	g := gen.ErdosRenyi(gen.ERConfig{Vertices: 48, Edges: 110, Seed: 11})
	n, _ := peregrine.Count(g, peregrine.GenerateClique(3))
	fmt.Println(n > 0)
	// Output: true
}
