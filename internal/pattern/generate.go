package pattern

// This file implements the pattern construction API of Figure 2:
// generators for well-known patterns [S1-S3], exhaustive generation of
// unique patterns by vertex or edge count [G1-G2], and step-by-step
// extension [C1-C2] used by FSM's pattern growth loop.

// Clique returns the complete pattern on k vertices [S1].
func Clique(k int) *Pattern {
	p := New(k)
	for u := 0; u < k; u++ {
		for v := u + 1; v < k; v++ {
			p.AddEdge(u, v)
		}
	}
	return p
}

// Star returns the star pattern with k vertices: vertex 0 is the center
// and vertices 1..k-1 are leaves [S2]. Star(3) is the wedge (the "3-star"
// used by the clustering-coefficient program in §3.2.2).
func Star(k int) *Pattern {
	p := New(k)
	for v := 1; v < k; v++ {
		p.AddEdge(0, v)
	}
	return p
}

// Chain returns the path pattern with k vertices [S3].
func Chain(k int) *Pattern {
	p := New(k)
	for v := 0; v+1 < k; v++ {
		p.AddEdge(v, v+1)
	}
	return p
}

// Cycle returns the cycle pattern with k vertices.
func Cycle(k int) *Pattern {
	p := Chain(k)
	if k > 2 {
		p.AddEdge(0, k-1)
	}
	return p
}

// GenerateAllVertexInduced returns all unique connected unlabeled
// patterns with exactly size vertices [G2]. These are the motifs of a
// given size: motif counting matches each with vertex-induced semantics.
func GenerateAllVertexInduced(size int) []*Pattern {
	if size < 2 {
		return nil
	}
	pairs := allPairs(size)
	var classes Classes
	// Enumerate every subset of the complete graph's edges.
	for mask := 0; mask < 1<<len(pairs); mask++ {
		p := New(size)
		for i, pr := range pairs {
			if mask&(1<<i) != 0 {
				p.AddEdge(pr[0], pr[1])
			}
		}
		if p.ConnectedRegular() {
			classes.Add(p, 1)
		}
	}
	return classes.Sorted()
}

// GenerateAllEdgeInduced returns all unique connected unlabeled patterns
// with exactly edges regular edges [G1]. FSM iterates over these: a
// k-edge FSM run starts from GenerateAllEdgeInduced(1) and extends.
func GenerateAllEdgeInduced(edges int) []*Pattern {
	if edges < 1 {
		return nil
	}
	var classes Classes
	// A connected pattern with e edges has between 2 and e+1 vertices.
	for n := 2; n <= edges+1 && n <= MaxVertices; n++ {
		pairs := allPairs(n)
		Combinations(len(pairs), edges, func(combo []int) bool {
			p := New(n)
			for _, i := range combo {
				p.AddEdge(pairs[i][0], pairs[i][1])
			}
			// This also rejects an isolated vertex: a regular vertex in a
			// component of its own.
			if p.ConnectedRegular() {
				classes.Add(p, 1)
			}
			return true
		})
	}
	return classes.Sorted()
}

// ExtendByEdge grows each input pattern by one edge [C1]: either a new
// regular edge between two existing non-adjacent vertices, or a new
// wildcard vertex attached to one existing vertex. The result is
// deduplicated up to isomorphism across all inputs, mirroring the FSM
// growth step in Figure 4a.
func ExtendByEdge(patterns []*Pattern) []*Pattern {
	var classes Classes
	for _, p := range patterns {
		n := p.N()
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if p.EdgeKindOf(u, v) == None && !p.IsAntiVertex(u) && !p.IsAntiVertex(v) {
					q := p.Clone()
					q.AddEdge(u, v)
					classes.Add(q, 1)
				}
			}
		}
		if n < MaxVertices {
			for u := 0; u < n; u++ {
				if p.IsAntiVertex(u) {
					continue
				}
				q := p.Clone()
				w := q.AddVertex()
				q.AddEdge(u, w)
				classes.Add(q, 1)
			}
		}
	}
	return classes.Sorted()
}

// ExtendByVertex grows each input pattern by one vertex [C2]: a new
// wildcard vertex attached to every non-empty subset of the existing
// regular vertices. Results are deduplicated up to isomorphism.
func ExtendByVertex(patterns []*Pattern) []*Pattern {
	var classes Classes
	for _, p := range patterns {
		if p.N() >= MaxVertices {
			continue
		}
		reg := p.RegularVertices()
		for mask := 1; mask < 1<<len(reg); mask++ {
			q := p.Clone()
			w := q.AddVertex()
			for i, u := range reg {
				if mask&(1<<i) != 0 {
					q.AddEdge(u, w)
				}
			}
			classes.Add(q, 1)
		}
	}
	return classes.Sorted()
}

func allPairs(n int) [][2]int {
	var pairs [][2]int
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			pairs = append(pairs, [2]int{u, v})
		}
	}
	return pairs
}

// Combinations calls f with each k-subset of [0, n), ascending, in
// lexicographic order, until f returns false. The slice is reused
// between calls.
func Combinations(n, k int, f func([]int) bool) {
	combo := make([]int, k)
	var rec func(start, idx int) bool
	rec = func(start, idx int) bool {
		if idx == k {
			return f(combo)
		}
		for i := start; i <= n-(k-idx); i++ {
			combo[idx] = i
			if !rec(i+1, idx+1) {
				return false
			}
		}
		return true
	}
	rec(0, 0)
}

// VertexInduced returns the anti-edge augmentation of p per Theorem 3.1:
// every pair of regular vertices that is neither adjacent nor
// anti-adjacent becomes anti-adjacent. The edge-induced matches of the
// result are exactly the vertex-induced matches of p. Anti-vertices are
// left untouched.
func VertexInduced(p *Pattern) *Pattern {
	q := p.Clone()
	reg := p.RegularVertices()
	for i, u := range reg {
		for _, v := range reg[i+1:] {
			if q.EdgeKindOf(u, v) == None {
				q.AddAntiEdge(u, v)
			}
		}
	}
	return q
}
