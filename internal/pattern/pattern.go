// Package pattern implements graph patterns as first-class values
// (paper §3.1): small connected graphs with optional vertex labels,
// anti-edges (strict disconnection constraints between vertex pairs,
// §3.1.1) and anti-vertices (strict absence of a common neighbor,
// §3.1.2).
//
// Patterns are mutable while being constructed and are treated as
// immutable once handed to the planner or engine. They are small (the
// engine supports up to MaxVertices vertices), so the package freely
// uses O(n!) algorithms for canonicalization and automorphism
// enumeration; plan generation cost is amortized over data-graph
// exploration (paper: "exploration plans are computed quickly, often in
// less than half a millisecond").
package pattern

import (
	"fmt"
	"slices"
	"strings"
)

// MaxVertices bounds pattern size. Typical mining patterns have at most
// 5-7 vertices; the paper's largest is the 14-clique existence query
// (Table 6). Canonicalization is branch-and-bound over permutations and
// symmetry breaking uses orbit queries rather than full automorphism
// enumeration, so highly symmetric 14-16 vertex patterns stay cheap.
const MaxVertices = 16

// Label is a vertex label. Wildcard matches any data-vertex label and is
// how FSM's dynamic label discovery starts (§3.2.1).
type Label int32

// Wildcard is the label of an unlabeled pattern vertex.
const Wildcard Label = -1

// EdgeKind distinguishes the two edge colors of a pattern.
type EdgeKind uint8

// Edge kinds. None is the absence of any constraint between a vertex pair.
const (
	None EdgeKind = iota
	Regular
	Anti
)

// Pattern is a small labeled graph with two edge colors. Vertices are
// dense ints in [0, N()).
type Pattern struct {
	n      int
	kind   [][]EdgeKind // symmetric n×n matrix, diagonal None
	labels []Label
}

// New returns a pattern with n isolated wildcard-labeled vertices.
func New(n int) *Pattern {
	if n < 0 || n > MaxVertices {
		panic(fmt.Sprintf("pattern: vertex count %d out of range [0,%d]", n, MaxVertices))
	}
	p := &Pattern{n: n}
	p.kind = make([][]EdgeKind, n)
	for i := range p.kind {
		p.kind[i] = make([]EdgeKind, n)
	}
	p.labels = make([]Label, n)
	for i := range p.labels {
		p.labels[i] = Wildcard
	}
	return p
}

// N returns the number of vertices, including anti-vertices.
func (p *Pattern) N() int { return p.n }

// AddVertex appends a new wildcard vertex and returns its id.
func (p *Pattern) AddVertex() int {
	if p.n >= MaxVertices {
		panic(fmt.Sprintf("pattern: more than %d vertices", MaxVertices))
	}
	for i := range p.kind {
		p.kind[i] = append(p.kind[i], None)
	}
	p.n++
	p.kind = append(p.kind, make([]EdgeKind, p.n))
	p.labels = append(p.labels, Wildcard)
	return p.n - 1
}

// AddEdge adds the regular edge (u, v), overwriting any anti-edge.
func (p *Pattern) AddEdge(u, v int) { p.setKind(u, v, Regular) }

// AddAntiEdge adds the anti-edge (u, v): any match must map u and v to
// non-adjacent data vertices.
func (p *Pattern) AddAntiEdge(u, v int) { p.setKind(u, v, Anti) }

// RemoveEdge deletes any edge or anti-edge between u and v.
func (p *Pattern) RemoveEdge(u, v int) { p.setKind(u, v, None) }

func (p *Pattern) setKind(u, v int, k EdgeKind) {
	if u == v {
		panic("pattern: self-loop")
	}
	p.kind[u][v] = k
	p.kind[v][u] = k
}

// EdgeKindOf returns the edge color between u and v.
func (p *Pattern) EdgeKindOf(u, v int) EdgeKind { return p.kind[u][v] }

// HasEdge reports whether (u, v) is a regular edge.
func (p *Pattern) HasEdge(u, v int) bool { return p.kind[u][v] == Regular }

// HasAntiEdge reports whether (u, v) is an anti-edge.
func (p *Pattern) HasAntiEdge(u, v int) bool { return p.kind[u][v] == Anti }

// SetLabel assigns label l to vertex u (paper API: addLabel).
func (p *Pattern) SetLabel(u int, l Label) { p.labels[u] = l }

// LabelOf returns the label of u.
func (p *Pattern) LabelOf(u int) Label { return p.labels[u] }

// Labeled reports whether any vertex carries a concrete label.
func (p *Pattern) Labeled() bool {
	for _, l := range p.labels {
		if l != Wildcard {
			return true
		}
	}
	return false
}

// Neighbors returns the regular neighbors of u in ascending order.
func (p *Pattern) Neighbors(u int) []int { return p.kindNeighbors(u, Regular) }

// AntiNeighbors returns the anti-adjacent vertices of u in ascending order.
func (p *Pattern) AntiNeighbors(u int) []int { return p.kindNeighbors(u, Anti) }

func (p *Pattern) kindNeighbors(u int, k EdgeKind) []int {
	var out []int
	for v := 0; v < p.n; v++ {
		if p.kind[u][v] == k {
			out = append(out, v)
		}
	}
	return out
}

// Degree returns the number of regular edges incident on u.
func (p *Pattern) Degree(u int) int {
	d := 0
	for v := 0; v < p.n; v++ {
		if p.kind[u][v] == Regular {
			d++
		}
	}
	return d
}

// AntiDegree returns the number of anti-edges incident on u.
func (p *Pattern) AntiDegree(u int) int {
	d := 0
	for v := 0; v < p.n; v++ {
		if p.kind[u][v] == Anti {
			d++
		}
	}
	return d
}

// NumEdges returns the number of regular edges.
func (p *Pattern) NumEdges() int {
	c := 0
	for u := 0; u < p.n; u++ {
		for v := u + 1; v < p.n; v++ {
			if p.kind[u][v] == Regular {
				c++
			}
		}
	}
	return c
}

// NumAntiEdges returns the number of anti-edges.
func (p *Pattern) NumAntiEdges() int {
	c := 0
	for u := 0; u < p.n; u++ {
		for v := u + 1; v < p.n; v++ {
			if p.kind[u][v] == Anti {
				c++
			}
		}
	}
	return c
}

// IsAntiVertex reports whether u is an anti-vertex: a vertex connected to
// the rest of the pattern only through anti-edges (§3.1.2).
func (p *Pattern) IsAntiVertex(u int) bool {
	return p.Degree(u) == 0 && p.AntiDegree(u) > 0
}

// AntiVertices returns the anti-vertices in ascending order.
func (p *Pattern) AntiVertices() []int {
	var out []int
	for u := 0; u < p.n; u++ {
		if p.IsAntiVertex(u) {
			out = append(out, u)
		}
	}
	return out
}

// RegularVertices returns the non-anti vertices in ascending order.
func (p *Pattern) RegularVertices() []int {
	var out []int
	for u := 0; u < p.n; u++ {
		if !p.IsAntiVertex(u) {
			out = append(out, u)
		}
	}
	return out
}

// Clone returns a deep copy of p.
func (p *Pattern) Clone() *Pattern {
	q := New(p.n)
	for i := 0; i < p.n; i++ {
		copy(q.kind[i], p.kind[i])
	}
	copy(q.labels, p.labels)
	return q
}

// ConnectedRegular reports whether the regular vertices form a connected
// graph under regular edges. Anti-vertices are excluded: they are never
// matched and do not need to be reachable.
func (p *Pattern) ConnectedRegular() bool {
	return len(p.Components(p.RegularVertices())) == 1
}

// Components returns the connected components, under regular edges, of
// the subgraph of p induced by the vertices vs: each ascending, in order
// of their least vertex.
func (p *Pattern) Components(vs []int) [][]int {
	left := make([]bool, p.n) // in vs and in no component yet
	for _, v := range vs {
		left[v] = true
	}
	var comps [][]int
	for v := range left {
		if !left[v] {
			continue
		}
		left[v] = false
		comp := []int{v}
		for i := 0; i < len(comp); i++ {
			for u := range left {
				if left[u] && p.kind[comp[i]][u] == Regular {
					left[u] = false
					comp = append(comp, u)
				}
			}
		}
		slices.Sort(comp)
		comps = append(comps, comp)
	}
	return comps
}

// Validate checks the structural invariants the planner and engine rely
// on. It returns an error describing the first violation found.
func (p *Pattern) Validate() error {
	if p.n == 0 {
		return fmt.Errorf("pattern: empty")
	}
	reg := p.RegularVertices()
	if len(reg) < 2 && p.NumEdges() == 0 {
		return fmt.Errorf("pattern: needs at least one regular edge")
	}
	if !p.ConnectedRegular() {
		return fmt.Errorf("pattern: regular vertices are not connected")
	}
	for u := 0; u < p.n; u++ {
		if !p.IsAntiVertex(u) && p.Degree(u) == 0 && p.AntiDegree(u) == 0 {
			return fmt.Errorf("pattern: vertex %d is isolated", u)
		}
	}
	// Anti-vertices may only neighbor regular vertices: the §4.3 check
	// intersects the adjacency lists of the anti-vertex's matched
	// neighbors, which do not exist for anti-vertex neighbors.
	for _, a := range p.AntiVertices() {
		for _, v := range p.AntiNeighbors(a) {
			if p.IsAntiVertex(v) {
				return fmt.Errorf("pattern: anti-vertex %d is anti-adjacent to anti-vertex %d", a, v)
			}
		}
		if p.LabelOf(a) != Wildcard {
			return fmt.Errorf("pattern: anti-vertex %d must be unlabeled", a)
		}
	}
	return nil
}

// String renders the pattern in the textual format accepted by Parse,
// e.g. "0-1 1-2 0!2 [0:3]" (edges, anti-edges, labels).
func (p *Pattern) String() string {
	var parts []string
	for u := 0; u < p.n; u++ {
		for v := u + 1; v < p.n; v++ {
			switch p.kind[u][v] {
			case Regular:
				parts = append(parts, fmt.Sprintf("%d-%d", u, v))
			case Anti:
				parts = append(parts, fmt.Sprintf("%d!%d", u, v))
			}
		}
	}
	for u := 0; u < p.n; u++ {
		if p.labels[u] != Wildcard {
			parts = append(parts, fmt.Sprintf("[%d:%d]", u, p.labels[u]))
		}
	}
	if len(parts) == 0 {
		return fmt.Sprintf("(%d isolated)", p.n)
	}
	return strings.Join(parts, " ")
}

// Equal reports structural equality under the identity vertex mapping.
// For equality up to isomorphism, compare CanonicalCode values.
func (p *Pattern) Equal(q *Pattern) bool {
	if p.n != q.n {
		return false
	}
	for i := 0; i < p.n; i++ {
		if p.labels[i] != q.labels[i] {
			return false
		}
		for j := 0; j < p.n; j++ {
			if p.kind[i][j] != q.kind[i][j] {
				return false
			}
		}
	}
	return true
}

// Renumber returns a copy of p with vertex i renamed to perm[i].
// perm must be a permutation of [0, N()).
func (p *Pattern) Renumber(perm []int) *Pattern {
	q := New(p.n)
	for i := 0; i < p.n; i++ {
		q.labels[perm[i]] = p.labels[i]
		for j := 0; j < p.n; j++ {
			q.kind[perm[i]][perm[j]] = p.kind[i][j]
		}
	}
	return q
}
