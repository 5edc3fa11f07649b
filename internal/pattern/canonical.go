package pattern

import (
	"bytes"
	"slices"
	"strings"
)

// CanonicalCode returns a byte string that is identical for isomorphic
// patterns and distinct for non-isomorphic ones. Isomorphism here
// preserves labels and edge colors (regular vs anti), so a pattern and
// its anti-edge-augmented variant canonicalize differently.
//
// The code is the lexicographically smallest encoding over all vertex
// permutations, found by branch-and-bound: vertices are placed one at a
// time and a branch is pruned as soon as its partial encoding exceeds the
// best known. Patterns are tiny (≤ MaxVertices), so this is fast in
// practice and exact always.
func (p *Pattern) CanonicalCode() string {
	code, _ := p.CanonicalForm()
	return code
}

// LabelCode encodes l losslessly as 4 big-endian bytes, shifted by +1
// so Wildcard (-1) encodes as zero. Every structural key built from
// labels — canonical codes here, the plan cache's exact keys — must
// use this one encoding: distinct labels sharing a code would silently
// hand one label's cached plan to another.
func LabelCode(l Label) [4]byte {
	v := uint32(int32(l) + 1)
	return [4]byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)}
}

// CanonicalForm returns the canonical code together with a permutation
// achieving it: perm[v] is the canonical position of vertex v, so
// p.Renumber(perm) has code equal to the canonical encoding order. FSM
// uses the permutation to fold match mappings of differently-numbered
// but isomorphic labeled patterns into shared MNI domains.
func (p *Pattern) CanonicalForm() (string, []int) {
	n := p.n
	if n == 0 {
		return "", nil
	}
	// Encoding per placed vertex v at position i: label byte(s) followed
	// by the edge colors to positions 0..i-1.
	rowLen := make([]int, n)
	for i := range rowLen {
		rowLen[i] = 4 + i // 4 bytes label, i bytes of colors
	}
	total := 0
	for _, l := range rowLen {
		total += l
	}

	best := make([]byte, total)
	for i := range best {
		best[i] = 0xFF
	}
	cur := make([]byte, 0, total)
	perm := make([]int, 0, n) // perm[i] = original vertex at canonical position i
	bestPerm := make([]int, n)
	used := make([]bool, n)

	var rec func(pos, curLen int)
	rec = func(pos, curLen int) {
		if pos == n {
			copy(best, cur)
			copy(bestPerm, perm)
			return
		}
		for v := 0; v < n; v++ {
			if used[v] {
				continue
			}
			// Build this vertex's row.
			row := cur[curLen : curLen+rowLen[pos]]
			lb := LabelCode(p.labels[v])
			copy(row, lb[:])
			for i := 0; i < pos; i++ {
				row[4+i] = byte(p.kind[v][perm[i]])
			}
			// Compare against best's corresponding segment.
			cmp := bytes.Compare(row, best[curLen:curLen+len(row)])
			if cmp > 0 {
				continue // prune: already lexicographically larger
			}
			if cmp < 0 {
				// Strictly better prefix: remainder of best is obsolete.
				for i := curLen + len(row); i < total; i++ {
					best[i] = 0xFF
				}
				copy(best[curLen:], row)
			}
			used[v] = true
			perm = append(perm, v)
			rec(pos+1, curLen+rowLen[pos])
			perm = perm[:len(perm)-1]
			used[v] = false
		}
	}
	cur = cur[:total]
	rec(0, 0)
	// bestPerm[i] holds the original vertex at canonical position i;
	// invert it so out[v] is the canonical position of vertex v.
	out := make([]int, n)
	for i, v := range bestPerm {
		out[v] = i
	}
	return string(append([]byte{byte(n)}, best...)), out
}

// IsIsomorphic reports whether p and q are isomorphic (labels and edge
// colors preserved).
func (p *Pattern) IsIsomorphic(q *Pattern) bool {
	if p.n != q.n || p.NumEdges() != q.NumEdges() || p.NumAntiEdges() != q.NumAntiEdges() {
		return false
	}
	return p.CanonicalCode() == q.CanonicalCode()
}

// Automorphisms enumerates all label- and edge-color-preserving
// permutations of p's vertices, in lexicographic order. Each returned
// slice a satisfies kind[a[u]][a[v]] == kind[u][v] and
// label[a[u]] == label[u].
//
// Anti-edges participate as a distinct color and anti-vertices as
// ordinary vertices, which is what exposes anti-vertex asymmetries to
// symmetry breaking (§4.3): an anti-vertex can never be automorphic to a
// regular vertex because automorphisms preserve edge colors.
func (p *Pattern) Automorphisms() [][]int {
	var out [][]int
	p.automorphisms(nil, -1, -1, func(a []int) bool {
		out = append(out, append([]int(nil), a...))
		return true
	})
	return out
}

// HasAutomorphism reports whether an automorphism of p exists that fixes
// every vertex in fixed pointwise and maps u to v. It stops at the first
// one; unlike Automorphisms it never materializes the group, so it
// remains fast for highly symmetric patterns whose group is factorially
// large (e.g. 14-cliques, |Aut| = 14!).
func (p *Pattern) HasAutomorphism(fixed []int, u, v int) bool {
	found := false
	p.automorphisms(fixed, u, v, func([]int) bool {
		found = true
		return false
	})
	return found
}

// Orbit returns v's orbit under the automorphisms of p that fix every
// vertex in fixed: v first, then the rest ascending. Like
// HasAutomorphism, which it asks once per vertex, it never materializes
// the group.
func (p *Pattern) Orbit(fixed []int, v int) []int {
	orbit := []int{v}
	for u := 0; u < p.n; u++ {
		if u != v && !slices.Contains(fixed, u) && p.HasAutomorphism(fixed, v, u) {
			orbit = append(orbit, u)
		}
	}
	return orbit
}

// Orbits partitions vertices into automorphism orbits and returns
// orbit[v] = smallest vertex in v's orbit. Vertices in the same orbit are
// interchangeable in any match, which is how MNI domains are shared
// across symmetric pattern vertices (see internal/mni). Like Orbit it
// asks HasAutomorphism, once per pair at most: a vertex no smaller
// vertex reached is the least of its orbit.
func (p *Pattern) Orbits() []int {
	out := make([]int, p.n)
	for v := range out {
		out[v] = v
	}
	for v := range out {
		for u := v + 1; u < p.n && out[v] == v; u++ {
			if out[u] == u && p.HasAutomorphism(nil, v, u) {
				out[u] = v
			}
		}
	}
	return out
}

// automorphisms calls yield with each automorphism of p — img[v] is v's
// image — that fixes every vertex in fixed and maps u to v (any, for a
// negative u), in lexicographic order of img, until yield returns false.
// img is reused between calls. The search is a backtracking one that
// assigns vertices in ascending order and prunes an image as soon as its
// label, degree, anti-degree or an edge color to an assigned vertex
// differs; a query whose u and v differ in label fails at once.
func (p *Pattern) automorphisms(fixed []int, u, v int, yield func(img []int) bool) {
	n := p.n
	img := make([]int, n)
	used := make([]bool, n)
	for w := range img {
		img[w] = -1
	}
	assign := func(a, b int) bool {
		if img[a] == b {
			return true
		}
		if img[a] != -1 || used[b] || p.labels[a] != p.labels[b] ||
			p.Degree(a) != p.Degree(b) || p.AntiDegree(a) != p.AntiDegree(b) {
			return false
		}
		for w := 0; w < n; w++ {
			if img[w] != -1 && p.kind[a][w] != p.kind[b][img[w]] {
				return false
			}
		}
		img[a] = b
		used[b] = true
		return true
	}
	for _, f := range fixed {
		if !assign(f, f) {
			return
		}
	}
	if u >= 0 && !assign(u, v) {
		return
	}
	var rec func(w int) bool // false once yield has stopped the search
	rec = func(w int) bool {
		for w < n && img[w] != -1 {
			w++
		}
		if w == n {
			return yield(img)
		}
		for b := 0; b < n; b++ {
			if !assign(w, b) {
				continue
			}
			more := rec(w + 1)
			img[w] = -1
			used[b] = false
			if !more {
				return false
			}
		}
		return true
	}
	rec(0)
}

// Classes collects patterns by isomorphism class: the first pattern
// added of a class represents it, and the class sums the weights added
// to it. The zero value is empty and ready to use.
type Classes struct {
	List  []Class // first seen first
	index map[string]int
}

// Class is one isomorphism class of a Classes.
type Class struct {
	Pat    *Pattern // the first pattern added of the class
	code   string   // its canonical code
	Weight int64    // the sum of the weights added to the class
}

// Add adds p, with weight w, to its class.
func (c *Classes) Add(p *Pattern, w int64) {
	code := p.CanonicalCode()
	i, ok := c.index[code]
	if !ok {
		if c.index == nil {
			c.index = make(map[string]int)
		}
		i = len(c.List)
		c.index[code] = i
		c.List = append(c.List, Class{Pat: p, code: code})
	}
	c.List[i].Weight += w
}

// Sorted returns the classes' representatives in canonical-code order,
// the deterministic order of the generators.
func (c *Classes) Sorted() []*Pattern {
	var out []*Pattern
	for _, cl := range slices.SortedFunc(slices.Values(c.List), func(a, b Class) int { return strings.Compare(a.code, b.code) }) {
		out = append(out, cl.Pat)
	}
	return out
}
