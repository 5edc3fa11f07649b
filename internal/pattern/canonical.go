package pattern

import "sort"

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

	var rec func(pos, curLen int, worse bool)
	rec = func(pos, curLen int, worse bool) {
		if pos == n {
			if !worse {
				copy(best, cur)
				copy(bestPerm, perm)
			}
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
			cmp := 0
			if !worse {
				for i, b := range row {
					if b != best[curLen+i] {
						if b < best[curLen+i] {
							cmp = -1
						} else {
							cmp = 1
						}
						break
					}
				}
			}
			if !worse && cmp > 0 {
				continue // prune: already lexicographically larger
			}
			childWorse := worse
			if !worse && cmp < 0 {
				// Strictly better prefix: remainder of best is obsolete.
				for i := curLen + len(row); i < total; i++ {
					best[i] = 0xFF
				}
				copy(best[curLen:], row)
				childWorse = false
			}
			used[v] = true
			perm = append(perm, v)
			rec(pos+1, curLen+rowLen[pos], childWorse)
			perm = perm[:len(perm)-1]
			used[v] = false
		}
	}
	cur = cur[:total]
	rec(0, 0, false)
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
// permutations of p's vertices. Each returned slice a satisfies
// kind[a[u]][a[v]] == kind[u][v] and label[a[u]] == label[u].
//
// Anti-edges participate as a distinct color and anti-vertices as
// ordinary vertices, which is what exposes anti-vertex asymmetries to
// symmetry breaking (§4.3): an anti-vertex can never be automorphic to a
// regular vertex because automorphisms preserve edge colors.
func (p *Pattern) Automorphisms() [][]int {
	n := p.n
	// Per-vertex invariant signature for pruning: (label, degree,
	// anti-degree). Only vertices with equal signatures can map to each
	// other.
	type sig struct {
		l        Label
		deg, ant int
	}
	sigs := make([]sig, n)
	for v := 0; v < n; v++ {
		sigs[v] = sig{p.labels[v], p.Degree(v), p.AntiDegree(v)}
	}
	var out [][]int
	a := make([]int, n)
	used := make([]bool, n)
	var rec func(u int)
	rec = func(u int) {
		if u == n {
			out = append(out, append([]int(nil), a...))
			return
		}
		for img := 0; img < n; img++ {
			if used[img] || sigs[u] != sigs[img] {
				continue
			}
			ok := true
			for w := 0; w < u; w++ {
				if p.kind[u][w] != p.kind[img][a[w]] {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			a[u] = img
			used[img] = true
			rec(u + 1)
			used[img] = false
		}
	}
	rec(0)
	return out
}

// Orbits partitions vertices into automorphism orbits and returns
// orbit[v] = smallest vertex in v's orbit. Vertices in the same orbit are
// interchangeable in any match, which is how MNI domains are shared
// across symmetric pattern vertices (see internal/mni). Orbits are
// computed with pairwise automorphism queries, not full group
// enumeration, so large symmetric patterns (cliques) stay cheap.
func (p *Pattern) Orbits() []int {
	parent := make([]int, p.n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for u := 0; u < p.n; u++ {
		for v := u + 1; v < p.n; v++ {
			if find(u) == find(v) {
				continue
			}
			if p.HasAutomorphism(nil, u, v) {
				ru, rv := find(u), find(v)
				if rv < ru {
					ru, rv = rv, ru
				}
				parent[rv] = ru
			}
		}
	}
	out := make([]int, p.n)
	for v := range out {
		out[v] = find(v)
	}
	return out
}

// HasAutomorphism reports whether an automorphism of p exists that fixes
// every vertex in fixed pointwise and maps u to v. It is a bounded
// backtracking search; unlike Automorphisms it never materializes the
// group, so it remains fast for highly symmetric patterns whose group is
// factorially large (e.g. 14-cliques, |Aut| = 14!).
func (p *Pattern) HasAutomorphism(fixed []int, u, v int) bool {
	n := p.n
	img := make([]int, n)
	used := make([]bool, n)
	for i := range img {
		img[i] = -1
	}
	assign := func(a, b int) bool {
		if img[a] == b {
			return true
		}
		if img[a] != -1 || used[b] {
			return false
		}
		if p.labels[a] != p.labels[b] || p.Degree(a) != p.Degree(b) || p.AntiDegree(a) != p.AntiDegree(b) {
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
			return false
		}
	}
	if !assign(u, v) {
		return false
	}
	var rec func(w int) bool
	rec = func(w int) bool {
		for w < n && img[w] != -1 {
			w++
		}
		if w == n {
			return true
		}
		for b := 0; b < n; b++ {
			if used[b] {
				continue
			}
			if assign(w, b) {
				if rec(w + 1) {
					return true
				}
				img[w] = -1
				used[b] = false
			}
		}
		return false
	}
	return rec(0)
}

func orbitsOf(n int, autos [][]int) []int {
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			if rb < ra {
				ra, rb = rb, ra
			}
			parent[rb] = ra
		}
	}
	for _, a := range autos {
		for v, img := range a {
			union(v, img)
		}
	}
	out := make([]int, n)
	for v := range out {
		out[v] = find(v)
	}
	return out
}

// SortByCode orders patterns by canonical code; useful for deterministic
// iteration in tests and tables.
func SortByCode(ps []*Pattern) {
	sort.Slice(ps, func(i, j int) bool {
		return ps[i].CanonicalCode() < ps[j].CanonicalCode()
	})
}
