package plan

// Counting through a vertex cut (DwarvesGraph's pattern decomposition,
// PAPERS.md). Take an anti-edge-free, unlabeled pattern P and a cut of one
// or two of its vertices whose removal leaves two or more components of
// at most two vertices each — P5 at its middle vertex, the 5-cycle at two
// non-adjacent vertices, the 6-cycle at two opposite ones. Once the cut
// is bound, each component's placements depend on the cut's binding
// alone. So the tuples that map every edge of P onto an edge, injective
// on the cut plus any one component but free to collide across
// components, number
//
//	V = Σ over bindings of the cut of Π_i ext_i,
//
// where ext_i counts component i's placements; internal/core counts each
// with a rooted walk of one or two levels over adjacency lists.
//
// The algebra. A tuple's collisions form a partition π of the component
// vertices whose blocks hold at most one vertex of each component.
// Vertices of different components are never adjacent, so the quotient
// P/π is a simple pattern and the tuple is an injective embedding of it:
//
//	V = Σ_π |Aut(P/π)| · count(P/π),
//
// where π = ⊥ gives |Aut(P)| · count(P). Grouping the other quotients by
// isomorphism class, as MorphTerms groups relatives, gives
//
//	count(P) = (V − Σ_q c_q · count(q)) / |Aut(P)|,
//
// where c_q is |Aut(q)| times the number of partitions whose quotient is
// q. Every q has fewer vertices than P. MorphBatch runs the decomposed
// plan plus whichever q the batch does not count already, and recovers
// count(P) next to the morph relations, exactly and once.

import (
	"math/big"
	"slices"

	"peregrine/internal/pattern"
)

// Decomposition gates. A pattern of four or fewer vertices has a core of
// at most three, and count mode sizes its last completion levels, so a
// cut has little walking left to save there. The upper gate is the
// morph gate: quotients are canonicalised, and their automorphisms
// enumerated, like morph relatives.
const (
	cutMinVertices = 5
	cutMaxVertices = MorphMaxVertices
)

// Cut is how the engine counts a decomposed plan. Its walks bind slots:
// slot 0 is Verts[0], bound by the task; slot 1 is Verts[1] in a
// two-vertex cut; slots 2 and 3 are a component's first and second
// vertex. With one cut vertex, or two adjacent ones — the second bound
// from the first's list — every binding of the cut multiplies the
// components' counts. With two non-adjacent ones each component's walk
// binds the second cut vertex on the way, tallying its placements per
// candidate for it (a scatter), and the task's V sums the products of
// the tallies over the candidates.
type Cut struct {
	Verts    []int // the cut's pattern vertices
	Adjacent bool  // two cut vertices joined by an edge of the pattern
	Comps    []CutComp
}

// Scatter reports whether the components' walks end at the second cut
// vertex: a two-vertex cut whose vertices are not adjacent.
func (ct *Cut) Scatter() bool { return len(ct.Verts) == 2 && !ct.Adjacent }

// CutComp is one component of the pattern less the cut, walked from a
// root adjacent to a bound cut vertex.
type CutComp struct {
	V []int // pattern vertices, root first: V[j] binds slot 2+j

	// Levels bind V's vertices and, in a scatter, the second cut vertex —
	// as soon as a bound vertex touches it, so that a component vertex
	// that does not is sized per candidate rather than walked before it.
	// The last level is sized, unless it binds the second cut vertex.
	Levels []CutLevel
}

// CutLevel is one level of a component's walk, binding Slot. Its
// candidates are the members of the adjacency lists of every Ops binding
// — pattern neighbours of the level's vertex, so never empty — that
// differ from every bound slot. A slot in Ops is never in the set (no
// vertex is its own neighbour); Skip lists the other bound slots, at
// most two, and the first Sure of them lie in the set whatever the
// binding, being adjacent in the pattern to every Ops vertex.
type CutLevel struct {
	Slot int
	Ops  []int
	Skip []int
	Sure int
}

// Decomposition is one way to count a pattern p through a vertex cut: run
// Plan, whose count is V, then count(p) = (V − Σ Coef·count(Pat)) / Div
// over Terms, the shrinkage patterns.
type Decomposition struct {
	Plan  *Plan
	Terms []MorphTerm // each quotient class with c_q, positive
	Div   int64       // |Aut(p)|
}

// Decompositions returns the decompositions of p the engine can count —
// one per cut and choice of the task's vertex, up to p's automorphisms —
// or nil when p is labeled, has anti-edges, lies outside the size gates
// or has no such cut. The plans are p's with a Cut and nothing else.
func Decompositions(p *pattern.Pattern) []Decomposition {
	n := p.N()
	if n < cutMinVertices || n > cutMaxVertices || p.NumAntiEdges() > 0 || p.Labeled() ||
		p.Validate() != nil || !p.ConnectedRegular() {
		return nil
	}
	autos := p.Automorphisms()
	div := int64(len(autos))
	var out []Decomposition
	// An automorphism maps a cut, task vertex first, onto one that walks
	// and counts alike: one per orbit is kept.
	seen := make(map[[2]int]bool)
	add := func(verts []int, comps [][]int) {
		var terms []MorphTerm
		for _, order := range [][]int{verts, {verts[len(verts)-1], verts[0]}}[:len(verts)] {
			key := [2]int{order[0], order[len(order)-1]}
			if seen[key] {
				continue
			}
			for _, a := range autos {
				seen[[2]int{a[key[0]], a[key[1]]}] = true
			}
			ct := newCut(p, order, comps)
			if ct == nil {
				continue
			}
			if terms == nil {
				terms = shrinkage(p, comps)
			}
			out = append(out, Decomposition{Plan: &Plan{Pat: p, Cut: ct}, Terms: terms, Div: div})
		}
	}
	for a := range n {
		if comps := componentsWithout(p, a, -1); qualifies(comps) {
			add([]int{a}, comps)
		}
	}
	for a := range n {
		for c := a + 1; c < n; c++ {
			if comps := componentsWithout(p, a, c); qualifies(comps) {
				add([]int{a, c}, comps)
			}
		}
	}
	return out
}

// componentsWithout returns the connected components of p less vertices
// a and c (c may be -1), each ascending, in order of their least vertex.
func componentsWithout(p *pattern.Pattern, a, c int) [][]int {
	seen := make([]bool, p.N())
	seen[a] = true
	if c >= 0 {
		seen[c] = true
	}
	var comps [][]int
	for v := range seen {
		if seen[v] {
			continue
		}
		seen[v] = true
		comp := []int{v}
		for i := 0; i < len(comp); i++ {
			for _, u := range p.Neighbors(comp[i]) {
				if !seen[u] {
					seen[u] = true
					comp = append(comp, u)
				}
			}
		}
		slices.Sort(comp)
		comps = append(comps, comp)
	}
	return comps
}

func qualifies(comps [][]int) bool {
	return len(comps) >= 2 && !slices.ContainsFunc(comps, func(c []int) bool { return len(c) > 2 })
}

// newCut lays out the walks of the cut verts (the task's vertex first)
// over comps, or returns nil when a scatter cut has a component that
// does not touch both cut vertices: its walk could not start at the
// first or bind the second.
func newCut(p *pattern.Pattern, verts []int, comps [][]int) *Cut {
	ct := &Cut{Verts: verts, Adjacent: len(verts) == 2 && p.HasEdge(verts[0], verts[1])}
	scatter := ct.Scatter()
	for _, comp := range comps {
		slot := []int{verts[0], -1, -1, -1} // slot -> pattern vertex
		bound := []int{0}
		if len(verts) == 2 {
			slot[1] = verts[1]
			if ct.Adjacent {
				bound = append(bound, 1)
			}
		}
		// The root: the vertex adjacent to the most bound cut vertices —
		// the fewest candidates — then to the task's vertex, then, in a
		// scatter, to the second cut vertex.
		score := func(v int) int {
			s := 0
			for _, b := range bound {
				if p.HasEdge(slot[b], v) {
					s += 2
				}
			}
			if p.HasEdge(verts[0], v) {
				s++
			}
			if scatter && p.HasEdge(verts[1], v) {
				s++
			}
			return s
		}
		order := slices.Clone(comp)
		if len(order) == 2 && score(order[1]) > score(order[0]) {
			order[0], order[1] = order[1], order[0]
		}
		cc := CutComp{V: order}
		bind := func(s, v int) {
			slot[s] = v
			cc.Levels = append(cc.Levels, level(p, slot, bound, s))
			bound = append(bound, s)
		}
		bind(2, order[0])
		// Bind the second cut vertex next where the root touches it and
		// what is left is a pendant of the root alone, sized per candidate
		// from one list; a vertex with more lists is walked first, so that
		// its merge runs once per root, not once per candidate.
		if scatter && p.HasEdge(order[0], verts[1]) &&
			(len(order) == 1 || !p.HasEdge(order[1], verts[0]) && !p.HasEdge(order[1], verts[1])) {
			bind(1, verts[1])
		}
		if len(order) == 2 {
			bind(3, order[1])
		}
		if scatter && !slices.Contains(bound, 1) {
			bind(1, verts[1])
		}
		for _, lv := range cc.Levels {
			if len(lv.Ops) == 0 {
				return nil
			}
		}
		ct.Comps = append(ct.Comps, cc)
	}
	return ct
}

// level is the walk level binding slot s after the bound slots.
func level(p *pattern.Pattern, slot, bound []int, s int) CutLevel {
	lv := CutLevel{Slot: s}
	for _, b := range bound {
		if p.HasEdge(slot[b], slot[s]) {
			lv.Ops = append(lv.Ops, b)
		}
	}
	var maybe []int
	for _, b := range bound {
		switch {
		case slices.Contains(lv.Ops, b):
		case !slices.ContainsFunc(lv.Ops, func(o int) bool { return !p.HasEdge(slot[b], slot[o]) }):
			lv.Skip = append(lv.Skip, b)
			lv.Sure++
		default:
			maybe = append(maybe, b)
		}
	}
	lv.Skip = append(lv.Skip, maybe...)
	return lv
}

// shrinkage returns the quotient classes of p over the partitions of the
// component vertices other than ⊥ whose blocks take at most one vertex
// per component, each with c_q.
func shrinkage(p *pattern.Pattern, comps [][]int) []MorphTerm {
	var vs, compOf []int
	for ci, comp := range comps {
		for _, v := range comp {
			vs = append(vs, v)
			compOf = append(compOf, ci)
		}
	}
	classes := make(map[string]int) // canonical code -> index in terms
	var terms []MorphTerm
	block := make([]int, len(vs))
	var blockComps []uint64 // per block: the components it holds a vertex of
	var walk func(i int)
	walk = func(i int) {
		if i < len(vs) {
			bit := uint64(1) << compOf[i]
			for b := range blockComps {
				if blockComps[b]&bit == 0 {
					block[i] = b
					blockComps[b] |= bit
					walk(i + 1)
					blockComps[b] &^= bit
				}
			}
			block[i] = len(blockComps)
			blockComps = append(blockComps, bit)
			walk(i + 1)
			blockComps = blockComps[:len(blockComps)-1]
			return
		}
		if len(blockComps) == len(vs) {
			return // ⊥: P itself
		}
		img := make([]int, p.N()) // p's vertex -> quotient vertex
		k := len(blockComps)
		for v := range img {
			if j := slices.Index(vs, v); j >= 0 {
				img[v] = block[j]
			} else {
				img[v] = k
				k++
			}
		}
		q := pattern.New(k)
		for u := range img {
			for _, v := range p.Neighbors(u) {
				q.AddEdge(img[u], img[v])
			}
		}
		code := q.CanonicalCode()
		j, ok := classes[code]
		if !ok {
			j = len(terms)
			classes[code] = j
			terms = append(terms, MorphTerm{Pat: q})
		}
		terms[j].Coef += int64(len(q.Automorphisms()))
	}
	walk(0)
	return terms
}

// cutRelations returns the decompositions of p's shape compiled against c,
// as relations MorphBatch reads like morph relations: the decomposed plan
// with coefficient 1, each shrinkage pattern's cached plan with −c_q, and
// Div |Aut(p)|. A decomposition a term of which fails to compile is
// dropped. Like morphRelation they are kept on the shape's cache entry.
func (c *Cache) cutRelations(p *pattern.Pattern, opt Options) []*morphRelation {
	e, _, err := c.entry(p, opt)
	if err != nil {
		return nil
	}
	e.cutOnce.Do(func() {
	decompositions:
		for _, d := range Decompositions(e.plan.Pat) {
			rel := &morphRelation{div: d.Div, terms: []compiledTerm{{pl: d.Plan, coef: 1}}}
			for _, t := range d.Terms {
				cached, err := c.Get(t.Pat, opt)
				if err != nil {
					continue decompositions
				}
				rel.terms = append(rel.terms, compiledTerm{pl: cached.Plan, coef: -t.Coef})
			}
			e.cuts = append(e.cuts, rel)
		}
	})
	return e.cuts
}

// cutFits reports whether the engine's 128-bit tally of V is exact for a
// pattern of n vertices on a graph of shape s. A tuple binds its task's
// vertex, then each other vertex among a bound neighbour's neighbours, so
// V ≤ |V(G)| · maxDeg^(n−1) bounds every partial sum. A Shape without a
// MaxDeg bounds nothing, so a planner with no graph at hand never
// decomposes.
func cutFits(n int, s Shape) bool {
	if s.MaxDeg == 0 || s.Vertices == 0 {
		return false
	}
	v := new(big.Int).Exp(big.NewInt(int64(s.MaxDeg)), big.NewInt(int64(n-1)), nil)
	return v.Mul(v, big.NewInt(int64(s.Vertices))).BitLen() <= 128
}

// cutUnit is what one unit of a decomposed plan's price costs in units of
// a trie plan's: on motif_batch's graph, one thread, the twelve plans the
// rewrite weighs ran at a median 2.75 µs per thousand units decomposed
// and 1.5 directly (spread 2.3–3.8 and 0.8–6.9). A walk shares nothing
// between the plans of a batch and breaks no symmetry, so each binding
// pays its calls alone.
const cutUnit = 1.8

// cut prices one task of a decomposed plan: its components' walks once
// per binding of the cut, plus, for a scatter, one pass over the second
// cut vertex's candidates that the first walk reached, at cutUnit.
func (m costModel) cut(ct *Cut) float64 {
	var total, reached float64
	for i := range ct.Comps {
		cost, scattered := m.walk(&ct.Comps[i])
		total += cost
		if i == 0 {
			reached = scattered
		}
	}
	switch {
	case ct.Adjacent:
		total = m.start * (1 + total)
	case ct.Scatter():
		total += reached
	}
	return cutUnit * total
}

// walk prices one component's walk for one binding of the bound cut
// vertices, and returns how many candidates its level binding the second
// cut vertex yields: a level's set is priced like a completion step's,
// from the task's list when Ops names slot 0; a sized last level costs
// one set computation plus a probe per slot it may hold.
func (m costModel) walk(cc *CutComp) (cost, scattered float64) {
	bind := 1.0
	for j := range cc.Levels {
		lv := &cc.Levels[j]
		k := len(lv.Ops)
		n := m.set(k, slices.Contains(lv.Ops, 0), false, false)
		if lv.Slot != 1 && j == len(cc.Levels)-1 {
			return cost + bind*(m.compute(k, 1)+float64(len(lv.Skip)-lv.Sure)*m.search), scattered
		}
		cost += bind * m.compute(k, n)
		bind *= n
		if lv.Slot == 1 {
			scattered = bind
		}
	}
	return cost, scattered
}
