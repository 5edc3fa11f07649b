package plan

// Counting through a vertex cut (DwarvesGraph's pattern decomposition,
// PAPERS.md). Take an anti-edge-free, unlabeled pattern P and a cut of one
// to three of its vertices whose removal leaves two or more components of
// at most two vertices each — P5 at its middle vertex, the 5-cycle at two
// non-adjacent vertices, the 6-cycle at two opposite ones, the wheel W4
// at its hub and two opposite rim vertices. Once the cut is bound, each
// component's placements depend on the cut's binding alone. So the
// tuples that map every edge of P onto an edge, injective on the cut plus
// any one component but free to collide across components, number
//
//	V = Σ over bindings of the cut of Π_i ext_i,
//
// where ext_i counts component i's placements; internal/core counts each
// with a rooted walk of one to three levels over adjacency lists.
//
// Symmetry breaking, as Peregrine's partial orders do it (§4), applies to
// the cut too. Where an automorphism of P swaps the two vertices of a
// two-vertex cut, it maps the tuples of a binding (v, y) onto those of
// (y, v), and (v, v) binds none; so V = 2·Σ_v Σ_{y>v} Π_i ext_i(v, y),
// over half the bindings (Cut.Half). The 4-cycle at a diagonal, the
// 5-cycle at two non-adjacent vertices, K2,3 at its pair and the 4-path at
// its middle edge halve.
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
//
// W4, worked through. The wheel 0-1 0-2 0-3 0-4 1-3 1-4 2-3 2-4 has hub
// 0 and rim 1-3-2-4. Cut at {0, 1, 2}, the hub and two opposite rim
// vertices, it leaves the singletons {3} and {4}, each adjacent to all
// three cut vertices. The task binds v to 0, a loop over N(v) binds x to
// 1 (the walked vertex), and each singleton's walk binds a from
// N(v)∩N(x), then y, the scattered vertex 2, from N(a)∩N(v) less x. So
//
//	V = Σ_v Σ_{x∈N(v)} Σ_{y∈N(v), y≠x} w(y)²,  w(y) = |N(v)∩N(x)∩N(y)|.
//
// The only partition other than ⊥ merges 3 with 4; its quotient is the
// diamond 0-1 0-2 0-a 1-a 2-a, with |Aut| = 4. |Aut(W4)| = 8, so
//
//	count(W4) = (V − 4·count(diamond)) / 8.

import (
	"fmt"
	"math/big"
	"slices"

	"peregrine/internal/pattern"
)

// Decomposition gates. From four vertices up a cut saves walking: the
// 4-path at an inner vertex, the 4-cycle at a diagonal — where V =
// Σ w(a,c)² needs no intersection once the diagonal is bound. Count mode
// sizes those patterns' last levels, but the levels walked before them
// are most of what a batch of 4-motifs costs: on an ER graph of 4096
// vertices and mean degree 10, one thread of a 2-vCPU x86-64 box, the
// 4-cycle goes 13.8 → 4.3 ms decomposed and the 4-path 4.2 → 0.3. Below
// four vertices count mode already sizes everything past the core. The
// upper gate is the morph gate: quotients are canonicalised, and their
// automorphisms enumerated, like morph relatives.
const (
	cutMinVertices = 4
	cutMaxVertices = MorphMaxVertices
)

// The slots a cut's walks bind, which CutLevel names.
const (
	SlotTask    = 0 // Verts[0], bound by the task
	SlotWalked  = 1 // the walked cut vertex, bound from the task vertex's list
	SlotScatter = 2 // the scattered cut vertex, bound by every component's walk
	SlotComp    = 3 // a component's root; its second vertex binds SlotComp+1
	NumSlots    = 5
)

// Cut is how the engine counts a decomposed plan. The task binds
// Verts[0]; the cut may add a walked and a scattered vertex, in that
// order, and the two compose:
//
//   - A walked vertex is adjacent to the task's and bound by a loop over
//     the task vertex's list; each of its bindings counts the components
//     anew.
//   - A scattered vertex is bound by every component's walk on the way,
//     which tallies its placements per candidate for it (a scatter); a
//     binding of the cut adds the sum over the candidates of the
//     products of the tallies.
//
// Without a scattered vertex a binding of the cut adds the product of
// the components' counts. A two-vertex cut's second vertex is walked
// when adjacent to the first and scattered when not; a three-vertex
// cut's second is walked and its third scattered.
//
// A two-vertex cut whose vertices an automorphism of the pattern swaps
// is Half: it counts only the bindings whose second vertex lies above
// the task's, and adds each twice. V is unchanged, and so is its sum over
// any split of the tasks; each task's share is not.
type Cut struct {
	Verts  []int // the cut's pattern vertices, in slot order
	Walked bool  // Verts[1] is walked
	Half   bool  // an automorphism swaps Verts[0] and Verts[1]
	Comps  []CutComp
}

// Scatter reports whether the components' walks end at a scattered
// cut vertex, the last of Verts.
func (ct *Cut) Scatter() bool {
	return len(ct.Verts) == 3 || len(ct.Verts) == 2 && !ct.Walked
}

// CutComp is one component of the pattern less the cut, walked from a
// root adjacent to a bound cut vertex.
type CutComp struct {
	V []int // pattern vertices, root first: V[j] binds slot SlotComp+j

	// Levels bind V's vertices and, in a scatter, the scattered vertex —
	// as soon as a bound vertex touches it, so that a component vertex
	// that does not is sized per candidate rather than walked before it.
	// The last level is sized, unless it binds the scattered vertex.
	Levels []CutLevel
}

// CutLevel is one level of a component's walk, binding Slot. Its
// candidates are the members of the adjacency lists of every Ops binding
// — pattern neighbours of the level's vertex, so never empty — that
// differ from every bound slot. A slot in Ops is never in the set (no
// vertex is its own neighbour); Skip lists the other bound slots, at
// most three, and the first Sure of them lie in the set whatever the
// binding, being adjacent in the pattern to every Ops vertex. Above, set
// on the level binding a halved cut's scattered vertex, keeps only the
// candidates above the task's binding.
type CutLevel struct {
	Slot  int
	Ops   []int
	Skip  []int
	Sure  int
	Above bool
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
// one per cut and order of its vertices, up to p's automorphisms — or
// nil when p is labeled, has anti-edges, lies outside the size gates or
// has no such cut. Cuts come by size, one vertex first. The plans are
// the ones NewCut builds: p's with a Cut and nothing else.
func Decompositions(p *pattern.Pattern) []Decomposition {
	if !decomposable(p) {
		return nil
	}
	autos := p.Automorphisms()
	div := int64(len(autos))
	var out []Decomposition
	// An automorphism maps a cut, in slot order, onto one that walks and
	// counts alike: one per orbit is kept.
	seen := make(map[[3]int]bool)
	key := func(order, a []int) [3]int { // order's image under a, or order for a nil
		k := [3]int{-1, -1, -1}
		for i, v := range order {
			if a != nil {
				v = a[v]
			}
			k[i] = v
		}
		return k
	}
	var sets [][]int // one to three vertices, by size, then lexicographic
	for k := 1; k <= 3; k++ {
		pattern.Combinations(p.N(), k, func(set []int) bool {
			sets = append(sets, slices.Clone(set))
			return true
		})
	}
	for _, set := range sets {
		comps := p.Components(rest(p.N(), set))
		if !qualifies(comps) {
			continue
		}
		var terms []MorphTerm
		for _, order := range orderings(set) {
			if seen[key(order, nil)] {
				continue
			}
			for _, a := range autos {
				seen[key(order, a)] = true
			}
			ct, err := newCut(p, order, comps)
			if err != nil {
				continue
			}
			if terms == nil {
				terms = shrinkage(p, comps)
			}
			out = append(out, Decomposition{Plan: &Plan{Pat: p, Cut: ct}, Terms: terms, Div: div})
		}
	}
	return out
}

// orderings returns every order of set's vertices, in lexicographic
// order of positions.
func orderings(set []int) [][]int {
	if len(set) <= 1 {
		return [][]int{set}
	}
	var out [][]int
	for i, v := range set {
		for _, rest := range orderings(slices.Delete(slices.Clone(set), i, i+1)) {
			out = append(out, append([]int{v}, rest...))
		}
	}
	return out
}

// CutError is NewCut's refusal: the pattern, the cut as given, and why
// it is not a decomposition of the pattern the engine can count.
type CutError struct {
	Pat    *pattern.Pattern
	Verts  []int
	Reason string
}

func (e *CutError) Error() string { return fmt.Sprintf("cut %v of %v: %s", e.Verts, e.Pat, e.Reason) }

func cutError(p *pattern.Pattern, verts []int, format string, args ...any) *CutError {
	return &CutError{Pat: p, Verts: verts, Reason: fmt.Sprintf(format, args...)}
}

// NewCut returns p's decomposed plan at the cut verts, in slot order (see
// Cut): the constructor every Decomposition's plan comes from, and the
// one a node rebuilds a shipped cut with from the pattern as sent. It
// fails with a *CutError unless p passes the gates Decompositions applies
// and verts are one to three distinct vertices of p, the second adjacent
// to the first when there are three, whose removal leaves two or more
// components of at most two vertices, each touching a bound cut vertex
// and, in a scatter, the scattered one.
func NewCut(p *pattern.Pattern, verts []int) (*Plan, error) {
	if !decomposable(p) {
		return nil, cutError(p, verts, "cannot decompose: that takes a connected, unlabeled pattern of %d to %d vertices without anti-edges",
			cutMinVertices, cutMaxVertices)
	}
	if len(verts) < 1 || len(verts) > 3 {
		return nil, cutError(p, verts, "a cut has one to three vertices, not %d", len(verts))
	}
	for i, v := range verts {
		if v < 0 || v >= p.N() {
			return nil, cutError(p, verts, "%d is not a vertex of the pattern", v)
		}
		if slices.Contains(verts[:i], v) {
			return nil, cutError(p, verts, "vertex %d is named twice", v)
		}
	}
	comps := p.Components(rest(p.N(), verts))
	if !qualifies(comps) {
		return nil, cutError(p, verts, "it leaves components %v, not two or more of at most two vertices", comps)
	}
	ct, err := newCut(p, verts, comps)
	if err != nil {
		return nil, err
	}
	return &Plan{Pat: p, Cut: ct}, nil
}

// decomposable reports whether p passes the gates every decomposition
// does: valid — so connected, once free of anti-edges — and cuttable.
func decomposable(p *pattern.Pattern) bool {
	return cuttable(p) && p.Validate() == nil
}

// cuttable is decomposable for a valid pattern, such as a plan's:
// unlabeled, free of anti-edges, and of cutMinVertices to cutMaxVertices
// vertices.
func cuttable(p *pattern.Pattern) bool {
	n := p.N()
	return n >= cutMinVertices && n <= cutMaxVertices && p.NumAntiEdges() == 0 && !p.Labeled()
}

// rest returns the vertices of [0, n) outside cut, ascending.
func rest(n int, cut []int) []int {
	var vs []int
	for v := range n {
		if !slices.Contains(cut, v) {
			vs = append(vs, v)
		}
	}
	return vs
}

func qualifies(comps [][]int) bool {
	return len(comps) >= 2 && !slices.ContainsFunc(comps, func(c []int) bool { return len(c) > 2 })
}

// newCut lays out the walks of the cut verts, in slot order, over comps,
// the components they leave. It fails when a three-vertex cut's second
// vertex is not adjacent to its first, or a component's walk could not
// start — no vertex of it touches a bound cut vertex — or could not bind
// the scattered vertex.
func newCut(p *pattern.Pattern, verts []int, comps [][]int) (*Cut, error) {
	ct := &Cut{Verts: verts, Walked: len(verts) > 1 && p.HasEdge(verts[0], verts[1])}
	if len(verts) == 3 && !ct.Walked {
		return nil, cutError(p, verts, "the walked vertex %d is not adjacent to the task's vertex %d", verts[1], verts[0])
	}
	ct.Half = len(verts) == 2 && slices.ContainsFunc(p.Automorphisms(), func(a []int) bool {
		return a[verts[0]] == verts[1] && a[verts[1]] == verts[0]
	})
	scatter := ct.Scatter()
	y := -1 // the scattered vertex
	if scatter {
		y = verts[len(verts)-1]
	}
	for _, comp := range comps {
		if scatter && !slices.ContainsFunc(comp, func(v int) bool { return p.HasEdge(v, y) }) {
			return nil, cutError(p, verts, "component %v does not touch the scattered vertex %d", comp, y)
		}
		slot := []int{verts[0], -1, y, -1, -1} // slot -> pattern vertex
		bound := []int{SlotTask}
		if ct.Walked {
			slot[SlotWalked] = verts[1]
			bound = append(bound, SlotWalked)
		}
		// The root: the vertex adjacent to the most bound cut vertices —
		// the fewest candidates — then to the task's vertex, then to the
		// scattered vertex.
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
			if scatter && p.HasEdge(y, v) {
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
			lv := level(p, slot, bound, s)
			lv.Above = ct.Half && s == SlotScatter
			cc.Levels = append(cc.Levels, lv)
			bound = append(bound, s)
		}
		bind(SlotComp, order[0])
		// Bind the scattered vertex next where the root touches it and
		// what is left is a pendant of the root alone, sized per candidate
		// from one list; a vertex with more lists is walked first, so that
		// its merge runs once per root, not once per candidate.
		if scatter && p.HasEdge(order[0], y) &&
			(len(order) == 1 || !slices.ContainsFunc(verts, func(c int) bool { return p.HasEdge(order[1], c) })) {
			bind(SlotScatter, y)
		}
		if len(order) == 2 {
			bind(SlotComp+1, order[1])
		}
		if scatter && !slices.Contains(bound, SlotScatter) {
			bind(SlotScatter, y)
		}
		if len(cc.Levels[0].Ops) == 0 {
			return nil, cutError(p, verts, "component %v touches no cut vertex bound before its walk", comp)
		}
		ct.Comps = append(ct.Comps, cc)
	}
	return ct, nil
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
	var classes pattern.Classes
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
		classes.Add(q, 1)
	}
	walk(0)
	return morphTerms(&classes)
}

// CutFits reports whether the engine's 128-bit tally of V is exact for a
// pattern of n vertices on a graph of shape s. A tuple binds its task's
// vertex, then each other vertex among a bound neighbour's neighbours, so
// V ≤ |V(G)| · maxDeg^(n−1) bounds every partial sum. A Shape without a
// MaxDeg bounds nothing, so a planner with no graph at hand never
// decomposes.
func CutFits(n int, s Shape) bool {
	if s.MaxDeg == 0 || s.Vertices == 0 {
		return false
	}
	v := new(big.Int).Exp(big.NewInt(int64(s.MaxDeg)), big.NewInt(int64(n-1)), nil)
	return v.Mul(v, big.NewInt(int64(s.Vertices))).BitLen() <= 128
}

// cutUnit is what one unit of a decomposed plan's price costs in units of
// a trie plan's: on motif_batch's graph, one thread, the twelve plans the
// rewrite weighs ran at a median 2.75 µs per thousand units decomposed
// and 1.5 directly (spread 2.3–3.8 and 0.8–6.9). It was measured before
// cuts halved (Cut.Half), and the price still charges a halved cut every
// binding, so it overprices one by about 2×; plan choices are those of
// the unhalved engine.
const cutUnit = 1.8

// cut prices one task of a decomposed plan at cutUnit: its components'
// walks plus, for a scatter, one pass over the scattered vertex's
// candidates that the first walk reached — once per binding of the
// walked vertex where there is one, once otherwise. A decomposed plan is
// priced alone: the engine's component table serves a walk that several
// plans of a batch name once per binding, and that sharing is
// deliberately not priced.
func (m costModel) cut(ct *Cut) float64 {
	var total, reached float64
	for i := range ct.Comps {
		cost, scattered := m.walk(&ct.Comps[i])
		total += cost
		if i == 0 {
			reached = scattered
		}
	}
	if ct.Scatter() {
		total += reached
	}
	if ct.Walked {
		total = m.start * (1 + total)
	}
	return cutUnit * total
}

// walk prices one component's walk for one binding of the bound cut
// vertices, and returns how many candidates its level binding the
// scattered vertex yields: a level's set is priced like a completion
// step's, from the task's list when Ops names SlotTask; a sized last
// level costs one set computation plus a probe per slot it may hold.
func (m costModel) walk(cc *CutComp) (cost, scattered float64) {
	bind := 1.0
	for j := range cc.Levels {
		lv := &cc.Levels[j]
		k := len(lv.Ops)
		n := m.set(k, slices.Contains(lv.Ops, SlotTask), false, false)
		if lv.Slot != SlotScatter && j == len(cc.Levels)-1 {
			return cost + bind*(m.compute(k, 1)+float64(len(lv.Skip)-lv.Sure)*m.search), scattered
		}
		cost += bind * m.compute(k, n)
		bind *= n
		if lv.Slot == SlotScatter {
			scattered = bind
		}
	}
	return cost, scattered
}
