// Package plan computes exploration plans from patterns (paper §4.1,
// Figure 5). A plan is everything the matching engine needs to find each
// unique match of a pattern exactly once without isomorphism or
// canonicality checks:
//
//   - partial orders on pattern vertices that break the pattern's
//     symmetries (Grochow-Kellis), including asymmetries introduced by
//     anti-vertices (§4.3);
//   - the pattern core: the subgraph induced by a minimum connected
//     vertex cover, extended to cover anti-edges between regular
//     vertices (§4.2);
//   - matching orders: deduplicated ordered views of the core, one per
//     group of linear extensions of the partial order (§4.1);
//   - precomputed completion metadata for non-core vertices and
//     anti-vertex checks, and the closed form a count sizes a
//     completion tail by (tail.go).
//
// All computation here is on the pattern only (never the data graph),
// so plans are cheap: microseconds for the pattern sizes mining systems
// use.
package plan

import (
	"fmt"
	"slices"

	"peregrine/internal/pattern"
)

// Cond is one partial-order constraint: the data vertex matched to Less
// must have a smaller id than the one matched to Greater.
type Cond struct {
	Less, Greater int
}

// Step is one step of a matching order, in visit-index space: visit 0
// is the task's start vertex and Steps[t-1] binds visit t. A step is
// described purely by how it extends the bindings before it, so two
// orders — of one plan or of different plans — whose steps are equal up
// to depth t enumerate the same partial bindings up to depth t: the
// share trie merges them on that (share.go), and the engine executes
// the steps as built.
type Step struct {
	// Nbr are earlier visit indices regular-adjacent to the new vertex:
	// candidates are the intersection of their bindings' adjacency
	// lists. Sorted; never empty (traversal grows a connected frontier).
	Nbr []int

	// Anti are earlier visit indices anti-adjacent to the new vertex:
	// candidates adjacent to any of their bindings are rejected. Sorted.
	Anti []int

	// Lo and Hi are the visit indices whose bindings bound the candidate
	// id window (exclusive); -1 means unbounded on that side.
	Lo, Hi int

	// Label filters candidates' data labels; Wildcard accepts any.
	Label pattern.Label
}

// MatchingOrder is an ordered view of the pattern core (§4.1). Its
// positions 0..K-1 (K = len(Visit)) are totally ordered: matched data
// ids strictly increase with position. Two linear extensions of the
// partial order that induce the same ordered graph share a
// MatchingOrder; each data-side match of the ordered view yields one
// core match per sequence in Seqs.
type MatchingOrder struct {
	Start pattern.Label // the start vertex's label; Wildcard accepts any
	Visit []int         // Visit[t] is the position visit t binds; Visit[0] == K-1 (§5.2: high-to-low)
	Steps []Step        // Steps[t-1] binds visit t; len == K-1
	Seqs  [][]int       // Seqs[s][t] = core pattern vertex bound by visit t
}

// NonCoreStep describes completing one non-core vertex. Non-core
// vertices form an independent set (every edge has a cover endpoint), so
// a candidate set depends only on the core match plus ordering and
// distinctness against earlier completions.
type NonCoreStep struct {
	V        int   // the pattern vertex
	CoreNbrs []int // core vertices regular-adjacent to V (never empty)
	CoreAnti []int // core vertices anti-adjacent to V

	// Bounds from partial-order conditions: matched data id must exceed
	// every match of LowerBound and be below every match of UpperBound.
	// These reference pattern vertices matched before V (core vertices or
	// earlier non-core steps).
	LowerBound []int
	UpperBound []int

	// Distinct lists the vertices matched before V — core vertices, then
	// earlier NonCore steps' — whose match a candidate may equal: those
	// neither regular-adjacent to V (a candidate neighbours the match of
	// each core neighbour, and no vertex neighbours itself) nor ordered
	// against V by the closure of Conds (every condition holds in a
	// complete match, so V's match differs from theirs). A count sizing
	// a SizedAtCore plan's level subtracts only these; a plan edited by
	// hand must keep the list a superset of the vertices its level can
	// hold. K3, K4 and K5 have none.
	Distinct []int

	Label pattern.Label
}

// Unfiltered reports whether every vertex of st's candidate set that is
// not already in the match completes it: no label to test, no anti-edge
// to reject on. A count sizes such a level instead of walking it when it
// is a SizedAtCore plan's one level or in the plan's Tail (internal/core's
// count mode), and CostOf prices it that way.
func (st *NonCoreStep) Unfiltered() bool {
	return st.Label == pattern.Wildcard && len(st.CoreAnti) == 0
}

// SizedAtCore reports whether a count sizes pl's whole completion at its
// core binding (internal/core's count mode): the completion is one
// unfiltered step and no anti-vertex check follows it. Every k-clique,
// the triangle included, is such a plan; the share trie gives their
// leaves the step in visit space (ShareLeaf.Levels). Outside a Tail it is
// the one level a count sizes: the unfiltered last level of a longer
// completion is walked and counted in place, like a filtered one.
func (pl *Plan) SizedAtCore() bool {
	return pl.Cut == nil && len(pl.NonCore) == 1 && pl.NonCore[0].Unfiltered() && len(pl.Checks) == 0
}

// AntiVertexCheck precomputes the §4.3 constraint for one anti-vertex:
// after all regular vertices are matched, the common neighborhood of the
// matches of Nbrs — excluding, per neighbor u, the matches of u's own
// pattern neighbors — must be empty.
type AntiVertexCheck struct {
	V       int
	Nbrs    []int   // regular vertices anti-adjacent to V
	Exclude [][]int // Exclude[i]: pattern neighbors of Nbrs[i] (regular vertices only)
}

// Plan is a complete exploration plan for one pattern.
type Plan struct {
	Pat   *pattern.Pattern
	Conds []Cond // symmetry-breaking partial order on pattern vertices
	Core  []int  // core pattern vertices, ascending
	Anti  []int  // anti-vertices, ascending

	Orders  []*MatchingOrder
	NonCore []NonCoreStep // in completion order
	Checks  []AntiVertexCheck

	// Tail is the suffix of two or more NonCore steps a count sizes in
	// closed form, or nil (see TailOf).
	Tail *Tail

	// Cut, when set, makes this a decomposed plan (see Decompositions):
	// it has no core, orders or completion, and what a count of it
	// yields is the tuple count V, from which MorphBatch recovers Pat's.
	Cut *Cut
}

// Options configures plan generation.
type Options struct {
	// NoSymmetryBreaking drops all partial-order conditions, modelling
	// systems that are not fully pattern-aware (paper's PRG-U
	// configuration, Figure 10 / Table 1). Every automorphic match is
	// then enumerated.
	NoSymmetryBreaking bool

	// Shape is the data graph MorphBatch prices a batch for (see CostOf);
	// the zero Shape is the documented sparse default. It does not change
	// a plan, so New ignores it and it is no part of a cache key.
	Shape Shape
}

// New computes the exploration plan for p (Figure 5's generatePlan).
func New(p *pattern.Pattern, opt Options) (*Plan, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	pl := &Plan{Pat: p, Anti: p.AntiVertices()}
	core, err := MinConnectedVertexCover(p)
	if err != nil {
		return nil, err
	}
	pl.Core = core
	if !opt.NoSymmetryBreaking {
		pl.Conds = BreakSymmetries(p, core)
	}

	pl.Orders = matchingOrders(p, core, pl.Conds)
	if len(pl.Orders) == 0 {
		return nil, fmt.Errorf("plan: no matching order satisfies the partial order (pattern %v)", p)
	}
	pl.NonCore = nonCoreSteps(p, core, pl.Conds)
	pl.Checks = antiChecks(p)
	pl.Tail = TailOf(pl, 0)
	return pl, nil
}

// BreakSymmetries computes a minimal set of partial-order conditions
// that leaves the identity as the only automorphism satisfying them
// (Grochow-Kellis). Anti-edges and anti-vertices participate in the
// automorphism computation as distinct colors/vertices, so the ordering
// reflects anti-vertex asymmetries (§4.3). Conditions between two
// anti-vertices are dropped: anti-vertices are never matched, and
// automorphisms never mix anti and regular vertices (edge colors are
// preserved), so such conditions are unenforceable no-ops.
//
// Any pivot sequence down the stabilizer chain breaks every symmetry;
// this one fixes the core first. Each round pivots on the vertex with
// the largest orbit under the stabilizer of the pivots so far, ties
// broken by smallest id, taken among core vertices while any of them
// still has an orbit of two or more. Once the core is fixed pointwise an
// automorphism can only exchange non-core twins — vertices with the same
// core neighbours, label and anti-edges, one candidate set — so every
// later condition orders two members of one twin class, and each class
// closes to a chain. A core pivot bounds whole classes: exchanging two
// twins fixes every core vertex, so its orbit holds all twins of any
// member. So no condition orders two completion vertices with different
// candidate sets, which is what lets plan.Tail size any unfiltered
// completion suffix (tail.go). core is the plan's core; with nil every
// round picks among all vertices.
//
// Orbits under the shrinking stabilizer subgroup are computed with
// pairwise automorphism queries (pattern.Orbit) rather than by
// materializing the group, which keeps factorially symmetric patterns
// like the Table 6 14-clique (|Aut| = 14!) tractable.
func BreakSymmetries(p *pattern.Pattern, core []int) []Cond {
	var conds []Cond
	var fixed []int
	for {
		pivot, pivotOrbit := pickPivot(p, fixed, core)
		if len(pivotOrbit) <= 1 {
			pivot, pivotOrbit = pickPivot(p, fixed, nil)
		}
		if len(pivotOrbit) <= 1 {
			return conds // stabilizer is trivial: symmetries fully broken
		}
		for _, u := range pivotOrbit[1:] {
			if p.IsAntiVertex(pivot) && p.IsAntiVertex(u) {
				continue
			}
			conds = append(conds, Cond{Less: pivot, Greater: u})
		}
		fixed = append(fixed, pivot)
	}
}

// pickPivot returns the vertex of among — every vertex when among is
// nil — with the largest orbit under the stabilizer of fixed, ties
// broken by smallest id, and that orbit (pattern.Orbit: pivot first).
func pickPivot(p *pattern.Pattern, fixed, among []int) (pivot int, orbit []int) {
	pivot = -1
	for v := 0; v < p.N(); v++ {
		if slices.Contains(fixed, v) || among != nil && !slices.Contains(among, v) {
			continue
		}
		if o := p.Orbit(fixed, v); len(o) > len(orbit) {
			pivot, orbit = v, o
		}
	}
	return pivot, orbit
}

// MinConnectedVertexCover returns the lexicographically first minimum
// subset S of regular vertices such that (a) every regular edge has an
// endpoint in S, (b) every anti-edge between two regular vertices has an
// endpoint in S (§4.2: its adjacency list must be available for the set
// difference), and (c) the subgraph induced by S under regular edges is
// connected. Anti-vertices and their anti-edges are excluded (§4.3: they
// do not impact the core).
func MinConnectedVertexCover(p *pattern.Pattern) ([]int, error) {
	reg := p.RegularVertices()
	type pair struct{ u, v int }
	var mustCover []pair
	for i, u := range reg {
		for _, v := range reg[i+1:] {
			if k := p.EdgeKindOf(u, v); k == pattern.Regular || k == pattern.Anti {
				mustCover = append(mustCover, pair{u, v})
			}
		}
	}
	if len(mustCover) == 0 {
		return nil, fmt.Errorf("plan: pattern has no edges to cover")
	}
	inSet := make([]bool, p.N())
	covers := func(s []int) bool {
		for i := range inSet {
			inSet[i] = false
		}
		for _, v := range s {
			inSet[v] = true
		}
		for _, e := range mustCover {
			if !inSet[e.u] && !inSet[e.v] {
				return false
			}
		}
		return true
	}
	for size := 1; size <= len(reg); size++ {
		s := make([]int, size)
		found := false
		pattern.Combinations(len(reg), size, func(idx []int) bool {
			for i, j := range idx {
				s[i] = reg[j]
			}
			found = covers(s) && len(p.Components(s)) == 1
			return !found
		})
		if found {
			return s, nil
		}
	}
	return nil, fmt.Errorf("plan: no connected vertex cover exists (pattern %v)", p)
}
