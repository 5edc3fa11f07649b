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
	"sort"

	"peregrine/internal/pattern"
)

// Cond is one partial-order constraint: the data vertex matched to Less
// must have a smaller id than the one matched to Greater.
type Cond struct {
	Less, Greater int
}

// Step describes how the engine matches one core position during the
// guided traversal of a matching order.
type Step struct {
	Pos int // position being matched (data ids increase with position)

	// NbrVisited are previously visited positions regular-adjacent to
	// Pos; candidates are the intersection of their matches' adjacency
	// lists. Non-empty for every step because the core is connected and
	// the traversal grows a connected frontier.
	NbrVisited []int

	// AntiVisited are previously visited positions anti-adjacent to Pos;
	// candidates adjacent to any of their matches are rejected.
	AntiVisited []int

	// LoPos and HiPos are the visited positions that bound the candidate
	// id window: the candidate must be greater than the match of LoPos
	// and smaller than the match of HiPos. Either may be -1 (unbounded).
	LoPos, HiPos int

	// Label constrains candidates' data labels; Wildcard accepts any.
	Label pattern.Label
}

// MatchingOrder is an ordered view of the pattern core (§4.1). Positions
// 0..K-1 are totally ordered: matched data ids strictly increase with
// position. Two linear extensions of the partial order that induce the
// same ordered graph share a MatchingOrder; each data-side match of the
// ordered view yields one core match per sequence in Seqs.
type MatchingOrder struct {
	K      int
	Visit  []int           // traversal order over positions; Visit[0] == K-1 (§5.2: high-to-low)
	Steps  []Step          // Steps[t] matches Visit[t+1]; len == K-1
	Labels []pattern.Label // label per position
	Seqs   [][]int         // Seqs[s][pos] = core pattern vertex at that position
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

	Label pattern.Label
}

// Unfiltered reports whether every vertex of st's candidate set that is
// not already in the match completes it: no label to test, no anti-edge
// to reject on. A count sizes such a level instead of walking it when it
// is the last, one of the last two, or in the plan's Tail (internal/core's
// count mode), and CostOf prices it that way.
func (st *NonCoreStep) Unfiltered() bool {
	return st.Label == pattern.Wildcard && len(st.CoreAnti) == 0
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

	// Tail is the suffix of NonCore a count sizes in closed form, or nil
	// (see TailOf).
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
	pl := &Plan{Pat: p}
	if !opt.NoSymmetryBreaking {
		pl.Conds = BreakSymmetries(p)
	}
	pl.Anti = p.AntiVertices()

	core, err := MinConnectedVertexCover(p)
	if err != nil {
		return nil, err
	}
	pl.Core = core

	pl.Orders = matchingOrders(p, core, pl.Conds)
	if len(pl.Orders) == 0 {
		return nil, fmt.Errorf("plan: no matching order satisfies the partial order (pattern %v)", p)
	}
	pl.NonCore = nonCoreSteps(p, core, pl.Conds)
	pl.Checks = antiChecks(p)
	pl.Tail = TailOf(pl)
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
// Orbits under the shrinking stabilizer subgroup are computed with
// pairwise automorphism queries (pattern.HasAutomorphism) rather than by
// materializing the group, which keeps factorially symmetric patterns
// like the Table 6 14-clique (|Aut| = 14!) tractable.
func BreakSymmetries(p *pattern.Pattern) []Cond {
	var conds []Cond
	var fixed []int
	n := p.N()
	isFixed := make([]bool, n)
	for {
		// Find the pivot with the largest orbit under the stabilizer of
		// the already-fixed vertices; ties broken by smallest id.
		pivot, pivotOrbit := -1, []int(nil)
		for v := 0; v < n; v++ {
			if isFixed[v] {
				continue
			}
			orbit := []int{v}
			for u := 0; u < n; u++ {
				if u == v || isFixed[u] {
					continue
				}
				if p.HasAutomorphism(fixed, v, u) {
					orbit = append(orbit, u)
				}
			}
			if len(orbit) > len(pivotOrbit) {
				pivot, pivotOrbit = v, orbit
			}
		}
		if pivot == -1 || len(pivotOrbit) <= 1 {
			return conds // stabilizer is trivial: symmetries fully broken
		}
		for _, u := range pivotOrbit {
			if u == pivot {
				continue
			}
			if p.IsAntiVertex(pivot) && p.IsAntiVertex(u) {
				continue
			}
			conds = append(conds, Cond{Less: pivot, Greater: u})
		}
		fixed = append(fixed, pivot)
		isFixed[pivot] = true
	}
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
	connected := func(s []int) bool {
		if len(s) <= 1 {
			return true
		}
		idx := make(map[int]int, len(s))
		for i, v := range s {
			idx[v] = i
		}
		seen := make([]bool, len(s))
		stack := []int{0}
		seen[0] = true
		cnt := 1
		for len(stack) > 0 {
			i := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for j, v := range s {
				if !seen[j] && p.HasEdge(s[i], v) {
					seen[j] = true
					cnt++
					stack = append(stack, j)
				}
			}
		}
		return cnt == len(s)
	}
	for size := 1; size <= len(reg); size++ {
		var found []int
		forEachCombination(len(reg), size, func(idx []int) bool {
			s := make([]int, size)
			for i, j := range idx {
				s[i] = reg[j]
			}
			if covers(s) && connected(s) {
				found = s
				return false // stop
			}
			return true
		})
		if found != nil {
			sort.Ints(found)
			return found, nil
		}
	}
	return nil, fmt.Errorf("plan: no connected vertex cover exists (pattern %v)", p)
}

// forEachCombination invokes f on each k-subset of [0,n) in
// lexicographic order until f returns false.
func forEachCombination(n, k int, f func([]int) bool) {
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
