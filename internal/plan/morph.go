package plan

// Pattern morphing for batch counting (Jamshidi & Vora, "Pattern
// Morphing for Efficient Graph Mining"; DwarvesGraph's counting-only
// observation — see PAPERS.md). The share trie (share.go) reduces the
// cost of executing a pattern set; morphing rewrites the set itself:
// a counting-only pattern with anti-edges can be replaced by cheaper
// edge-add/edge-remove relatives, and its count recovered from theirs
// by an exact linear relation.
//
// The algebra. Let e(p) be the number of injective embeddings of p —
// maps sending regular edges to edges and anti-edge pairs to
// non-adjacent pairs — so the engine's unique-match count is
// count(p) = e(p)/|Aut(p)|. For any anti-edge a of p, an embedding
// either maps a's endpoints to an adjacent pair or not, so
//
//	e(p) = e(p with a relaxed) − e(p with a made regular),
//
// and eliminating every anti-edge this way is inclusion–exclusion over
// the subsets S of p's anti-edge set A:
//
//	e(p) = Σ_{S⊆A} (−1)^{|S|} e(p_S),
//
// where p_S keeps p's regular edges, turns S regular, and drops A∖S.
// Every p_S is anti-edge-free (edge-induced), stays connected (regular
// edges are only ever added), and is a valid pattern. Grouping the 2^|A|
// terms by isomorphism class through the canonical-form machinery — the
// same machinery the plan cache keys on, so isomorphic morphs of
// different batch members dedup to one executed plan — gives the
// recovery relation MorphTerms returns:
//
//	count(p) = Σ_q Coef_q · count(q) / Div,
//
// with Coef_q folding the signed subset multiplicity and |Aut(q)|, and
// Div = |Aut(p)|. The division is exact on complete runs.
//
// Why this wins: anti-edges inflate the pattern core
// (MinConnectedVertexCover must cover them), so a vertex-induced
// pattern pays deep guided traversals with anti-rejections where its
// edge-induced relatives match with small cores and cheap completions —
// and across a motif batch the relatives of different patterns overlap
// heavily, so the executed set is barely larger than the most expensive
// single expansion. Whether it wins depends on the graph: a relative
// with a small core can still match far more often than the pattern. So
// MorphBatch picks the cheaper of direct and morphed execution per
// pattern with CostOf, which prices each plan as the engine counts it on
// a graph of the batch's Shape (its size and degree moments), and the
// share trie merges whatever survives.

import (
	"math"
	"math/big"
	"math/bits"
	"slices"

	"peregrine/internal/pattern"
)

// Morphing gates. Expansion enumerates 2^|anti-edges| subsets and
// canonicalizes each, so both the vertex count (canonicalization,
// automorphism enumeration) and the anti-edge count are bounded;
// patterns beyond the gates simply run direct.
const (
	// MorphMaxVertices bounds morphable pattern size. It stays at or
	// below the plan cache's canonicalization bound so every morph
	// relative dedups by canonical form.
	MorphMaxVertices = 7

	// MorphMaxAntiEdges bounds the inclusion–exclusion expansion
	// (2^10 = 1024 subsets). A 5-vertex vertex-induced pattern has at
	// most 6 anti-edges; the gate only excludes adversarial 6-7 vertex
	// shapes whose expansions would dwarf any execution savings.
	MorphMaxAntiEdges = 10
)

// Morphable reports whether p is eligible for morphing: it must carry
// at least one anti-edge between regular vertices and no anti-vertices
// (an anti-vertex constrains a common neighborhood, not a single pair,
// so the pairwise edge algebra above does not apply), within the
// expansion gates.
func Morphable(p *pattern.Pattern) bool {
	return p.N() <= MorphMaxVertices &&
		p.NumAntiEdges() > 0 &&
		p.NumAntiEdges() <= MorphMaxAntiEdges &&
		len(p.AntiVertices()) == 0
}

// MorphTerm is one isomorphism class of a pattern's morph expansion:
// an anti-edge-free relative and its signed weight in the recovery
// relation count(p) = Σ Coef·count(Term) / Div.
type MorphTerm struct {
	Pat  *pattern.Pattern
	Coef int64
}

// MorphTerms expands p over its morph lattice and returns the recovery
// relation's terms — deduplicated by canonical form, zero-coefficient
// classes dropped, in deterministic first-seen order — plus the
// divisor Div = |Aut(p)|. Returns (nil, 0) when p is not Morphable.
func MorphTerms(p *pattern.Pattern) ([]MorphTerm, int64) {
	if !Morphable(p) {
		return nil, 0
	}
	type pair struct{ u, v int }
	var anti []pair
	n := p.N()
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if p.EdgeKindOf(u, v) == pattern.Anti {
				anti = append(anti, pair{u, v})
			}
		}
	}
	// Accumulate signed subset multiplicities per isomorphism class.
	var classes pattern.Classes
	for mask := 0; mask < 1<<len(anti); mask++ {
		q := p.Clone()
		for b, e := range anti {
			if mask>>b&1 == 1 {
				q.AddEdge(e.u, e.v)
			} else {
				q.RemoveEdge(e.u, e.v)
			}
		}
		sign := int64(1)
		if bits.OnesCount(uint(mask))%2 == 1 {
			sign = -1
		}
		classes.Add(q, sign)
	}
	return morphTerms(&classes), int64(len(p.Automorphisms()))
}

// morphTerms returns the classes of nonzero weight, first seen first,
// each weighted by its representative's automorphism count as well, so
// that a relation over them applies directly to engine (unique-match)
// counts.
func morphTerms(classes *pattern.Classes) []MorphTerm {
	var terms []MorphTerm
	for _, c := range classes.List {
		if c.Weight != 0 {
			terms = append(terms, MorphTerm{Pat: c.Pat, Coef: c.Weight * int64(len(c.Pat.Automorphisms()))})
		}
	}
	return terms
}

// relation is a count recovered from cheaper ones, compiled against one
// cache: count = Σ coef·count(term) / div. A pattern's morph relation
// (MorphTerms) and its decompositions (Decompositions) both take this
// form, with every other pattern they name resolved to that cache's plan
// for it, so isomorphic terms of different relations are one *Plan.
type relation struct {
	terms []compiledTerm
	div   int64
}

type compiledTerm struct {
	pl   *Plan
	coef int64
}

// relations returns the relations pl's count can be recovered from: its
// morph relation when its pattern p has anti-edges, its decompositions —
// the decomposed plan with coefficient 1, each shrinkage pattern with
// −c_q — when it has none. Either is nil outside its gates, which callers
// check (Morphable; cuttable and CutFits) before the lookup. A relation a
// term of which fails to compile is dropped: that disqualifies the
// relation, not the batch. The relations depend on p's shape alone, so
// they are kept on the shape's cache entry: expanded and canonicalised
// once per cache, not once per batch. They live per cache rather than on
// the Plan because MorphBatch and its callers dedup terms by plan
// pointer, and a pointer means one pattern only within one cache. A term
// evicted and recompiled while p's entry survives leaves the relation
// naming the old plan: counts stay exact, and only the dedup against a
// fresh lookup of that term is lost. A plan the cache compiled finds its
// entry directly; any other plan looks its pattern up.
func (c *Cache) relations(pl *Plan, opt Options) []*relation {
	e, ok := c.ownEntry(pl)
	if !ok {
		var err error
		if e, _, err = c.entry(pl.Pat, opt); err != nil {
			return nil
		}
	}
	e.relOnce.Do(func() {
		add := func(rel *relation, terms []MorphTerm, sign int64) {
			for _, t := range terms {
				cached, err := c.Get(t.Pat, opt)
				if err != nil {
					return
				}
				rel.terms = append(rel.terms, compiledTerm{pl: cached.Plan, coef: sign * t.Coef})
			}
			e.rels = append(e.rels, rel)
		}
		pat := e.plan.Pat
		if pat.NumAntiEdges() > 0 {
			if terms, div := MorphTerms(pat); terms != nil {
				add(&relation{div: div}, terms, 1)
			}
			return
		}
		for _, d := range Decompositions(pat) {
			add(&relation{div: d.Div, terms: []compiledTerm{{pl: d.Plan, coef: 1}}}, d.Terms, -1)
		}
	})
	return e.rels
}

// Shape is what the cost model knows of a data graph: its vertex count,
// its first two degree moments (graph.DegreeMoments), how many labels it
// uses and its largest degree. The zero Shape stands for defaultShape.
type Shape struct {
	Vertices  uint32
	MeanDeg   float64 // m1, the mean degree
	MeanSqDeg float64 // m2, the mean squared degree
	Labels    int     // distinct vertex labels; 0 for an unlabeled graph

	// MaxDeg is the largest degree (graph.MaxDegree). It bounds a
	// decomposed count's tally (CutFits); 0, unknown, rules decomposition
	// out and prices nothing else.
	MaxDeg uint32
}

// defaultShape is the graph priced when none is at hand — a coordinator
// plans for a fleet whose graphs it never loads: Poisson degrees of mean
// 8 (m2 = 8 + 8² = 72) on 2²⁰ vertices, a sparse graph and not any
// benchmark's. Defaults from 4096 to 2²⁰ vertices at mean degree 8–10
// choose identically on every pair of vertex-induced 4-motifs.
var defaultShape = Shape{Vertices: 1 << 20, MeanDeg: 8, MeanSqDeg: 72}

// costModel is a Shape reduced to the figures CostOf prices with.
type costModel struct {
	start  float64 // length of the start vertex's list: m1
	reach  float64 // length of a list of a vertex reached by an edge: m2/m1
	close  float64 // chance a candidate survives one more list
	search float64 // one binary search in a reached list
	label  float64 // chance a candidate passes a label test
}

func (s Shape) model() costModel {
	if s.Vertices == 0 || s.MeanDeg <= 0 || s.MeanSqDeg <= 0 {
		s = defaultShape
	}
	reach := s.MeanSqDeg / s.MeanDeg
	label := 1.0
	if s.Labels > 1 {
		label = 1 / float64(s.Labels)
	}
	return costModel{
		start:  s.MeanDeg,
		reach:  reach,
		close:  min(1, reach*reach/(s.MeanDeg*float64(s.Vertices))),
		search: max(1, math.Log2(reach)),
		label:  label,
	}
}

// set is the expected size of the intersection of k adjacency lists,
// one of them the start vertex's when fromStart, in an id window bounded
// below when lo and above when hi: the first list's length, a closure
// chance per further list, and half the set per bound.
func (m costModel) set(k int, fromStart, lo, hi bool) float64 {
	n := m.reach
	if fromStart {
		n = m.start
	}
	n *= math.Pow(m.close, float64(k-1))
	if lo {
		n /= 2
	}
	if hi {
		n /= 2
	}
	return n
}

// compute is the cost of producing a k-list set of n candidates and
// reading it: a single list is a view, so reading its candidates is all
// there is; k lists cost a merge over k reached lists.
func (m costModel) compute(k int, n float64) float64 {
	if k == 1 {
		return n
	}
	return float64(k) * m.reach
}

// pass is the chance a candidate passes a test for label l.
func (m costModel) pass(l pattern.Label) float64 {
	if l == pattern.Wildcard {
		return 1
	}
	return m.label
}

// CostOf estimates the work of counting pl's matches, per task, on a
// graph of shape s, pricing what internal/core does for a count (no
// callback) rather than the pattern's size:
//
//   - Core steps, per matching order. A step from the start vertex
//     branches m1 ways, a later one m2/m1 (the degree of a vertex
//     reached by an edge); each list beyond the first keeps a candidate
//     with the configuration model's closure chance (m2/m1)²/(m1·|V|),
//     and each bound of the id window halves the set. A one-list step is
//     a view and costs its candidates; a k-list step costs a k-list merge
//     per binding; each anti-edge costs a binary search per candidate. A
//     label test keeps one candidate in Labels (labels drawn uniformly).
//   - Completion, per core match and per sequence of the order. Walked
//     non-core levels are priced like core steps and multiply the binding
//     count, the last one too. A SizedAtCore plan's one level costs one
//     set computation, and a plan's Tail one set per class, a search of
//     it per vertex matched before the tail and, for each subset of two
//     or more classes its terms name, a merge of those classes' sets —
//     the engine's count-mode sizing. The searches keep a tail sized
//     with no merge, like the edge-induced diamond's two twin leaves,
//     from pricing per core match like a clipped core step
//     (TestMorphDefaultShapeStable).
//   - Each anti-vertex check costs one k-list intersection per match.
//   - A decomposed plan (pl.Cut) costs, per task, its components' walks
//     for each binding of the cut: m1 bindings of a walked cut vertex,
//     one otherwise. A walk's levels are priced like completion steps,
//     its last level sized in one set computation; a scatter (a cut
//     with a scattered vertex) also pays, per binding, a pass over the
//     candidates the first walk tallied. Every unit is weighted by
//     cutUnit, what a decomposed walk was measured to cost per unit
//     against a trie plan.
//
// Trie prefix sharing and completion slots are left out: they discount
// plans that share work, MorphBatch's objective already charges a
// relative shared by several patterns once, and timing every morph/direct
// assignment of coord_sharded's pairs and serve_mix's triples puts the
// model's choices within 1 % of the fastest (geometric mean) without
// them. Only relative costs matter.
func CostOf(pl *Plan, s Shape) float64 {
	m := s.model()
	if pl.Cut != nil {
		return m.cut(pl.Cut)
	}
	var total float64
	for _, mo := range pl.Orders {
		bind := m.pass(mo.Start)
		for i := range mo.Steps {
			st := &mo.Steps[i]
			k := len(st.Nbr)
			n := m.set(k, slices.Contains(st.Nbr, 0), st.Lo >= 0, st.Hi >= 0)
			total += bind * (m.compute(k, n) + n*float64(len(st.Anti))*m.search)
			bind *= n * m.pass(st.Label)
		}
		for _, seq := range mo.Seqs {
			total += bind * m.completion(pl, seq[0])
		}
	}
	return total
}

// completion prices completing one core match whose start vertex is
// pattern vertex start: its delivery, the non-core levels, and the
// anti-vertex checks of every match it completes to.
func (m costModel) completion(pl *Plan, start int) float64 {
	nc := pl.NonCore
	cost, bind := 1.0, 1.0
	for i := range nc {
		st := &nc[i]
		k := len(st.CoreNbrs)
		n := m.set(k, slices.Contains(st.CoreNbrs, start), len(st.LowerBound) > 0, len(st.UpperBound) > 0)
		switch {
		case pl.Tail != nil && i == pl.Tail.Start:
			return cost + bind*m.tail(pl, start)
		case pl.SizedAtCore():
			return cost + bind*m.compute(k, 1)
		}
		cost += bind * (m.compute(k, n) + n*float64(len(st.CoreAnti))*m.search)
		bind *= n * m.pass(st.Label)
	}
	for i := range pl.Checks {
		cost += bind * float64(len(pl.Checks[i].Nbrs)) * m.reach
	}
	return cost
}

// tail prices sizing pl.Tail once, for a core match whose start vertex is
// pattern vertex start: each class's set and a search of it for every
// vertex matched before the tail, then a merge over the sets of every
// subset of two or more classes.
func (m costModel) tail(pl *Plan, start int) float64 {
	tl := pl.Tail
	sets := make([]float64, len(tl.Classes))
	matched := float64(len(pl.Core) + tl.Start)
	var cost float64
	for c, cl := range tl.Classes {
		nbrs := pl.NonCore[cl.Step].CoreNbrs
		sets[c] = m.set(len(nbrs), slices.Contains(nbrs, start), len(cl.Lower) > 0, len(cl.Upper) > 0)
		cost += m.compute(len(nbrs), 1) + matched*m.search
	}
	for _, mask := range tl.Subsets[len(tl.Classes):] {
		for c := range tl.Classes {
			if mask>>c&1 == 1 {
				cost += sets[c]
			}
		}
	}
	return cost
}

// Recovery is one relation of a MorphPlan: a count recovered from
// earlier ones as Σ Coef·count(Terms[i].Count) / Div.
type Recovery struct {
	Terms []RecoveryTerm
	Div   int64
}

// RecoveryTerm reads one count of a MorphPlan's program.
type RecoveryTerm struct {
	Count int   // index of the count: Exec[Count], or Rels[Count−len(Exec)]
	Coef  int64 // signed weight (multiplicity × |Aut| of the term's pattern)
}

// MorphStats quantifies one batch's morphing decisions. StepsDirect and
// StepsMorphed are the share-trie program steps of the batch as given
// versus as executed — the exact pattern-side measure of how much
// guided-traversal structure morphing removed; runtime savings in
// core-traversal adjacency intersections (ShareStats.Intersections) are
// data-dependent and are measured against the WithoutMorphing ablation.
// Morphing trades those core intersections for completion-side ones over
// already-narrowed candidate lists — MultiStats.Intersections reports
// that side.
// The JSON tags are the wire names of a job result's stats.morphing.
type MorphStats struct {
	Candidates       uint64 `json:"candidates"`           // morph relatives constructed across the batch
	MorphsChosen     uint64 `json:"morphsChosen"`         // relatives added to the executed set
	PatternsReplaced uint64 `json:"patternsReplaced"`     // originals replaced by recovery relations
	RecoveryTerms    uint64 `json:"recoveryTerms"`        // relation terms across all replaced patterns
	StepsDirect      uint64 `json:"stepsDirect"`          // trie program steps of the batch as given
	StepsMorphed     uint64 `json:"stepsMorphed"`         // trie program steps of the executed set
	Decomposed       uint64 `json:"decomposed,omitempty"` // plans that ran decomposed
}

// Add folds another batch's morphing decisions into s; every field is a
// per-batch tally, so totals over several batches are plain sums.
func (s *MorphStats) Add(o MorphStats) {
	s.Candidates += o.Candidates
	s.MorphsChosen += o.MorphsChosen
	s.PatternsReplaced += o.PatternsReplaced
	s.RecoveryTerms += o.RecoveryTerms
	s.StepsDirect += o.StepsDirect
	s.StepsMorphed += o.StepsMorphed
	s.Decomposed += o.Decomposed
}

// Active reports whether morphing changed the executed set.
func (s *MorphStats) Active() bool { return s.PatternsReplaced > 0 }

// MorphPlan is a rewritten counting batch as one recovery program: run
// Exec, whose counts are counts 0 to len(Exec)−1; evaluate Rels in
// order, Rels[k] giving count len(Exec)+k from counts before it; and read
// each requested position's count at Out.
type MorphPlan struct {
	Exec  []*Plan    // deduplicated executed plan set
	Rels  []Recovery // each after every count it reads
	Out   []int      // per requested position, the index of its count
	Stats MorphStats
}

// MorphBatch rewrites a counting batch by one substitution step applied
// twice, each choosing by CostOf for opt.Shape: first over the requested
// plans and their morph relations — a pattern with anti-edges weighed
// against its anti-edge-free relatives, compiled and deduplicated through
// cache, so isomorphic relatives of different patterns become one plan —
// then over the executed set and its decompositions (Decompositions),
// where the shape bounds a decomposed count's tally (CutFits), which a
// Shape without MaxDeg never does. The first step prices relatives as
// direct plans: a relative's decomposition does not draw it towards
// morphing.
// It returns the program that runs the cheaper equivalent execution, or
// nil when neither step changed anything — callers then run the batch as
// given. Counting semantics only: callers that need real embeddings
// (ForEach/Exists/Matches) must not morph. Batches compiled without
// symmetry breaking are not morphed: their counts are per-automorphism
// enumerations and the |Aut| weights above do not apply.
func MorphBatch(pls []*Plan, cache *Cache, opt Options) *MorphPlan {
	if opt.NoSymmetryBreaking || len(pls) == 0 {
		return nil
	}
	if cache == nil {
		cache = NewCache()
	}
	s := opt.Shape
	rw := rewrite{shape: s, by: make(map[*Plan]*relation)}
	for _, pl := range pls {
		if !slices.Contains(rw.exec, pl) {
			rw.exec = append(rw.exec, pl)
		}
	}
	var stats MorphStats
	stats.Candidates, stats.MorphsChosen = rw.substitute(func(pl *Plan) []*relation {
		if !Morphable(pl.Pat) {
			return nil
		}
		return cache.relations(pl, opt)
	})
	rw.substitute(func(pl *Plan) []*relation {
		if !cuttable(pl.Pat) || !CutFits(pl.Pat.N(), s) {
			return nil
		}
		return cache.relations(pl, opt)
	})
	if len(rw.by) == 0 {
		return nil
	}
	mp := rw.lower(pls)
	for _, j := range mp.Out {
		if k := j - len(mp.Exec); k >= 0 {
			stats.PatternsReplaced++
			stats.RecoveryTerms += uint64(len(mp.Rels[k].Terms))
		}
	}
	for _, pl := range mp.Exec {
		if pl.Cut != nil {
			stats.Decomposed++
		}
	}
	stats.StepsDirect = programSteps(pls)
	stats.StepsMorphed = programSteps(mp.Exec)
	mp.Stats = stats
	return mp
}

// rewrite is a batch between MorphBatch's steps: the plans that execute,
// and the relation each replaced plan's count comes from.
type rewrite struct {
	shape Shape
	exec  []*Plan
	by    map[*Plan]*relation
}

// substitute is MorphBatch's rewrite step. Each executing plan relsOf
// gives relations for is a group whose alternative is the cheapest of
// them, and choose picks the plans to replace. A plan that executes
// before the step has its count at hand, run or recovered, so it costs a
// relation nothing. A replaced plan leaves exec for by, and the terms of
// its relation not at hand join exec in first-use order. It returns how
// many terms the groups' relations have and how many plans joined exec.
func (rw *rewrite) substitute(relsOf func(*Plan) []*relation) (terms, joined uint64) {
	fixed := make(map[*Plan]bool, len(rw.exec))
	for _, pl := range rw.exec {
		fixed[pl] = true
	}
	groups := make(map[*Plan]*group)
	var order []*Plan
	for _, pl := range rw.exec {
		rels := relsOf(pl)
		var best *group
		bestCost := math.Inf(1)
		for _, rel := range rels {
			g := &group{relation: rel}
			cost := 0.0
			for _, t := range rel.terms {
				if !fixed[t.pl] {
					g.open = append(g.open, t.pl)
					if len(rels) > 1 {
						cost += CostOf(t.pl, rw.shape)
					}
				}
			}
			if cost < bestCost {
				best, bestCost = g, cost
			}
		}
		if best == nil {
			continue
		}
		terms += uint64(len(best.terms))
		best.cost = CostOf(pl, rw.shape)
		groups[pl] = best
		order = append(order, pl)
	}
	assign := choose(order, groups, rw.shape)
	var exec []*Plan
	for _, pl := range rw.exec {
		if !assign[pl] {
			exec = append(exec, pl)
		}
	}
	for _, pl := range order {
		if !assign[pl] {
			continue
		}
		rw.by[pl] = groups[pl].relation
		for _, t := range groups[pl].open {
			if !slices.Contains(exec, t) {
				exec = append(exec, t)
				joined++
			}
		}
	}
	rw.exec = exec
	return terms, joined
}

// lower writes the rewrite of the requested plans pls as a MorphPlan:
// depth first from each requested plan, a replaced plan's relation goes
// after the relations of the replaced plans it reads.
func (rw *rewrite) lower(pls []*Plan) *MorphPlan {
	mp := &MorphPlan{Exec: rw.exec, Out: make([]int, len(pls))}
	at := make(map[*Plan]int, len(rw.exec))
	for j, pl := range rw.exec {
		at[pl] = j
	}
	var count func(pl *Plan) int
	count = func(pl *Plan) int {
		if j, ok := at[pl]; ok {
			return j
		}
		rel := rw.by[pl]
		r := Recovery{Div: rel.div, Terms: make([]RecoveryTerm, len(rel.terms))}
		for i, t := range rel.terms {
			r.Terms[i] = RecoveryTerm{Count: count(t.pl), Coef: t.coef}
		}
		at[pl] = len(rw.exec) + len(mp.Rels)
		mp.Rels = append(mp.Rels, r)
		return at[pl]
	}
	for i, pl := range pls {
		mp.Out[i] = count(pl)
	}
	return mp
}

// group is one plan's alternative to running directly: a relation whose
// terms run instead.
type group struct {
	*relation
	cost float64 // CostOf running the plan directly
	open []*Plan // the relation's terms whose counts are not at hand
}

// choose decides, per group of order, between running its plan (false)
// and running its relation's open terms (true), for the least total
// CostOf over shape s of what executes: steepest-descent hill climbing.
// Shared terms make the objective non-separable — a term costs once
// however many groups use it; a term whose count is at hand regardless is
// not open and costs nothing — so descent runs from both extreme starts:
// all-relation converges right when terms overlap (motif batches),
// all-direct when they don't (a lone expensive expansion).
func choose(order []*Plan, groups map[*Plan]*group, s Shape) map[*Plan]bool {
	termCost := make(map[*Plan]float64)
	for _, gp := range order {
		for _, t := range groups[gp].open {
			if _, ok := termCost[t]; !ok {
				termCost[t] = CostOf(t, s)
			}
		}
	}
	objective := func(assign map[*Plan]bool) float64 {
		total := 0.0
		use := make(map[*Plan]bool)
		for _, gp := range order {
			if !assign[gp] {
				total += groups[gp].cost
				continue
			}
			for _, t := range groups[gp].open {
				if !use[t] {
					use[t] = true
					total += termCost[t]
				}
			}
		}
		return total
	}
	descend := func(start bool) (map[*Plan]bool, float64) {
		assign := make(map[*Plan]bool, len(groups))
		use := make(map[*Plan]int)
		for _, gp := range order {
			assign[gp] = start
			if start {
				for _, t := range groups[gp].open {
					use[t]++
				}
			}
		}
		for {
			var best *Plan
			bestDelta := 0.0
			for _, gp := range order {
				g := groups[gp]
				var delta float64
				if assign[gp] {
					// relation -> direct: pay the plan, drop sole-use terms.
					delta = g.cost
					for _, t := range g.open {
						if use[t] == 1 {
							delta -= termCost[t]
						}
					}
				} else {
					// direct -> relation: pay unshared terms, drop the plan.
					delta = -g.cost
					for _, t := range g.open {
						if use[t] == 0 {
							delta += termCost[t]
						}
					}
				}
				if delta < bestDelta {
					best, bestDelta = gp, delta
				}
			}
			if best == nil {
				break
			}
			d := 1
			if assign[best] {
				d = -1
			}
			assign[best] = !assign[best]
			for _, t := range groups[best].open {
				use[t] += d
			}
		}
		return assign, objective(assign)
	}
	fromRel, costRel := descend(true)
	fromDirect, costDirect := descend(false)
	if costDirect < costRel {
		return fromDirect
	}
	return fromRel
}

// programSteps is the ShareTrie.ProgramSteps of pls without building the
// trie: the steps of every matching order of every plan, before merging.
func programSteps(pls []*Plan) uint64 {
	var n uint64
	for _, pl := range pls {
		for _, mo := range pl.Orders {
			n += uint64(len(mo.Steps))
		}
	}
	return n
}

// Recover evaluates every recovery relation over the executed counts
// (indexed like Exec) and returns the original batch's counts.
// Arithmetic is exact (big.Int): coefficient sums can overflow int64
// on dense graphs long before the recovered counts do. On a truncated
// (Stopped) run the relations no longer describe complete counts; a
// negative evaluation is clamped to zero rather than wrapped.
func (mp *MorphPlan) Recover(counts []uint64) []uint64 { return mp.RecoverWide(counts, nil) }

// RecoverWide is Recover over executed counts of up to 128 bits: hi holds
// their high 64 bits, where a decomposed plan's V passes 64 bits before
// the count does, or is nil when every count fits in lo.
func (mp *MorphPlan) RecoverWide(lo, hi []uint64) []uint64 {
	vals := make([]big.Int, len(lo)+len(mp.Rels))
	for i, n := range lo {
		vals[i].SetUint64(n)
		if hi != nil && hi[i] != 0 {
			var h big.Int
			vals[i].Or(&vals[i], h.Lsh(h.SetUint64(hi[i]), 64))
		}
	}
	var tmp, coef big.Int
	for k, r := range mp.Rels {
		acc := &vals[len(lo)+k]
		for _, t := range r.Terms {
			acc.Add(acc, tmp.Mul(&vals[t.Count], coef.SetInt64(t.Coef)))
		}
		if acc.Sign() < 0 {
			acc.SetInt64(0) // truncated run: no complete count to report
		} else {
			acc.Quo(acc, coef.SetInt64(r.Div))
		}
	}
	out := make([]uint64, len(mp.Out))
	for i, j := range mp.Out {
		if vals[j].IsUint64() {
			out[i] = vals[j].Uint64()
		} else {
			out[i] = ^uint64(0)
		}
	}
	return out
}
