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
	type acc struct {
		pat  *pattern.Pattern
		coef int64
	}
	classes := make(map[string]*acc)
	var order []string
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
		code := q.CanonicalCode()
		if a, ok := classes[code]; ok {
			a.coef += sign
		} else {
			classes[code] = &acc{pat: q, coef: sign}
			order = append(order, code)
		}
	}
	var terms []MorphTerm
	for _, code := range order {
		a := classes[code]
		if a.coef == 0 {
			continue
		}
		// Fold the class representative's automorphism count so the
		// relation applies directly to engine (unique-match) counts.
		terms = append(terms, MorphTerm{
			Pat:  a.pat,
			Coef: a.coef * int64(len(a.pat.Automorphisms())),
		})
	}
	return terms, int64(len(p.Automorphisms()))
}

// morphRelation is a pattern's recovery relation compiled against one
// cache: MorphTerms with every relative resolved to that cache's plan
// for it, so isomorphic relatives of different patterns are one *Plan.
type morphRelation struct {
	terms []compiledTerm
	div   int64
}

type compiledTerm struct {
	pl   *Plan
	coef int64
}

// morphRelation returns p's compiled relation, or nil when p does not
// morph (not Morphable, or a relative fails to compile — which
// disqualifies the pattern from morphing, not the batch). The relation
// depends on p's shape alone, so it is kept on the shape's cache entry:
// expanded and canonicalised — 2^|anti-edges| subsets — once per cache,
// not once per batch. It lives per cache rather than on the Plan because
// MorphBatch and its callers dedup relatives by plan pointer, and a
// pointer means one pattern only within one cache. A relative evicted
// and recompiled while p's entry survives leaves the relation naming the
// old plan: counts stay exact, and only the dedup against a fresh lookup
// of that relative is lost.
func (c *Cache) morphRelation(p *pattern.Pattern, opt Options) *morphRelation {
	if !Morphable(p) {
		return nil
	}
	e, _, err := c.entry(p, opt)
	if err != nil {
		return nil
	}
	e.morphOnce.Do(func() {
		terms, div := MorphTerms(e.plan.Pat)
		rel := &morphRelation{div: div, terms: make([]compiledTerm, len(terms))}
		for i, t := range terms {
			cached, err := c.Get(t.Pat, opt)
			if err != nil {
				return
			}
			rel.terms[i] = compiledTerm{pl: cached.Plan, coef: t.Coef}
		}
		e.morph = rel
	})
	return e.morph
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
	// decomposed count's tally (cutFits); 0, unknown, rules decomposition
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
//     count. With no anti-vertex check the last level, when Unfiltered,
//     costs one set computation, and an Unfiltered last pair one merge of
//     two sets; a plan's Tail costs one set per class and, for each
//     subset of two or more classes its terms name, a merge of those
//     classes' sets — the engine's count-mode tails.
//   - Each anti-vertex check costs one k-list intersection per match.
//   - A decomposed plan (pl.Cut) costs, per task, its components' walks
//     for each binding of the cut: m1 bindings of an adjacent second cut
//     vertex, one otherwise. A walk's levels are priced like completion
//     steps, its last level sized in one set computation; a scatter (a
//     non-adjacent cut) also pays a pass over the candidates the first
//     walk tallied. Every unit is weighted by cutUnit, what a decomposed
//     walk was measured to cost per unit against a trie plan.
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
		start := mo.Visit[0]
		bind := m.pass(mo.Labels[start])
		for i := range mo.Steps {
			st := &mo.Steps[i]
			k := len(st.NbrVisited)
			n := m.set(k, slices.Contains(st.NbrVisited, start), st.LoPos >= 0, st.HiPos >= 0)
			total += bind * (m.compute(k, n) + n*float64(len(st.AntiVisited))*m.search)
			bind *= n * m.pass(st.Label)
		}
		for _, seq := range mo.Seqs {
			total += bind * m.completion(pl, seq[start])
		}
	}
	return total
}

// completion prices completing one core match whose start vertex is
// pattern vertex start: its delivery, the non-core levels, and the
// anti-vertex checks of every match it completes to.
func (m costModel) completion(pl *Plan, start int) float64 {
	nc := pl.NonCore
	size := func(st *NonCoreStep) float64 {
		return m.set(len(st.CoreNbrs), slices.Contains(st.CoreNbrs, start), len(st.LowerBound) > 0, len(st.UpperBound) > 0)
	}
	counted := len(pl.Checks) == 0 // count mode sizes unfiltered tails
	cost, bind := 1.0, 1.0
	for i := range nc {
		st := &nc[i]
		k, n := len(st.CoreNbrs), size(st)
		switch {
		case pl.Tail != nil && i == pl.Tail.Start:
			return cost + bind*m.tail(pl, start)
		case counted && i == len(nc)-1 && st.Unfiltered():
			return cost + bind*m.compute(k, 1)
		case counted && i == len(nc)-2 && st.Unfiltered() && nc[i+1].Unfiltered():
			last := &nc[i+1]
			return cost + bind*(m.compute(k, 1)+m.compute(len(last.CoreNbrs), 1)+n+size(last))
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
// pattern vertex start: each class's set, then a merge over the sets of
// every subset of two or more classes.
func (m costModel) tail(pl *Plan, start int) float64 {
	tl := pl.Tail
	sets := make([]float64, len(tl.Classes))
	var cost float64
	for c, cl := range tl.Classes {
		nbrs := pl.NonCore[cl.Step].CoreNbrs
		sets[c] = m.set(len(nbrs), slices.Contains(nbrs, start), len(cl.Lower) > 0, len(cl.Upper) > 0)
		cost += m.compute(len(nbrs), 1)
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

// RecoveryTerm references one count in a recovery relation: an executed
// plan's, or one MorphPlan.Derived recovers.
type RecoveryTerm struct {
	Exec int   // index into MorphPlan.Exec, or len(Exec)+k for Derived[k]
	Coef int64 // signed weight (multiplicity × |Aut| of the relative)
}

// Recovery states how one original pattern's count is obtained from the
// executed batch: directly (Direct >= 0 indexes Exec) or by evaluating
// the linear relation Σ Coef·count(Exec[Term.Exec]) / Div.
type Recovery struct {
	Direct int // executed plan serving this pattern; -1 when morphed
	Terms  []RecoveryTerm
	Div    int64
}

// MorphStats quantifies one batch's morphing decisions. StepsDirect and
// StepsMorphed are the share-trie program steps of the batch as given
// versus as executed — the exact pattern-side measure of how much
// guided-traversal structure morphing removed; runtime savings in
// core-traversal adjacency intersections (ShareStats.Intersections) are
// data-dependent and are measured against the WithoutMorphing ablation
// (IntersectionsSaved is filled by harnesses that run both
// configurations, never fabricated at runtime). Morphing trades those
// core intersections for completion-side ones over already-narrowed
// candidate lists — MultiStats.Intersections reports that side.
// The JSON tags are the wire names of a job result's stats.morphing.
type MorphStats struct {
	Candidates         uint64 `json:"candidates"`           // morph relatives constructed across the batch
	MorphsChosen       uint64 `json:"morphsChosen"`         // relatives added to the executed set
	PatternsReplaced   uint64 `json:"patternsReplaced"`     // originals replaced by recovery relations
	RecoveryTerms      uint64 `json:"recoveryTerms"`        // relation terms across all replaced patterns
	StepsDirect        uint64 `json:"stepsDirect"`          // trie program steps of the batch as given
	StepsMorphed       uint64 `json:"stepsMorphed"`         // trie program steps of the executed set
	Decomposed         uint64 `json:"decomposed,omitempty"` // plans that ran decomposed (MorphPlan.Derived)
	IntersectionsSaved uint64 `json:"-"`                    // core intersections vs ablation; 0 in a lone run
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
	s.IntersectionsSaved += o.IntersectionsSaved
}

// Active reports whether morphing changed the executed set.
func (s *MorphStats) Active() bool { return s.PatternsReplaced > 0 }

// MorphPlan is a morphed execution of a counting batch: run Exec, then
// Recover each original count from the executed counts.
type MorphPlan struct {
	Exec  []*Plan    // deduplicated executed plan set
	Recov []Recovery // one per original batch position

	// Derived recovers, in order and before Recov, the counts of the plans
	// the rewrite ran decomposed: Derived[k] is count number len(Exec)+k,
	// a relation over the executed counts and the Derived before it.
	Derived []Recovery

	Stats MorphStats
}

// MorphBatch rewrites a counting batch in two passes, each choosing by
// CostOf for opt.Shape. First, for each morphable pattern it weighs
// direct execution against executing its anti-edge-free relatives
// (compiled and deduplicated through cache — isomorphic relatives of
// different patterns become one plan). Then, for each plan that would
// execute, it weighs running it against running one of its
// decompositions (Decompositions) and the shrinkage patterns the set does
// not count already — where the shape bounds a decomposed count's tally
// (cutFits), which a Shape without MaxDeg never does. The morph choice
// prices relatives as direct plans: a relative's decomposition does not
// draw the first pass towards morphing.
// It returns the cheaper equivalent execution with its recovery
// relations, or nil when neither pass changed anything — callers then
// run the batch as given. Counting semantics only: callers that need
// real embeddings (ForEach/Exists/Matches) must not morph. Batches
// compiled without symmetry breaking are not morphed: their counts are
// per-automorphism enumerations and the |Aut| weights above do not apply.
func MorphBatch(pls []*Plan, cache *Cache, opt Options) *MorphPlan {
	if opt.NoSymmetryBreaking || len(pls) == 0 {
		return nil
	}
	if cache == nil {
		cache = NewCache()
	}
	mp := morph(pls, cache, opt)
	mp.decompose(cache, opt.Shape)
	if !mp.Stats.Active() {
		return nil
	}
	mp.Stats.StepsDirect = programSteps(pls)
	mp.Stats.StepsMorphed = programSteps(mp.Exec)
	return mp
}

// morph is MorphBatch's first pass. Its plan runs pls as given, less
// duplicates, where no pattern morphs.
func morph(pls []*Plan, cache *Cache, opt Options) *MorphPlan {
	// One selection group per distinct morphable plan; duplicates in the
	// batch share the decision and the executed plans.
	groups := make(map[*Plan]*group)
	var groupOrder []*Plan
	fixed := make(map[*Plan]bool) // plans that execute regardless
	var stats MorphStats
	for _, pl := range pls {
		if _, seen := groups[pl]; seen || fixed[pl] {
			continue
		}
		rel := cache.morphRelation(pl.Pat, opt)
		if rel == nil {
			fixed[pl] = true
			continue
		}
		stats.Candidates += uint64(len(rel.terms))
		groups[pl] = &group{morphRelation: rel, cost: CostOf(pl, opt.Shape)}
		groupOrder = append(groupOrder, pl)
	}
	assign := choose(groupOrder, groups, fixed, opt.Shape)

	// Assemble the executed set: originals that still run (in batch
	// order, deduplicated), then chosen relatives in first-use order.
	mp := &MorphPlan{Recov: make([]Recovery, len(pls))}
	execIdx := make(map[*Plan]int)
	add := func(pl *Plan) int {
		if j, ok := execIdx[pl]; ok {
			return j
		}
		j := len(mp.Exec)
		execIdx[pl] = j
		mp.Exec = append(mp.Exec, pl)
		return j
	}
	for _, pl := range pls {
		if fixed[pl] || !assign[pl] {
			add(pl)
		}
	}
	before := len(mp.Exec)
	for _, pl := range pls {
		if !fixed[pl] && assign[pl] {
			for _, t := range groups[pl].terms {
				add(t.pl)
			}
		}
	}
	stats.MorphsChosen = uint64(len(mp.Exec) - before)
	for i, pl := range pls {
		if fixed[pl] || !assign[pl] {
			mp.Recov[i] = Recovery{Direct: execIdx[pl]}
			continue
		}
		g := groups[pl]
		r := Recovery{Direct: -1, Div: g.div, Terms: make([]RecoveryTerm, len(g.terms))}
		for ti, t := range g.terms {
			r.Terms[ti] = RecoveryTerm{Exec: execIdx[t.pl], Coef: t.coef}
		}
		mp.Recov[i] = r
		stats.PatternsReplaced++
		stats.RecoveryTerms += uint64(len(r.Terms))
	}
	mp.Stats = stats
	return mp
}

// decompose is MorphBatch's second pass: each executed plan with a
// decomposition the shape admits is a group whose relation is its
// cheapest decomposition, every executed plan's count is at hand — run or
// recovered — and choose picks the plans to replace. A replaced plan's
// count moves to Derived, fewest vertices first, since a shrinkage
// pattern has fewer vertices than the plan that names it, and every
// reference to it follows.
func (mp *MorphPlan) decompose(cache *Cache, s Shape) {
	groups := make(map[*Plan]*group)
	var groupOrder []*Plan
	fixed := make(map[*Plan]bool, len(mp.Exec))
	for _, pl := range mp.Exec {
		fixed[pl] = true
	}
	for _, pl := range mp.Exec {
		if pl.Pat.N() < cutMinVertices || !cutFits(pl.Pat.N(), s) {
			continue
		}
		var best *morphRelation
		bestCost := 0.0
		for _, rel := range cache.cutRelations(pl.Pat, Options{}) {
			cost := 0.0
			for _, t := range rel.terms {
				if !fixed[t.pl] {
					cost += CostOf(t.pl, s)
				}
			}
			if best == nil || cost < bestCost {
				best, bestCost = rel, cost
			}
		}
		if best != nil {
			groups[pl] = &group{morphRelation: best, cost: CostOf(pl, s)}
			groupOrder = append(groupOrder, pl)
		}
	}
	assign := choose(groupOrder, groups, fixed, s)
	var cut []*Plan
	for _, pl := range groupOrder {
		if assign[pl] {
			cut = append(cut, pl)
		}
	}
	if len(cut) == 0 {
		return
	}
	slices.SortStableFunc(cut, func(a, b *Plan) int { return a.Pat.N() - b.Pat.N() })

	old := mp.Exec
	mp.Exec = nil
	at := make(map[*Plan]int) // executed plan, or replaced one once derived -> its count's index
	add := func(pl *Plan) {
		if _, ok := at[pl]; !ok {
			at[pl] = len(mp.Exec)
			mp.Exec = append(mp.Exec, pl)
		}
	}
	for _, pl := range old {
		if !assign[pl] {
			add(pl)
		}
	}
	for _, pl := range cut {
		for _, t := range groups[pl].terms {
			if !fixed[t.pl] {
				add(t.pl)
			}
		}
	}
	for _, pl := range cut {
		g := groups[pl]
		r := Recovery{Direct: -1, Div: g.div, Terms: make([]RecoveryTerm, len(g.terms))}
		for ti, t := range g.terms {
			r.Terms[ti] = RecoveryTerm{Exec: at[t.pl], Coef: t.coef}
		}
		at[pl] = len(mp.Exec) + len(mp.Derived)
		mp.Derived = append(mp.Derived, r)
	}
	for i := range mp.Recov {
		r := &mp.Recov[i]
		if r.Direct < 0 {
			for ti := range r.Terms {
				r.Terms[ti].Exec = at[old[r.Terms[ti].Exec]]
			}
			continue
		}
		if pl := old[r.Direct]; assign[pl] {
			*r = Recovery{Direct: -1, Div: 1, Terms: []RecoveryTerm{{Exec: at[pl], Coef: 1}}}
			mp.Stats.PatternsReplaced++
			mp.Stats.RecoveryTerms++
		} else {
			r.Direct = at[pl]
		}
	}
	mp.Stats.Decomposed = uint64(len(cut))
}

// group is one plan's alternative to running directly: a relation whose
// terms run instead.
type group struct {
	*morphRelation
	cost float64 // CostOf running the plan directly
}

// choose decides, per group of order, between running its plan (false)
// and running its relation's terms (true), for the least total CostOf
// over shape s of what executes: steepest-descent hill climbing.
// Shared terms make the objective non-separable — a term costs once
// however many groups use it, and costs nothing if it is fixed (it
// executes, or its count is at hand, regardless) — so descent runs from
// both extreme starts: all-relation converges right when terms overlap
// (motif batches), all-direct when they don't (a lone expensive
// expansion).
func choose(order []*Plan, groups map[*Plan]*group, fixed map[*Plan]bool, s Shape) map[*Plan]bool {
	termCost := make(map[*Plan]float64)
	for _, gp := range order {
		for _, t := range groups[gp].terms {
			if _, ok := termCost[t.pl]; !ok {
				termCost[t.pl] = CostOf(t.pl, s)
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
			for _, t := range groups[gp].terms {
				if !fixed[t.pl] && !use[t.pl] {
					use[t.pl] = true
					total += termCost[t.pl]
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
				for _, t := range groups[gp].terms {
					use[t.pl]++
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
					for _, t := range g.terms {
						if !fixed[t.pl] && use[t.pl] == 1 {
							delta -= termCost[t.pl]
						}
					}
				} else {
					// direct -> relation: pay unshared terms, drop the plan.
					delta = -g.cost
					for _, t := range g.terms {
						if !fixed[t.pl] && use[t.pl] == 0 {
							delta += termCost[t.pl]
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
			for _, t := range groups[best].terms {
				use[t.pl] += d
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
	vals := make([]big.Int, len(lo)+len(mp.Derived))
	for i, n := range lo {
		vals[i].SetUint64(n)
		if hi != nil && hi[i] != 0 {
			var h big.Int
			vals[i].Or(&vals[i], h.Lsh(h.SetUint64(hi[i]), 64))
		}
	}
	var tmp, coef big.Int
	// eval sets acc to r's value, or to zero and reports false when that
	// would be negative.
	eval := func(r *Recovery, acc *big.Int) bool {
		acc.SetInt64(0)
		for _, t := range r.Terms {
			acc.Add(acc, tmp.Mul(&vals[t.Exec], coef.SetInt64(t.Coef)))
		}
		if acc.Sign() < 0 {
			acc.SetInt64(0)
			return false // truncated run: no complete count to report
		}
		acc.Quo(acc, coef.SetInt64(r.Div))
		return true
	}
	for k := range mp.Derived {
		eval(&mp.Derived[k], &vals[len(lo)+k])
	}
	out := make([]uint64, len(mp.Recov))
	var acc big.Int
	for i := range mp.Recov {
		r := &mp.Recov[i]
		if r.Direct >= 0 {
			out[i] = lo[r.Direct]
			continue
		}
		if !eval(r, &acc) {
			continue
		}
		if acc.IsUint64() {
			out[i] = acc.Uint64()
		} else {
			out[i] = ^uint64(0)
		}
	}
	return out
}
