package plan

import (
	"slices"
	"sync"
	"testing"

	"peregrine/internal/pattern"
)

func TestMorphableGates(t *testing.T) {
	cases := []struct {
		name string
		pat  *pattern.Pattern
		want bool
	}{
		{"no anti-edges", pattern.Clique(3), false},
		{"vi wedge", pattern.MustParse("0-1 1-2 0!2"), true},
		{"full vi 5-chain", pattern.VertexInduced(pattern.Chain(5)), true},
		{"at vertex-gate boundary", pattern.VertexInduced(pattern.Chain(MorphMaxVertices)), false},
		{"within vertex gate", pattern.MustParse("0-1 1-2 2-3 3-4 4-5 5-6 0!6"), true},
		{"anti-vertex", pattern.MustParse("0-1 1-2 2-0 0!3 1!3"), false},
	}
	// The 7-chain's full vertex-induced form carries C(7,2)-6 = 15
	// anti-edges, past MorphMaxAntiEdges; the sparse 7-vertex cycle-ish
	// shape above stays under both gates.
	for _, tc := range cases {
		if got := Morphable(tc.pat); got != tc.want {
			t.Errorf("%s: Morphable(%v) = %v, want %v", tc.name, tc.pat, got, tc.want)
		}
	}
	if p := pattern.VertexInduced(pattern.Chain(8)); Morphable(p) {
		t.Errorf("8-vertex pattern %v must not be morphable", p)
	}
}

// The vertex-induced wedge is the classic morphing example: its two
// expansion classes are the edge-induced wedge (+) and the triangle
// (-), and folding automorphism counts gives
//
//	count(vi-wedge) = (2·count(wedge) − 6·count(triangle)) / 2.
func TestMorphTermsWedge(t *testing.T) {
	vi := pattern.MustParse("0-1 1-2 0!2")
	terms, div := MorphTerms(vi)
	if div != 2 {
		t.Fatalf("div = %d, want |Aut(vi-wedge)| = 2", div)
	}
	if len(terms) != 2 {
		t.Fatalf("terms = %d, want 2 classes (wedge, triangle)", len(terms))
	}
	byCode := make(map[string]int64)
	for _, tm := range terms {
		if tm.Pat.NumAntiEdges() != 0 {
			t.Errorf("term %v still has anti-edges", tm.Pat)
		}
		byCode[tm.Pat.CanonicalCode()] = tm.Coef
	}
	if c := byCode[pattern.Chain(3).CanonicalCode()]; c != 2 {
		t.Errorf("wedge coefficient = %d, want +2 (|Aut| = 2)", c)
	}
	if c := byCode[pattern.Clique(3).CanonicalCode()]; c != -6 {
		t.Errorf("triangle coefficient = %d, want -6 (|Aut| = 6)", c)
	}
}

// Structural invariants of every expansion term, over every full
// vertex-induced form of the 4-vertex motifs: terms are connected,
// anti-edge-free, same order as the original, and each coefficient is
// a multiple of its class's automorphism count (the folded |Aut|).
func TestMorphTermsWellFormed(t *testing.T) {
	for _, skel := range pattern.GenerateAllVertexInduced(4) {
		p := pattern.VertexInduced(skel)
		if p.NumAntiEdges() == 0 {
			continue // the clique's vertex-induced form has nothing to morph
		}
		terms, div := MorphTerms(p)
		if div != int64(len(p.Automorphisms())) {
			t.Errorf("%v: div = %d, want |Aut| = %d", p, div, len(p.Automorphisms()))
		}
		if len(terms) == 0 {
			t.Errorf("%v: no expansion terms", p)
		}
		for _, tm := range terms {
			if tm.Pat.N() != p.N() {
				t.Errorf("%v: term %v changed order", p, tm.Pat)
			}
			if tm.Pat.NumAntiEdges() != 0 {
				t.Errorf("%v: term %v keeps anti-edges", p, tm.Pat)
			}
			if !tm.Pat.ConnectedRegular() {
				t.Errorf("%v: term %v is disconnected", p, tm.Pat)
			}
			if err := tm.Pat.Validate(); err != nil {
				t.Errorf("%v: term %v invalid: %v", p, tm.Pat, err)
			}
			aut := int64(len(tm.Pat.Automorphisms()))
			if tm.Coef%aut != 0 {
				t.Errorf("%v: term %v coef %d not a multiple of |Aut| = %d",
					p, tm.Pat, tm.Coef, aut)
			}
		}
	}
}

// Anti-edges inflate the pattern core, so a vertex-induced pattern's
// plan must cost more under the model than its edge-induced skeleton's,
// on every shape the decision table below uses.
func TestCostOfAntiEdgesDominate(t *testing.T) {
	for _, s := range []Shape{{}, erShape4096, erShape512, micoShape} {
		for _, skel := range []*pattern.Pattern{pattern.Chain(4), pattern.Star(4), pattern.Cycle(5)} {
			direct := mustPlan(t, skel)
			vi := mustPlan(t, pattern.VertexInduced(skel))
			if CostOf(vi, s) <= CostOf(direct, s) {
				t.Errorf("%+v, %v: vertex-induced cost %.1f <= edge-induced cost %.1f",
					s, skel, CostOf(vi, s), CostOf(direct, s))
			}
		}
	}
}

// The shapes of the graphs the decisions below were measured on
// (graph.DegreeMoments, seed 1): coord_sharded's and motif_batch's
// Erdős–Rényi graphs, and the mico stand-in of cmd/tables (RMAT).
var (
	erShape4096 = Shape{Vertices: 4096, MeanDeg: 9.9873, MeanSqDeg: 109.8667}
	erShape512  = Shape{Vertices: 512, MeanDeg: 9.9102, MeanSqDeg: 107.3125}
	micoShape   = Shape{Vertices: 1024, MeanDeg: 12.7031, MeanSqDeg: 893.3066}
)

// morphed reports, per pattern of the vertex-induced batch pats, whether
// MorphBatch replaces it when pricing for s.
func morphed(t *testing.T, pats []*pattern.Pattern, s Shape) []bool {
	t.Helper()
	cache := NewCache()
	pls := make([]*Plan, len(pats))
	for i, p := range pats {
		c, err := cache.Get(pattern.VertexInduced(p), Options{})
		if err != nil {
			t.Fatal(err)
		}
		pls[i] = c.Plan
	}
	out := make([]bool, len(pats))
	if mp := MorphBatch(pls, cache, Options{Shape: s}); mp != nil {
		for i, j := range mp.Out {
			out[i] = j >= len(mp.Exec)
		}
	}
	return out
}

// The cost model's decisions where they were measured. Each row was
// timed by running every morph/direct assignment of its batch with
// core.RunPlans, one thread, on a 2-vCPU x86-64 box; the row pins the
// fastest assignment. coord_sharded's rows hold for the zero Shape —
// what its coordinator prices, having no graph — and for its graph's.
func TestMorphDecisions(t *testing.T) {
	path := pattern.Chain(4)
	tailed := pattern.MustParse("0-1 1-2 2-0 2-3")
	diamond := pattern.MustParse("0-1 1-2 2-3 3-0 0-2")
	clique := pattern.Clique(4)
	p1 := diamond
	p5 := pattern.MustParse("0-1 1-2 2-0 2-3 3-4 4-2")
	p6 := pattern.Clique(5)
	p6.RemoveEdge(3, 4)
	motifs := append(pattern.GenerateAllVertexInduced(4), pattern.GenerateAllVertexInduced(5)...)
	withAnti := make([]bool, len(motifs))
	for i, p := range motifs {
		withAnti[i] = Morphable(pattern.VertexInduced(p))
	}
	for _, tc := range []struct {
		name   string
		shapes []Shape
		pats   []*pattern.Pattern
		want   []bool
	}{
		// ER 4096/20480: beside the 4-clique the 4-path costs 38.9 ms
		// morphed and 143.0 ms direct, beside the tailed triangle 39.1 ms
		// with both morphed and 130.5 ms with both direct; the parent model
		// ran both pairs direct.
		{"coord path, 4-clique", []Shape{{}, erShape4096}, []*pattern.Pattern{path, clique}, []bool{true, false}},
		{"coord path, tailed triangle", []Shape{{}, erShape4096}, []*pattern.Pattern{path, tailed}, []bool{true, true}},
		// ER 4096/20480: 2.7 ms direct, 11.6 ms with both morphed.
		{"coord tailed triangle, diamond", []Shape{{}, erShape4096}, []*pattern.Pattern{tailed, diamond}, []bool{false, false}},
		// ER 4096/20480: 2.6 ms direct, 11.7 ms morphed.
		{"coord tailed triangle, 4-clique", []Shape{{}, erShape4096}, []*pattern.Pattern{tailed, clique}, []bool{false, false}},
		// mico stand-in, Table 4 (vertex-induced p1, p5, p6): 71.7 → 11.3,
		// 1305 → 700 and 238.6 → 52.1 ms morphed.
		{"mico p1", []Shape{micoShape}, []*pattern.Pattern{p1}, []bool{true}},
		{"mico p5", []Shape{micoShape}, []*pattern.Pattern{p5}, []bool{true}},
		{"mico p6", []Shape{micoShape}, []*pattern.Pattern{p6}, []bool{true}},
		// motif_batch, ER 512/2560: the parent model replaced all 25 motifs
		// with anti-edges, which runs 27 relatives; that set stays.
		{"motif_batch", []Shape{erShape512}, motifs, withAnti},
	} {
		for _, s := range tc.shapes {
			if got := morphed(t, tc.pats, s); !slices.Equal(got, tc.want) {
				t.Errorf("%s on %+v: morphed %v, want %v", tc.name, s, got, tc.want)
			}
		}
	}
}

// Every coordinator plans for the zero Shape. The decision is not an
// artefact of its particular figures: sparse Poisson graphs of 4096 to
// 2²⁰ vertices at mean degree 8–10 decide every pair of vertex-induced
// 4-motifs as it does.
func TestMorphDefaultShapeStable(t *testing.T) {
	motifs := pattern.GenerateAllVertexInduced(4)
	for i := range motifs {
		for j := i + 1; j < len(motifs); j++ {
			pair := []*pattern.Pattern{motifs[i], motifs[j]}
			want := morphed(t, pair, Shape{})
			for _, v := range []uint32{4096, 1 << 16, 1 << 20} {
				for _, m1 := range []float64{8, 9, 10} {
					s := Shape{Vertices: v, MeanDeg: m1, MeanSqDeg: m1 + m1*m1}
					if got := morphed(t, pair, s); !slices.Equal(got, want) {
						t.Errorf("%v on %+v: morphed %v, the zero Shape %v", pair, s, got, want)
					}
				}
			}
		}
	}
}

// StepsDirect and StepsMorphed are the share tries' ProgramSteps, summed
// over matching orders without building either trie.
func TestMorphStepsAreTrieProgramSteps(t *testing.T) {
	for _, sizes := range [][]int{{4}, {5}, {4, 5}} {
		cache := NewCache()
		var pls []*Plan
		for _, k := range sizes {
			for _, skel := range pattern.GenerateAllVertexInduced(k) {
				c, err := cache.Get(pattern.VertexInduced(skel), Options{})
				if err != nil {
					t.Fatal(err)
				}
				pls = append(pls, c.Plan)
			}
		}
		pls = append(pls, pls[0]) // a duplicate counts twice, as in the trie
		mp := MorphBatch(pls, cache, Options{})
		if mp == nil {
			t.Fatalf("%v-motifs did not morph", sizes)
		}
		if d, m := BuildShareTrie(pls).ProgramSteps, BuildShareTrie(mp.Exec).ProgramSteps; mp.Stats.StepsDirect != d || mp.Stats.StepsMorphed != m {
			t.Errorf("%v-motifs: steps %d direct, %d morphed; the tries say %d, %d",
				sizes, mp.Stats.StepsDirect, mp.Stats.StepsMorphed, d, m)
		}
	}
}

// A motif batch (every full vertex-induced pattern of one size) is the
// canonical win: the relatives of the different patterns overlap almost
// entirely, so morphing replaces the bulk of the batch. With the 5-motifs
// first, on motif_batch's graph, morph relations read relatives that run
// decomposed, so some relations read others: the program must still put
// each relation after every count it reads.
func TestMorphBatchMotifs(t *testing.T) {
	for _, tc := range []struct {
		sizes []int
		shape Shape
	}{
		{[]int{4}, Shape{}},
		{[]int{5, 4}, motifBatchShape},
	} {
		cache := NewCache()
		var pls []*Plan
		for _, k := range tc.sizes {
			for _, skel := range pattern.GenerateAllVertexInduced(k) {
				c, err := cache.Get(pattern.VertexInduced(skel), Options{})
				if err != nil {
					t.Fatal(err)
				}
				pls = append(pls, c.Plan)
			}
		}
		mp := MorphBatch(pls, cache, Options{Shape: tc.shape})
		if mp == nil {
			t.Fatalf("%v-motif batch did not morph", tc.sizes)
		}
		if !mp.Stats.Active() || mp.Stats.PatternsReplaced == 0 {
			t.Fatalf("%v: stats = %+v, want patterns replaced", tc.sizes, mp.Stats)
		}
		if mp.Stats.StepsMorphed >= mp.Stats.StepsDirect {
			t.Errorf("%v: stepsMorphed = %d, want < stepsDirect = %d",
				tc.sizes, mp.Stats.StepsMorphed, mp.Stats.StepsDirect)
		}
		nested := false
		for k, r := range mp.Rels {
			if len(r.Terms) == 0 || r.Div <= 0 {
				t.Errorf("%v: relation %d malformed: %+v", tc.sizes, k, r)
			}
			for _, tm := range r.Terms {
				if tm.Count < 0 || tm.Count >= len(mp.Exec)+k {
					t.Errorf("%v: relation %d reads count %d, not before it (%d executed)", tc.sizes, k, tm.Count, len(mp.Exec))
				}
				nested = nested || tm.Count >= len(mp.Exec)
			}
		}
		if len(tc.sizes) > 1 && (!nested || mp.Stats.Decomposed == 0) {
			t.Errorf("%v: no relation reads a decomposed relative (%d decomposed)", tc.sizes, mp.Stats.Decomposed)
		}
		if len(mp.Out) != len(pls) {
			t.Fatalf("%v: %d outputs, want one per original = %d", tc.sizes, len(mp.Out), len(pls))
		}
		// Replaced originals' plans disappear from Exec; the others are
		// read where they execute.
		replaced := make(map[*Plan]bool)
		for i, j := range mp.Out {
			switch {
			case j < 0 || j >= len(mp.Exec)+len(mp.Rels):
				t.Errorf("%v: output %d reads count %d of %d", tc.sizes, i, j, len(mp.Exec)+len(mp.Rels))
			case j >= len(mp.Exec):
				replaced[pls[i]] = true
			case mp.Exec[j] != pls[i]:
				t.Errorf("%v: output %d reads executed plan %d, not its own", tc.sizes, i, j)
			}
		}
		for _, pl := range mp.Exec {
			if replaced[pl] {
				t.Errorf("%v: replaced plan %v still in the executed set", tc.sizes, pl.Pat)
			}
		}
	}
}

// A pattern's compiled relation is kept on its cache entry: the first
// MorphBatch through a cache expands and compiles it, later ones — from
// any goroutine, for any numbering of the pattern — read it, and it goes
// when the entry is evicted.
func TestMorphRelationMemo(t *testing.T) {
	cache := NewCache()
	var pls []*Plan
	for _, skel := range pattern.GenerateAllVertexInduced(4) {
		pl, err := New(pattern.VertexInduced(skel), Options{}) // not the cache's own plans
		if err != nil {
			t.Fatal(err)
		}
		pls = append(pls, pl)
	}
	first := MorphBatch(pls, cache, Options{})
	if first == nil {
		t.Fatal("motif batch did not morph")
	}
	size := cache.Len()
	hits0, misses0 := cache.Stats()

	// Warm: one lookup per morphable pattern and none per relative, no
	// compilation, the same executed plans.
	morphable := uint64(0)
	for _, pl := range pls {
		if Morphable(pl.Pat) {
			morphable++
		}
	}
	var wg sync.WaitGroup
	const callers = 8
	got := make([]*MorphPlan, callers)
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = MorphBatch(pls, cache, Options{})
		}()
	}
	wg.Wait()
	for i, mp := range got {
		if mp == nil || len(mp.Exec) != len(first.Exec) {
			t.Fatalf("caller %d: executed set differs from the first run's", i)
		}
		for j := range mp.Exec {
			if mp.Exec[j] != first.Exec[j] {
				t.Fatalf("caller %d: executed plan %d is not the first run's pointer", i, j)
			}
		}
	}
	hits1, misses1 := cache.Stats()
	if misses1 != misses0 || hits1-hits0 != callers*morphable || cache.Len() != size {
		t.Fatalf("warm batches moved the cache by %d hits, %d misses, %d entries; want %d, 0, 0",
			hits1-hits0, misses1-misses0, cache.Len()-size, callers*morphable)
	}

	// A plan of a renumbered pattern reads the same relation, and so does
	// the cache's own plan, found with no lookup of its pattern.
	vi := pattern.VertexInduced(pattern.Chain(4))
	foreign := func(p *pattern.Pattern) *Plan {
		pl, err := New(p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return pl
	}
	a, b := cache.relations(foreign(vi), Options{}), cache.relations(foreign(vi.Renumber([]int{2, 0, 3, 1})), Options{})
	if len(a) != 1 || len(b) != 1 || a[0] != b[0] {
		t.Fatalf("relations of two numberings of %v: %p and %p", vi, a, b)
	}
	own, err := cache.Get(vi, Options{})
	if err != nil {
		t.Fatal(err)
	}
	hits2, misses2 := cache.Stats()
	if c := cache.relations(own.Plan, Options{}); len(c) != 1 || c[0] != a[0] {
		t.Fatalf("relations of the cache's own plan of %v: %p, want %p", vi, c, a)
	}
	if hits3, misses3 := cache.Stats(); hits3 != hits2+1 || misses3 != misses2 {
		t.Fatalf("reading an owned plan's relations moved the cache by %d hits, %d misses; want 1, 0", hits3-hits2, misses3-misses2)
	}

	// Evicting the entry drops its relation with it.
	small := NewCacheSize(1)
	r1 := small.relations(foreign(vi), Options{}) // compiling its relatives evicts vi's own entry
	r2 := small.relations(foreign(vi), Options{})
	if len(r1) != 1 || len(r2) != 1 || r1[0] == r2[0] {
		t.Fatalf("relation survived its entry's eviction: %p then %p", r1, r2)
	}
}

// Duplicates of one pattern share a selection group: one recovery
// relation each, but no duplicate executed plans.
func TestMorphBatchDuplicates(t *testing.T) {
	cache := NewCache()
	c, err := cache.Get(pattern.MustParse("0-1 1-2 0!2"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	tri, err := cache.Get(pattern.Clique(3), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The fixed triangle makes the wedge's triangle relative free, so the
	// cost model always prefers morphing here.
	mp := MorphBatch([]*Plan{c.Plan, tri.Plan, c.Plan}, cache, Options{})
	if mp == nil {
		t.Fatal("wedge+triangle batch did not morph")
	}
	if mp.Out[0] < len(mp.Exec) || mp.Out[2] < len(mp.Exec) {
		t.Fatalf("duplicate vi-wedges not both morphed: %+v", mp.Out)
	}
	if mp.Out[1] >= len(mp.Exec) {
		t.Errorf("anti-edge-free triangle was morphed")
	}
	seen := make(map[*Plan]bool)
	for _, pl := range mp.Exec {
		if seen[pl] {
			t.Errorf("executed set holds %v twice", pl.Pat)
		}
		seen[pl] = true
	}
}

// Morphing is gated off entirely for unordered (no symmetry breaking)
// batches: those counts are per-automorphism enumerations and the
// folded |Aut| weights do not apply.
func TestMorphBatchNoSymmetryBreaking(t *testing.T) {
	cache := NewCache()
	opt := Options{NoSymmetryBreaking: true}
	c, err := cache.Get(pattern.MustParse("0-1 1-2 0!2"), opt)
	if err != nil {
		t.Fatal(err)
	}
	if mp := MorphBatch([]*Plan{c.Plan}, cache, opt); mp != nil {
		t.Fatalf("unordered batch morphed: %+v", mp.Stats)
	}
}

// A batch with nothing morphable runs as given.
func TestMorphBatchNothingMorphable(t *testing.T) {
	cache := NewCache()
	var pls []*Plan
	for _, p := range []*pattern.Pattern{pattern.Clique(3), pattern.Chain(4)} {
		c, err := cache.Get(p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		pls = append(pls, c.Plan)
	}
	if mp := MorphBatch(pls, cache, Options{}); mp != nil {
		t.Fatalf("anti-edge-free batch morphed: %+v", mp.Stats)
	}
}

// Recover evaluates the linear relations exactly: the vi-wedge relation
// (2·wedges − 6·triangles)/2 on hand counts, pass-through for executed
// counts, and clamping (not wrapping) when a truncated run drives a
// relation negative.
func TestRecoverArithmetic(t *testing.T) {
	mp := &MorphPlan{
		Exec: make([]*Plan, 2),
		Rels: []Recovery{{Terms: []RecoveryTerm{{Count: 0, Coef: 2}, {Count: 1, Coef: -6}}, Div: 2}},
		Out:  []int{2, 1},
	}
	got := mp.Recover([]uint64{10, 2})
	if got[0] != 4 {
		t.Errorf("recovered = %d, want (2·10 - 6·2)/2 = 4", got[0])
	}
	if got[1] != 2 {
		t.Errorf("direct row = %d, want pass-through 2", got[1])
	}
	// Truncated-run shape: more triangles counted than the wedge run saw.
	if got := mp.Recover([]uint64{1, 5}); got[0] != 0 {
		t.Errorf("negative relation = %d, want clamped 0", got[0])
	}
}

// A coordinator ships a rewritten batch's executed set to its nodes as
// pattern text, and a node compiles text like any client's: every morph
// relative of every vertex-induced pattern of up to 5 vertices, labeled
// and not — and the pattern itself, which executes when the cost model
// leaves it direct — must survive String → Parse as the same pattern
// and pass the node's admission checks.
func TestMorphRelativesRoundTripAsText(t *testing.T) {
	for size := 2; size <= 5; size++ {
		for _, skel := range pattern.GenerateAllVertexInduced(size) {
			labeled := skel.Clone()
			labeled.SetLabel(0, 0)
			labeled.SetLabel(size-1, 1)
			full := skel.Clone()
			for v := 0; v < size; v++ {
				full.SetLabel(v, pattern.Label(v%3))
			}
			for _, variant := range []*pattern.Pattern{skel, labeled, full} {
				vip := pattern.VertexInduced(variant)
				sent := []*pattern.Pattern{vip}
				terms, _ := MorphTerms(vip)
				if vip.NumAntiEdges() > 0 && len(terms) == 0 {
					t.Fatalf("%v has no morph relatives", vip)
				}
				for _, tm := range terms {
					sent = append(sent, tm.Pat)
				}
				for _, p := range sent {
					text := p.String()
					back, err := pattern.Parse(text)
					if err != nil {
						t.Fatalf("relative %q of %v does not parse: %v", text, vip, err)
					}
					if !back.Equal(p) || back.CanonicalCode() != p.CanonicalCode() {
						t.Errorf("relative %q of %v parses to %v", text, vip, back)
					}
					if err := back.Validate(); err != nil || !back.ConnectedRegular() {
						t.Errorf("a node would refuse relative %q of %v: valid %v, connected %v", text, vip, err, back.ConnectedRegular())
					}
				}
			}
		}
	}
}
