package plan

import (
	"fmt"
	"math/big"
	"slices"
	"testing"

	"peregrine/internal/gen"
	"peregrine/internal/graph"
	"peregrine/internal/pattern"
	"peregrine/internal/ref"
)

// sevenVertexCuts are the 7-vertex spiders and double stars, which have
// cuts of one or two vertices leaving components of at most two
// (cutMaxVertices is 7).
var sevenVertexCuts = []string{
	"0-1 1-2 0-3 3-4 0-5 5-6", // spider, legs 2 2 2
	"0-1 1-2 0-3 3-4 0-5 0-6", // spider, legs 2 2 1 1
	"0-1 1-2 0-3 0-4 0-5 0-6", // spider, legs 2 1 1 1 1
	"0-1 0-2 1-3 1-4 1-5 1-6", // double star, leaves 1 and 4
	"0-1 0-2 0-3 1-4 1-5 1-6", // double star, leaves 2 and 3
}

// The shrinkage identity, V = Σ_π |Aut(P/π)|·count(P/π), for every cut of
// every connected pattern of four, five and six vertices that has one, and of
// the 7-vertex spiders and double stars, on an ER and an RMAT graph: V by
// brute force from the cut's definition, the counts from internal/ref. It
// checks the relation Decompositions derives, whatever the engine's walks
// do with it (internal/core checks those).
func TestShrinkageIdentity(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"er":   gen.ErdosRenyi(gen.ERConfig{Vertices: 30, Edges: 70, Seed: 3}),
		"rmat": gen.RMAT(gen.RMATConfig{Vertices: 32, Edges: 80, Seed: 4}),
	}
	pats := slices.Concat(pattern.GenerateAllVertexInduced(4), pattern.GenerateAllVertexInduced(5), pattern.GenerateAllVertexInduced(6))
	sevens := sevenVertexCuts
	if testing.Short() {
		sevens = nil
	}
	for _, text := range sevens {
		p := pattern.MustParse(text)
		if len(Decompositions(p)) == 0 {
			t.Fatalf("%v: no decomposition", p)
		}
		pats = append(pats, p)
	}
	cuts := 0
	for _, p := range pats {
		seen := map[string]bool{}
		for _, d := range Decompositions(p) {
			verts := slices.Clone(d.Plan.Cut.Verts)
			slices.Sort(verts)
			if key := fmt.Sprint(verts); seen[key] {
				continue // the other orientation: the same tuples
			} else {
				seen[key] = true
			}
			cuts++
			for name, g := range graphs {
				want := new(big.Int).SetUint64(uniqueCount(g, p))
				want.Mul(want, big.NewInt(d.Div))
				for _, tm := range d.Terms {
					term := new(big.Int).SetUint64(uniqueCount(g, tm.Pat))
					want.Add(want, term.Mul(term, big.NewInt(tm.Coef)))
				}
				if v := bruteCutTuples(g, p, d.Plan.Cut); v.Cmp(want) != 0 {
					t.Errorf("%s: %v cut at %v: V = %v, relation gives %v", name, p, d.Plan.Cut.Verts, v, want)
				}
			}
		}
	}
	if cuts < 100 {
		t.Fatalf("only %d cuts checked", cuts)
	}
}

// uniqueCount is internal/ref's count of p's unique matches, on p
// respelled breadth-first so that the brute force prunes early.
func uniqueCount(g *graph.Graph, p *pattern.Pattern) uint64 {
	order := []int{0}
	for i := 0; i < len(order); i++ {
		for _, u := range p.Neighbors(order[i]) {
			if !slices.Contains(order, u) {
				order = append(order, u)
			}
		}
	}
	perm := make([]int, p.N())
	for i, v := range order {
		perm[v] = i
	}
	return ref.CountUnique(g, p.Renumber(perm))
}

// bruteCutTuples counts, by enumeration, the tuples ct's decomposed plan
// counts: maps of p's vertices into g sending edges to edges, injective on
// the cut plus any one component.
func bruteCutTuples(g *graph.Graph, p *pattern.Pattern, ct *Cut) *big.Int {
	group := make([]int, p.N()) // -1 for a cut vertex, else the component
	for v := range group {
		group[v] = -1
	}
	for ci, cc := range ct.Comps {
		for _, v := range cc.V {
			group[v] = ci
		}
	}
	order := []int{ct.Verts[0]}
	for i := 0; i < len(order); i++ {
		for _, u := range p.Neighbors(order[i]) {
			if !slices.Contains(order, u) {
				order = append(order, u)
			}
		}
	}
	f := make([]uint32, p.N())
	n := new(big.Int)
	one := big.NewInt(1)
	var place func(i int)
	place = func(i int) {
		if i == len(order) {
			n.Add(n, one)
			return
		}
		v := order[i]
	candidates:
		for x := range g.NumVertices() {
			for _, w := range order[:i] {
				if p.HasEdge(v, w) && !g.HasEdge(x, f[w]) {
					continue candidates
				}
				if f[w] == x && (group[v] < 0 || group[w] < 0 || group[v] == group[w]) {
					continue candidates
				}
			}
			f[v] = x
			place(i + 1)
		}
	}
	place(0)
	return n
}

// Which cuts the patterns the decomposition exists for get, and their
// relations: P5 at its middle vertex, two 2-vertex paths; the 5-cycle at
// two non-adjacent vertices, with the paw as its only shrinkage, and at a
// vertex, a neighbour and the vertex opposite their edge; the 6-cycle at
// opposite vertices, or three; the wheel W4 only at three, its hub and
// two opposite rim vertices, task vertex the hub or a rim vertex, with the
// diamond as its shrinkage; the 4-cycle at a diagonal, with the wedge as
// its shrinkage; every 4-vertex pattern but the clique. Patterns outside
// the gates have none. And which two-vertex cuts halve (Cut.Half).
func TestDecompositionsShapes(t *testing.T) {
	code := func(text string) string { return pattern.MustParse(text).CanonicalCode() }
	relation := func(d Decomposition) map[string]int64 {
		out := map[string]int64{}
		for _, tm := range d.Terms {
			out[tm.Pat.CanonicalCode()] += tm.Coef
		}
		return out
	}
	p5 := Decompositions(pattern.MustParse("0-1 1-2 2-3 3-4"))
	if len(p5) == 0 || len(p5[0].Plan.Cut.Verts) != 1 || p5[0].Plan.Cut.Verts[0] != 2 {
		t.Fatalf("P5's first decomposition is not its middle vertex: %+v", p5)
	}
	wantP5 := map[string]int64{
		code("0-1 0-2 0-3"): 6, code("0-1 1-2 2-3 3-0"): 8, code("0-1 1-2 2-0 0-3"): 4,
		code("0-1 1-2"): 2, code("0-1 1-2 2-0"): 6,
	}
	if got := relation(p5[0]); p5[0].Div != 2 || !equalMaps(got, wantP5) {
		t.Errorf("P5: div %d, terms %v; want 2, %v", p5[0].Div, got, wantP5)
	}
	paw := code("0-1 1-2 2-0 0-3")
	c5 := Decompositions(pattern.Cycle(5))
	if len(c5) != 2 || len(c5[0].Plan.Cut.Verts) != 2 || len(c5[1].Plan.Cut.Verts) != 3 {
		t.Errorf("C5 has %d decompositions, want two: its rotations and reflections map each non-adjacent pair, either way round, onto any other, and each vertex, its neighbour and the vertex opposite their edge onto any other", len(c5))
	}
	for _, d := range c5 {
		// Two singletons merge one way; a singleton and a pair two ways.
		want := map[string]int64{paw: 4}
		if len(d.Plan.Cut.Verts) == 3 {
			want[paw] = 2
		}
		if !d.Plan.Cut.Scatter() || d.Div != 10 || !equalMaps(relation(d), want) {
			t.Errorf("C5 cut at %v: scatter %v, div %d, terms %v", d.Plan.Cut.Verts, d.Plan.Cut.Scatter(), d.Div, relation(d))
		}
	}
	for _, d := range Decompositions(pattern.Cycle(6)) {
		if v := d.Plan.Cut.Verts; len(v) == 1 || len(v) == 2 && (v[0]-v[1]+6)%6 != 3 {
			t.Errorf("C6 cut at %v, want opposite vertices or three", v)
		}
	}
	w4 := Decompositions(pattern.MustParse("0-1 0-2 0-3 0-4 1-3 1-4 2-3 2-4"))
	if len(w4) != 2 {
		t.Errorf("W4 has %d decompositions, want two: the hub and two opposite rim vertices, task vertex the hub or a rim vertex", len(w4))
	}
	for _, d := range w4 {
		v := d.Plan.Cut.Verts
		hub := slices.Index(v, 0)
		if len(v) != 3 || hub > 1 || !d.Plan.Cut.Walked || !d.Plan.Cut.Scatter() || d.Div != 8 ||
			!equalMaps(relation(d), map[string]int64{code("0-1 0-2 0-3 1-2 1-3"): 4}) {
			t.Errorf("W4 cut at %v: walked %v, scatter %v, div %d, terms %v; want the hub first or second, V = 8·count(W4) + 4·count(diamond)",
				v, d.Plan.Cut.Walked, d.Plan.Cut.Scatter(), d.Div, relation(d))
		}
	}
	c4 := Decompositions(pattern.Cycle(4))
	if len(c4) != 1 || !c4[0].Plan.Cut.Scatter() || c4[0].Div != 8 || !equalMaps(relation(c4[0]), map[string]int64{code("0-1 1-2"): 2}) {
		t.Errorf("C4: %+v, want one scatter cut at a diagonal, V = 8·count(C4) + 2·count(wedge)", c4)
	}
	// An inner vertex, or the middle edge, of the 4-path; the degree-3
	// vertex, or an edge from it to a degree-2 or -1 vertex, task vertex
	// either end, of the 3-star and of the tailed triangle; the diamond's
	// middle edge.
	for text, want := range map[string]int{
		"0-1 1-2 2-3": 2, "0-1 0-2 0-3": 3, "0-1 0-2 0-3 1-2": 3,
		"0-1 1-2 2-3 3-0": 1, "0-1 0-2 0-3 1-2 1-3": 1, "0-1 0-2 0-3 1-2 1-3 2-3": 0,
	} {
		if got := len(Decompositions(pattern.MustParse(text))); got != want {
			t.Errorf("%s has %d decompositions, want %d", text, got, want)
		}
	}
	// A two-vertex cut halves where an automorphism swaps its vertices:
	// the 4-cycle at a diagonal, the 5-cycle at two non-adjacent vertices,
	// K2,3 at its pair, all scattered, and the 4-path at its middle edge,
	// walked. W4's three-vertex cut and the tailed triangle's one-vertex
	// cut do not, nor does 0-3 0-4 1-2 1-4 2-3 3-4 at [3 1], where 3 has
	// degree 3 and 1 degree 2. Exactly a halved scatter's levels binding
	// the scattered vertex keep only candidates above the task's.
	for _, tc := range []struct {
		text  string
		verts []int
		half  bool
	}{
		{"0-1 1-2 2-3 3-0", []int{0, 2}, true},
		{"0-1 1-2 2-3 3-4 4-0", []int{0, 2}, true},
		{"0-2 0-3 0-4 1-2 1-3 1-4", []int{0, 1}, true},
		{"0-1 1-2 2-3", []int{1, 2}, true},
		{"0-1 0-2 0-3 0-4 1-3 1-4 2-3 2-4", []int{0, 1, 2}, false},
		{"0-1 0-2 1-2 0-3", []int{0}, false},
		{"0-3 0-4 1-2 1-4 2-3 3-4", []int{3, 1}, false},
	} {
		pl, err := NewCut(pattern.MustParse(tc.text), tc.verts)
		if err != nil {
			t.Fatal(err)
		}
		ct := pl.Cut
		if ct.Half != tc.half {
			t.Errorf("%s cut at %v: half %v, want %v", tc.text, tc.verts, ct.Half, tc.half)
		}
		for _, cc := range ct.Comps {
			for _, lv := range cc.Levels {
				if lv.Above != (ct.Half && lv.Slot == SlotScatter) {
					t.Errorf("%s cut at %v: the level binding slot %d has Above %v", tc.text, tc.verts, lv.Slot, lv.Above)
				}
			}
		}
	}
	labeled := pattern.Chain(5)
	labeled.SetLabel(0, 1)
	for _, p := range []*pattern.Pattern{pattern.Chain(3), pattern.Clique(3), pattern.Clique(5), labeled,
		pattern.VertexInduced(pattern.Chain(5)), pattern.Chain(cutMaxVertices + 1)} {
		if ds := Decompositions(p); ds != nil {
			t.Errorf("%v has %d decompositions, want none", p, len(ds))
		}
	}
}

func equalMaps(a, b map[string]int64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// The engine's tally of V is 128 bits, so a shape decomposes a pattern of
// n vertices only where |V|·maxDeg^(n−1) fits; a shape without MaxDeg —
// a planner with no graph — never does.
func TestCutFits(t *testing.T) {
	for _, tc := range []struct {
		n    int
		s    Shape
		want bool
	}{
		{5, Shape{}, false},
		{5, Shape{Vertices: 512, MaxDeg: 0}, false},
		{5, Shape{Vertices: 512, MaxDeg: 100}, true},
		{6, Shape{Vertices: 1 << 20, MaxDeg: 1 << 20}, true},     // 2^120
		{7, Shape{Vertices: 1 << 20, MaxDeg: 1 << 20}, false},    // 2^140
		{5, Shape{Vertices: 1<<32 - 1, MaxDeg: 1 << 24}, true},   // 2^128 less a little
		{4, Shape{Vertices: 1<<32 - 1, MaxDeg: 1<<32 - 1}, true}, // (2^32 − 1)^4: every 4-vertex V fits
		{5, Shape{Vertices: 1<<32 - 1, MaxDeg: 1<<32 - 1}, false},
	} {
		if got := CutFits(tc.n, tc.s); got != tc.want {
			t.Errorf("CutFits(%d, %+v) = %v, want %v", tc.n, tc.s, got, tc.want)
		}
	}
}

// motifBatchShape is motif_batch's ER 512/2560 graph (seed 1), with the
// largest degree that admits decomposition.
var motifBatchShape = Shape{Vertices: 512, MeanDeg: 9.9102, MeanSqDeg: 107.3125, MaxDeg: 20}

// motifRelatives returns the plans motif_batch executes after morphing:
// every connected edge-induced pattern of four and five vertices.
func motifRelatives(t *testing.T, cache *Cache) []*Plan {
	t.Helper()
	var pls []*Plan
	for _, k := range []int{4, 5} {
		for _, p := range pattern.GenerateAllVertexInduced(k) {
			c, err := cache.Get(p, Options{})
			if err != nil {
				t.Fatal(err)
			}
			pls = append(pls, c.Plan)
		}
	}
	return pls
}

// The decompositions the rewrite chooses for motif_batch's executed set,
// pinned without timing, in the canonical spellings the cache compiles.
// Each was timed with core.RunPlans on the workload's graph, one thread,
// best of five rounds of best of 9 on a 2-vCPU x86-64 box: direct against
// the chosen cut, in ms. The 5-cycle and P5 are the two the decomposition
// was built for; the shrinkage patterns the set lacks, the wedge and the
// triangle, join it. The last two rows joined when the cache began to
// compile canonical spellings: spelled so, their direct plans run ten
// times as long as in the spellings the batch is generated in, which ran
// direct faster than either cut does.
func TestDecomposeDecisions(t *testing.T) {
	cache := NewCache()
	pls := motifRelatives(t, cache)
	mp := MorphBatch(pls, cache, Options{Shape: motifBatchShape})
	if mp == nil {
		t.Fatal("motif_batch's relatives were not rewritten")
	}
	var got []string
	for i, j := range mp.Out {
		if j >= len(mp.Exec) {
			got = append(got, pls[i].Pat.String())
		}
	}
	want := []string{
		"0-3 0-4 1-2 1-4 2-3",             // C5: 17.4 → 3.2
		"0-4 1-3 2-3 2-4",                 // P5: 9.7 → 0.06
		"0-4 1-4 2-3 3-4",                 // 1.69 → 0.08
		"0-4 1-3 2-3 2-4 3-4",             // 0.45 → 0.31
		"0-4 1-4 2-3 2-4 3-4",             // 0.51 → 0.31
		"0-4 1-3 1-4 2-3 2-4",             // 5.4 → 1.2
		"0-3 0-4 1-3 1-4 2-3 2-4",         // 3.3 → 0.5
		"0-4 1-2 1-3 2-3 3-4",             // 5.9 → 0.3
		"0-3 0-4 1-2 1-4 2-4 3-4",         // 2.3 → 0.3
		"0-3 0-4 1-2 1-4 2-3 3-4",         // 6.1 → 0.6
		"0-3 0-4 1-2 1-3 1-4 2-3 2-4",     // 2.8 → 0.7
		"0-2 0-3 0-4 1-2 1-3 1-4 2-4 3-4", // W4 at {hub, rim, opposite rim}: 3.8 → 0.4
		"0-2 0-3 1-2 1-3",                 // C4: 2.48 → 0.46
		"0-3 1-2 2-3",                     // P4: 0.76 → 0.07
		"0-3 1-2 1-3 2-3",                 // tailed triangle: 0.50 → 0.29
		"0-4 1-2 1-3 2-3 2-4 3-4",         // 3.32 → 0.43; direct as 0-1 0-2 0-4 1-2 1-3 2-3: 0.31
		"0-3 0-4 1-2 1-4 2-3 2-4 3-4",     // 3.03 → 0.46; direct as 0-1 0-2 0-3 0-4 1-2 1-4 2-3: 0.26
	}
	slices.Sort(got)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Errorf("decomposed %q\nwant %q", got, want)
	}
	if mp.Stats.Decomposed != uint64(len(want)) || mp.Stats.PatternsReplaced != uint64(len(want)) {
		t.Errorf("stats %+v, want %d decomposed and replaced", mp.Stats, len(want))
	}
	var added []string
	for _, pl := range mp.Exec {
		if pl.Cut == nil && slices.Contains(want, pl.Pat.String()) {
			t.Errorf("%v still executes directly", pl.Pat)
		}
		if pl.Cut == nil && !slices.Contains(pls, pl) {
			added = append(added, pl.Pat.String())
		}
	}
	if len(added) != 2 {
		t.Errorf("shrinkage patterns added: %q, want the wedge and the triangle", added)
	}
	// The same batch priced for no graph, or compiled without symmetry
	// breaking, never decomposes.
	if mp := MorphBatch(pls, cache, Options{}); mp != nil {
		t.Errorf("zero Shape rewrote an edge-induced batch: %+v", mp.Stats)
	}
	if mp := MorphBatch(pls, cache, Options{Shape: motifBatchShape, NoSymmetryBreaking: true}); mp != nil {
		t.Errorf("NoSymmetryBreaking batch was rewritten: %+v", mp.Stats)
	}
	// Where the largest degree could overflow V's 128 bits, plans run
	// direct: every 5-vertex plan at the largest Shape. A 4-vertex V fits
	// in 128 bits at any Shape (TestCutFits), so the 4-vertex plans still
	// decompose.
	wide := motifBatchShape
	wide.Vertices, wide.MaxDeg = 1<<32-1, 1<<32-1
	if mp := MorphBatch(pls, cache, Options{Shape: wide}); mp == nil || mp.Stats.Decomposed == 0 {
		t.Errorf("no 4-vertex plan decomposed at the largest Shape: %+v", mp)
	} else {
		for _, pl := range mp.Exec {
			if pl.Cut != nil && pl.Pat.N() > 4 {
				t.Errorf("%v decomposed on a graph whose degrees could overflow its V", pl.Pat)
			}
		}
	}
}

// Relations are evaluated from 128-bit executed counts: a decomposed
// plan's V passes 64 bits here while every count stays below.
func TestRecoverWide(t *testing.T) {
	// Exec: [V of P (2^64 + 40), count(q) = 10]; Rels[0] = count(P) =
	// (V − 4·count(q)) / 2^32, read by the first position.
	mp := &MorphPlan{
		Exec: make([]*Plan, 2),
		Rels: []Recovery{{Div: 1 << 32, Terms: []RecoveryTerm{{Count: 0, Coef: 1}, {Count: 1, Coef: -4}}}},
		Out:  []int{2, 1},
	}
	got := mp.RecoverWide([]uint64{40, 10}, []uint64{1, 0})
	if want := []uint64{1 << 32, 10}; !slices.Equal(got, want) {
		t.Errorf("RecoverWide = %v, want %v", got, want)
	}
	// Without the high word the relation is negative: clamped, not wrapped.
	if got := mp.Recover([]uint64{40, 10}); got[0] != 0 {
		t.Errorf("truncated V recovered %d, want 0", got[0])
	}
}
