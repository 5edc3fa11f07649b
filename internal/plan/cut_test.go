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

// The shrinkage identity, V = Σ_π |Aut(P/π)|·count(P/π), for every cut of
// every connected pattern of five and six vertices that has one, on an
// ER and an RMAT graph: V by brute force from the cut's definition, the
// counts from internal/ref. It checks the relation Decompositions derives,
// whatever the engine's walks do with it (internal/core checks those).
func TestShrinkageIdentity(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"er":   gen.ErdosRenyi(gen.ERConfig{Vertices: 30, Edges: 70, Seed: 3}),
		"rmat": gen.RMAT(gen.RMATConfig{Vertices: 32, Edges: 80, Seed: 4}),
	}
	cuts := 0
	for _, size := range []int{5, 6} {
		for _, p := range pattern.GenerateAllVertexInduced(size) {
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
// two non-adjacent vertices, with the paw as its only shrinkage; the
// 6-cycle at opposite vertices. Patterns outside the gates have none.
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
	c5 := Decompositions(pattern.Cycle(5))
	if len(c5) != 1 {
		t.Errorf("C5 has %d decompositions, want one: its rotations and reflections map each non-adjacent pair, either way round, onto any other", len(c5))
	}
	for _, d := range c5 {
		if !d.Plan.Cut.Scatter() || d.Div != 10 || !equalMaps(relation(d), map[string]int64{code("0-1 1-2 2-0 0-3"): 4}) {
			t.Errorf("C5 cut at %v: scatter %v, div %d, terms %v", d.Plan.Cut.Verts, d.Plan.Cut.Scatter(), d.Div, relation(d))
		}
	}
	for _, d := range Decompositions(pattern.Cycle(6)) {
		if v := d.Plan.Cut.Verts; len(v) != 2 || (v[0]-v[1]+6)%6 != 3 {
			t.Errorf("C6 cut at %v, want opposite vertices", v)
		}
	}
	labeled := pattern.Chain(5)
	labeled.SetLabel(0, 1)
	for _, p := range []*pattern.Pattern{pattern.Chain(4), pattern.Clique(5), labeled,
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
		{6, Shape{Vertices: 1 << 20, MaxDeg: 1 << 20}, true},   // 2^120
		{7, Shape{Vertices: 1 << 20, MaxDeg: 1 << 20}, false},  // 2^140
		{5, Shape{Vertices: 1<<32 - 1, MaxDeg: 1 << 24}, true}, // 2^128 less a little
	} {
		if got := cutFits(tc.n, tc.s); got != tc.want {
			t.Errorf("cutFits(%d, %+v) = %v, want %v", tc.n, tc.s, got, tc.want)
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
// pinned without timing. Each was timed with core.RunPlans on the
// workload's graph, one thread, best of 9 on a 2-vCPU x86-64 box: direct
// against the chosen cut, in ms. The 5-cycle and P5 are the two the
// decomposition was built for; the shrinkage patterns the set lacks, the
// wedge and the triangle, join it. Together the set went 59.2 → 23.3 ms.
func TestDecomposeDecisions(t *testing.T) {
	cache := NewCache()
	pls := motifRelatives(t, cache)
	mp := MorphBatch(pls, cache, Options{Shape: motifBatchShape})
	if mp == nil {
		t.Fatal("motif_batch's relatives were not rewritten")
	}
	var got []string
	for i, r := range mp.Recov {
		if r.Direct < 0 {
			got = append(got, pls[i].Pat.String())
		}
	}
	want := []string{
		"0-3 0-4 1-2 1-4 2-3",         // C5: 17.4 → 3.9
		"0-2 0-4 1-2 1-3",             // P5: 9.7 → 0.1
		"0-1 0-3 0-4 1-2",             // 1.7 → 0.1
		"0-1 0-2 0-4 1-2 1-3",         // 0.7 → 0.8 (1.1 both on seed 2)
		"0-2 0-3 0-4 1-2 1-3",         // 5.7 → 1.2
		"0-2 0-3 0-4 1-2 1-3 1-4",     // 4.5 → 1.3
		"0-1 0-4 1-2 1-3 2-3",         // 6.2 → 0.8
		"0-1 0-2 0-3 0-4 1-4 2-3",     // 2.5 → 1.0
		"0-1 0-3 0-4 1-2 1-4 2-3",     // 5.1 → 1.0
		"0-2 0-3 0-4 1-2 1-3 1-4 2-3", // 2.8 → 0.9
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
	// Where the largest degree could overflow V's 128 bits, plans run direct.
	wide := motifBatchShape
	wide.Vertices, wide.MaxDeg = 1<<32-1, 1<<31
	if mp := MorphBatch(pls, cache, Options{Shape: wide}); mp != nil {
		t.Errorf("a graph whose degrees overflow V decomposed: %+v", mp.Stats)
	}
}

// Derived counts are recovered before the relations that read them, from
// 128-bit executed counts: a decomposed plan's V passes 64 bits here while
// every count stays below.
func TestRecoverWide(t *testing.T) {
	// Exec: [V of P (2^64 + 40), count(q) = 10]; Derived[0] = count(P) =
	// (V − 4·count(q)) / 2^32 ... and the one original reads it directly.
	mp := &MorphPlan{
		Derived: []Recovery{{Direct: -1, Div: 1 << 32, Terms: []RecoveryTerm{{Exec: 0, Coef: 1}, {Exec: 1, Coef: -4}}}},
		Recov: []Recovery{
			{Direct: -1, Div: 1, Terms: []RecoveryTerm{{Exec: 2, Coef: 1}}},
			{Direct: 1},
		},
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
