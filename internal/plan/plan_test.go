package plan

import (
	"reflect"
	"slices"
	"testing"

	"peregrine/internal/pattern"
)

func mustPlan(t *testing.T, p *pattern.Pattern) *Plan {
	t.Helper()
	pl, err := New(p, Options{})
	if err != nil {
		t.Fatalf("plan: %v", err)
	}
	return pl
}

// coreFirstConds returns BreakSymmetries' conditions for p with its
// plan's core, as New computes them.
func coreFirstConds(t *testing.T, p *pattern.Pattern) []Cond {
	t.Helper()
	core, err := MinConnectedVertexCover(p)
	if err != nil {
		t.Fatal(err)
	}
	return BreakSymmetries(p, core)
}

func TestBreakSymmetriesLeavesIdentityOnly(t *testing.T) {
	// After applying the conditions as constraints, the only automorphism
	// consistent with them must be the identity.
	pats := []*pattern.Pattern{
		pattern.Clique(3),
		pattern.Clique(4),
		pattern.Star(4),
		pattern.Chain(4),
		pattern.Cycle(4),
		pattern.Cycle(5),
		pattern.MustParse("0-1 1-2 2-3 3-0 0-2"),
	}
	for _, p := range pats {
		conds := coreFirstConds(t, p)
		count := 0
		for _, a := range p.Automorphisms() {
			ok := true
			for _, c := range conds {
				// An automorphism "satisfies the ordering" if it maps the
				// constraint consistently: applying it must not invert any
				// condition pair (Grochow-Kellis fixed-point criterion).
				if a[c.Less] == c.Greater && a[c.Greater] == c.Less {
					ok = false
					break
				}
			}
			if ok {
				identityConsistent := true
				for _, c := range conds {
					if !condOrderPreserved(a, conds, c) {
						identityConsistent = false
						break
					}
				}
				if identityConsistent {
					count++
				}
			}
		}
		if count < 1 {
			t.Errorf("pattern %v: no automorphism satisfies the conditions", p)
		}
	}
}

// condOrderPreserved checks that automorphism a is consistent with the
// partial order: there is an assignment of distinct integers to vertices
// satisfying conds both before and after applying a. For the minimal
// check here we verify a doesn't map any Less/Greater pair to a pair
// ordered the other way by some condition.
func condOrderPreserved(a []int, conds []Cond, c Cond) bool {
	for _, d := range conds {
		if a[c.Less] == d.Greater && a[c.Greater] == d.Less {
			return false
		}
	}
	return true
}

func TestBreakSymmetriesTriangle(t *testing.T) {
	conds := coreFirstConds(t, pattern.Clique(3))
	// A triangle needs a total order: 2 pivot rounds, 3 conditions total
	// (0<1, 0<2 then 1<2) or equivalent.
	if len(conds) != 3 {
		t.Fatalf("triangle conditions = %v, want 3 conditions", conds)
	}
}

func TestBreakSymmetriesChain(t *testing.T) {
	conds := coreFirstConds(t, pattern.Chain(4))
	// Path reversal is the only symmetry: one condition suffices.
	if len(conds) != 1 {
		t.Fatalf("chain conditions = %v, want exactly 1", conds)
	}
}

func TestBreakSymmetriesAsymmetric(t *testing.T) {
	// The paw (triangle + pendant) still has one symmetry (the two
	// triangle vertices not attached to the tail); a labeled edge with
	// distinct labels has none.
	conds := coreFirstConds(t, pattern.MustParse("0-1 [0:1] [1:2]"))
	if len(conds) != 0 {
		t.Fatalf("asymmetric pattern got conditions %v", conds)
	}
}

func TestBreakSymmetriesLargeClique(t *testing.T) {
	// 14-clique: must terminate quickly with a full total order
	// (13+12+...+1 = 91 conditions) without enumerating 14!.
	conds := coreFirstConds(t, pattern.Clique(14))
	if len(conds) != 91 {
		t.Fatalf("14-clique conditions = %d, want 91", len(conds))
	}
}

func TestMinConnectedVertexCover(t *testing.T) {
	cases := []struct {
		p    *pattern.Pattern
		size int
	}{
		{pattern.Chain(2), 1},
		{pattern.Star(4), 1}, // the center covers all edges
		{pattern.Clique(3), 2},
		{pattern.Clique(4), 3},
		{pattern.Chain(4), 2},
		// C4's plain vertex cover is {0,2}, but those are not adjacent:
		// the minimum connected cover has 3 vertices.
		{pattern.Cycle(4), 3},
		{pattern.MustParse("0-1 1-2 2-3 3-0 0-2"), 2}, // diamond: the chord endpoints
	}
	for _, c := range cases {
		cover, err := MinConnectedVertexCover(c.p)
		if err != nil {
			t.Fatalf("%v: %v", c.p, err)
		}
		if len(cover) != c.size {
			t.Errorf("cover of %v = %v, want size %d", c.p, cover, c.size)
		}
		// Verify it actually covers all regular edges.
		in := make(map[int]bool)
		for _, v := range cover {
			in[v] = true
		}
		for u := 0; u < c.p.N(); u++ {
			for v := u + 1; v < c.p.N(); v++ {
				if c.p.HasEdge(u, v) && !in[u] && !in[v] {
					t.Errorf("cover %v misses edge (%d,%d) of %v", cover, u, v, c.p)
				}
			}
		}
	}
}

func TestCoverIncludesAntiEdgeEndpoint(t *testing.T) {
	// §4.2: an anti-edge must have an endpoint in the cover so its
	// adjacency list is available for the set difference. For the wedge
	// with anti-edge between endpoints, the center alone no longer
	// suffices.
	p := pattern.MustParse("0-1 0-2 1!2")
	cover, err := MinConnectedVertexCover(p)
	if err != nil {
		t.Fatal(err)
	}
	has12 := false
	for _, v := range cover {
		if v == 1 || v == 2 {
			has12 = true
		}
	}
	if !has12 {
		t.Fatalf("cover %v does not cover the anti-edge", cover)
	}
}

func TestAntiVertexExcludedFromCore(t *testing.T) {
	// §4.3: anti-vertices do not impact the core.
	p := pattern.Clique(3)
	a := p.AddVertex()
	for v := 0; v < 3; v++ {
		p.AddAntiEdge(v, a)
	}
	pl := mustPlan(t, p)
	for _, v := range pl.Core {
		if v == a {
			t.Fatalf("anti-vertex %d in core %v", a, pl.Core)
		}
	}
	if len(pl.Checks) != 1 || pl.Checks[0].V != a {
		t.Fatalf("anti-vertex check missing: %+v", pl.Checks)
	}
	if got := len(pl.Checks[0].Nbrs); got != 3 {
		t.Fatalf("anti-vertex check neighbors = %d, want 3", got)
	}
}

func TestMatchingOrdersCliqueIsSingle(t *testing.T) {
	// A clique's core is totally ordered: exactly one matching order with
	// exactly one sequence.
	pl := mustPlan(t, pattern.Clique(4))
	if len(pl.Orders) != 1 {
		t.Fatalf("clique matching orders = %d, want 1", len(pl.Orders))
	}
	if len(pl.Orders[0].Seqs) != 1 {
		t.Fatalf("clique sequences = %d, want 1", len(pl.Orders[0].Seqs))
	}
}

func TestMatchingOrderVisitsHighToLowConnected(t *testing.T) {
	for _, p := range []*pattern.Pattern{
		pattern.Clique(4), pattern.Cycle(4), pattern.Chain(4),
		pattern.MustParse("0-1 1-2 2-3 3-0 0-2"),
	} {
		pl := mustPlan(t, p)
		k := len(pl.Core)
		for _, mo := range pl.Orders {
			if mo.Visit[0] != k-1 {
				t.Errorf("order does not start at highest position: %v", mo.Visit)
			}
			if len(mo.Steps) != k-1 {
				t.Errorf("steps = %d, want %d", len(mo.Steps), k-1)
			}
			for i, st := range mo.Steps {
				if len(st.Nbr) == 0 {
					t.Errorf("step for pos %d has no visited neighbors (disconnected traversal)", mo.Visit[i+1])
				}
			}
		}
	}
}

func TestNonCoreStepsHaveCoreNeighbors(t *testing.T) {
	for _, p := range []*pattern.Pattern{
		pattern.Star(5), pattern.Clique(5), pattern.Cycle(5),
		pattern.MustParse("0-1 0-2 1!2"),
	} {
		pl := mustPlan(t, p)
		coreSet := make(map[int]bool)
		for _, v := range pl.Core {
			coreSet[v] = true
		}
		for _, st := range pl.NonCore {
			if len(st.CoreNbrs) == 0 {
				t.Errorf("non-core %d has no core neighbors (pattern %v)", st.V, p)
			}
			for _, u := range st.CoreNbrs {
				if !coreSet[u] {
					t.Errorf("non-core %d neighbor %d not in core", st.V, u)
				}
			}
			for _, u := range st.CoreAnti {
				if !coreSet[u] {
					t.Errorf("non-core %d anti-neighbor %d not in core", st.V, u)
				}
			}
		}
	}
}

func TestNoSymmetryBreakingOption(t *testing.T) {
	pl, err := New(pattern.Clique(3), Options{NoSymmetryBreaking: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(pl.Conds) != 0 {
		t.Fatalf("PRG-U plan has conditions: %v", pl.Conds)
	}
	// Without ordering, the 2-vertex core admits both sequences.
	totalSeqs := 0
	for _, mo := range pl.Orders {
		totalSeqs += len(mo.Seqs)
	}
	if totalSeqs != 2 {
		t.Fatalf("PRG-U triangle core sequences = %d, want 2", totalSeqs)
	}
}

func TestPlanRejectsInvalidPatterns(t *testing.T) {
	bad := pattern.New(3)
	bad.AddEdge(0, 1) // vertex 2 isolated
	if _, err := New(bad, Options{}); err == nil {
		t.Error("plan accepted an invalid pattern")
	}
}

// Each step's window is bounded by the visits at the nearest positions
// below and above its own: Lo by the highest visited position under it,
// Hi by the lowest visited position over it, -1 where none is visited.
func TestStepBoundsPointAtNearestPositions(t *testing.T) {
	for _, tc := range []struct {
		p      *pattern.Pattern
		order  int
		lo, hi []int // per step, the visit index bounding it
	}{
		// Visiting descending positions 2, 1, 0: each step is bounded
		// above by the visit just before it, never below.
		{pattern.Clique(4), 0, []int{-1, -1}, []int{0, 1}},
		// P5's third order visits positions 2, 0, 1: its second step, at
		// position 1, lies between visits 1 (position 0) and 0 (position 2).
		{pattern.MustParse("0-1 1-2 2-3 3-4"), 2, []int{-1, 1}, []int{0, 0}},
	} {
		pl := mustPlan(t, tc.p)
		if len(pl.Orders) <= tc.order {
			t.Fatalf("%v: %d orders, want more than %d", tc.p, len(pl.Orders), tc.order)
		}
		mo := pl.Orders[tc.order]
		if len(mo.Steps) != len(tc.lo) {
			t.Fatalf("%v order %d: %d steps, want %d", tc.p, tc.order, len(mo.Steps), len(tc.lo))
		}
		for i, st := range mo.Steps {
			if st.Lo != tc.lo[i] || st.Hi != tc.hi[i] {
				t.Errorf("%v order %d (visits %v) step %d: (Lo, Hi) = (%d, %d), want (%d, %d)",
					tc.p, tc.order, mo.Visit, i, st.Lo, st.Hi, tc.lo[i], tc.hi[i])
			}
			// The bounds' positions are the nearest visited ones.
			pos := mo.Visit[i+1]
			wantLo, wantHi := -1, -1
			for _, w := range mo.Visit[:i+1] {
				if w < pos && (wantLo < 0 || w > wantLo) {
					wantLo = w
				}
				if w > pos && (wantHi < 0 || w < wantHi) {
					wantHi = w
				}
			}
			if got := posOf(mo, st.Lo); got != wantLo {
				t.Errorf("%v order %d step %d: Lo at position %d, want %d", tc.p, tc.order, i, got, wantLo)
			}
			if got := posOf(mo, st.Hi); got != wantHi {
				t.Errorf("%v order %d step %d: Hi at position %d, want %d", tc.p, tc.order, i, got, wantHi)
			}
		}
	}
}

// posOf is the position visit t binds, -1 for none.
func posOf(mo *MatchingOrder, t int) int {
	if t < 0 {
		return -1
	}
	return mo.Visit[t]
}

func TestPlanDeterminism(t *testing.T) {
	a := mustPlan(t, pattern.Cycle(5))
	b := mustPlan(t, pattern.Cycle(5))
	if !reflect.DeepEqual(a.Conds, b.Conds) || !reflect.DeepEqual(a.Core, b.Core) {
		t.Fatal("plans differ between runs")
	}
	if len(a.Orders) != len(b.Orders) {
		t.Fatal("matching order counts differ")
	}
	for i := range a.Orders {
		if !reflect.DeepEqual(a.Orders[i].Seqs, b.Orders[i].Seqs) {
			t.Fatalf("order %d sequences differ", i)
		}
	}
}

// A completion step's Distinct lists the vertices matched before it that
// a candidate may equal: not adjacent to it, and not ordered against it
// by the conditions, directly or through other vertices. A k-clique's
// non-core vertex neighbours the whole core; without symmetry breaking
// the edge-induced C4 and C5 leave one and two core vertices it may
// equal, and symmetry breaking orders them away in C4 but not in C5.
func TestNonCoreDistinct(t *testing.T) {
	for _, tc := range []struct {
		text     string
		noSym    bool
		core     []int
		nonCore  int
		distinct []int
	}{
		{text: "0-1 1-2 2-0", core: []int{0, 1}, nonCore: 2},
		{text: "0-1 1-2 2-0", noSym: true, core: []int{0, 1}, nonCore: 2},
		{text: "0-1 0-2 0-3 1-2 1-3 2-3", core: []int{0, 1, 2}, nonCore: 3},
		{text: "0-1 0-2 0-3 1-2 1-3 2-3", noSym: true, core: []int{0, 1, 2}, nonCore: 3},
		{text: "0-1 0-2 0-3 0-4 1-2 1-3 1-4 2-3 2-4 3-4", core: []int{0, 1, 2, 3}, nonCore: 4},
		{text: "0-1 0-2 0-3 0-4 1-2 1-3 1-4 2-3 2-4 3-4", noSym: true, core: []int{0, 1, 2, 3}, nonCore: 4},
		{text: "0-2 0-3 1-2 1-3", core: []int{0, 1, 2}, nonCore: 3},
		{text: "0-2 0-3 1-2 1-3", noSym: true, core: []int{0, 1, 2}, nonCore: 3, distinct: []int{2}},
		{text: "0-3 0-4 1-2 1-4 2-3", core: []int{0, 1, 2, 3}, nonCore: 4, distinct: []int{2, 3}},
		{text: "0-3 0-4 1-2 1-4 2-3", noSym: true, core: []int{0, 1, 2, 3}, nonCore: 4, distinct: []int{2, 3}},
	} {
		pl, err := New(pattern.MustParse(tc.text), Options{NoSymmetryBreaking: tc.noSym})
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(pl.Core, tc.core) || len(pl.NonCore) != 1 || pl.NonCore[0].V != tc.nonCore {
			t.Fatalf("%s noSym=%v: core %v, completion %+v; want core %v completed by %d", tc.text, tc.noSym, pl.Core, pl.NonCore, tc.core, tc.nonCore)
		}
		if got := pl.NonCore[0].Distinct; !slices.Equal(got, tc.distinct) {
			t.Errorf("%s noSym=%v: Distinct %v, want %v", tc.text, tc.noSym, got, tc.distinct)
		}
		if !pl.SizedAtCore() {
			t.Errorf("%s noSym=%v: not sized at its core binding", tc.text, tc.noSym)
		}
	}
	// A star's leaves neighbour the center and are ordered among
	// themselves: none may equal a vertex matched before it.
	pl, err := New(pattern.Star(5), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range pl.NonCore {
		if len(st.Distinct) != 0 {
			t.Errorf("star: step %+v may equal %v, want nothing", st, st.Distinct)
		}
	}
}
