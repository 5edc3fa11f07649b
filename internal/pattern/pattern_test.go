package pattern

import (
	"math/rand"
	"os"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

func TestConstructors(t *testing.T) {
	tri := Clique(3)
	if tri.NumEdges() != 3 || tri.N() != 3 {
		t.Fatalf("Clique(3): %v", tri)
	}
	star := Star(4)
	if star.NumEdges() != 3 || star.Degree(0) != 3 {
		t.Fatalf("Star(4): %v", star)
	}
	chain := Chain(5)
	if chain.NumEdges() != 4 || chain.Degree(0) != 1 || chain.Degree(2) != 2 {
		t.Fatalf("Chain(5): %v", chain)
	}
	cyc := Cycle(5)
	if cyc.NumEdges() != 5 {
		t.Fatalf("Cycle(5): %v", cyc)
	}
}

func TestParseRoundTrip(t *testing.T) {
	cases := []string{
		"0-1",
		"0-1 1-2 2-0",
		"0-1 0-2 1!2",
		"0-1 1-2 2-0 [0:4] [2:7]",
	}
	for _, s := range cases {
		p := MustParse(s)
		q := MustParse(p.String())
		if !p.Equal(q) {
			t.Errorf("round trip failed for %q: %v vs %v", s, p, q)
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{
		"", "0-0", "x-1", "0-", "[0]", "[a:1]", "0?1", "0-17",
		"0-1 [0:2147483648]", // label beyond int32 would truncate silently
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) should fail", bad)
		}
	}
}

func TestAntiVertexClassification(t *testing.T) {
	p := MustParse("0-1 1-2 0!3 2!3")
	if !p.IsAntiVertex(3) {
		t.Error("vertex 3 should be an anti-vertex")
	}
	for v := 0; v < 3; v++ {
		if p.IsAntiVertex(v) {
			t.Errorf("vertex %d should be regular", v)
		}
	}
	if got := p.AntiVertices(); len(got) != 1 || got[0] != 3 {
		t.Errorf("AntiVertices = %v", got)
	}
	if got := p.RegularVertices(); len(got) != 3 {
		t.Errorf("RegularVertices = %v", got)
	}
}

func TestValidate(t *testing.T) {
	ok := MustParse("0-1 1-2")
	if err := ok.Validate(); err != nil {
		t.Errorf("valid pattern rejected: %v", err)
	}
	// Disconnected regular part.
	p := New(4)
	p.AddEdge(0, 1)
	p.AddEdge(2, 3)
	if err := p.Validate(); err == nil {
		t.Error("disconnected pattern accepted")
	}
	// Anti-vertex adjacent to an anti-vertex.
	q := New(4)
	q.AddEdge(0, 1)
	q.AddAntiEdge(0, 2)
	q.AddAntiEdge(2, 3)
	q.AddAntiEdge(0, 3)
	if err := q.Validate(); err == nil {
		t.Error("anti-anti adjacency accepted")
	}
	// Labeled anti-vertex.
	r := New(3)
	r.AddEdge(0, 1)
	r.AddAntiEdge(0, 2)
	r.SetLabel(2, 5)
	if err := r.Validate(); err == nil {
		t.Error("labeled anti-vertex accepted")
	}
}

func TestCanonicalCodeInvariantUnderRenumbering(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(5)
		p := randomPattern(rng, n)
		perm := rng.Perm(n)
		q := p.Renumber(perm)
		if p.CanonicalCode() != q.CanonicalCode() {
			t.Fatalf("canonical code changed under renumbering:\n p=%v\n q=%v", p, q)
		}
	}
}

func TestCanonicalCodeDistinguishes(t *testing.T) {
	pairs := [][2]*Pattern{
		{Clique(3), Star(3)},
		{Chain(4), Star(4)},
		{Cycle(4), MustParse("0-1 1-2 2-3 3-0 0-2")},
		{MustParse("0-1 0-2"), MustParse("0-1 0!2 1-2")},
		{MustParse("0-1 [0:1]"), MustParse("0-1 [0:2]")},
		// Labels use the full int32 range: 65535 once collided with
		// Wildcard (16-bit truncation), handing the unlabeled
		// pattern's cached plan to the labeled query.
		{MustParse("0-1 [0:65535]"), MustParse("0-1")},
		{MustParse("0-1 [0:65536]"), MustParse("0-1 [0:0]")},
	}
	for _, pq := range pairs {
		if pq[0].CanonicalCode() == pq[1].CanonicalCode() {
			t.Errorf("distinct patterns share a code: %v vs %v", pq[0], pq[1])
		}
	}
}

func TestCanonicalFormPermutationIsValid(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 100; trial++ {
		p := randomPattern(rng, 2+rng.Intn(4))
		code, perm := p.CanonicalForm()
		q := p.Renumber(perm)
		code2, _ := q.CanonicalForm()
		if code != code2 {
			t.Fatalf("renumbering by canonical perm changed the code")
		}
	}
}

func TestAutomorphismCounts(t *testing.T) {
	cases := []struct {
		p    *Pattern
		want int
	}{
		{Clique(3), 6},
		{Clique(4), 24},
		{Star(4), 6},   // 3! leaf permutations
		{Chain(4), 2},  // reversal
		{Cycle(4), 8},  // dihedral group D4
		{Cycle(5), 10}, // D5
		{MustParse("0-1 [0:1] [1:2]"), 1},
		{MustParse("0-1 [0:1] [1:1]"), 2},
	}
	for _, c := range cases {
		if got := len(c.p.Automorphisms()); got != c.want {
			t.Errorf("|Aut(%v)| = %d, want %d", c.p, got, c.want)
		}
	}
}

func TestAutomorphismsRespectAntiVertices(t *testing.T) {
	// pe of Figure 3: triangle 0,1,2 + anti-vertex 3 adjacent to 0 and 2.
	// The anti-vertex breaks the full triangle symmetry: only the 0<->2
	// swap survives.
	pe := Clique(3)
	a := pe.AddVertex()
	pe.AddAntiEdge(0, a)
	pe.AddAntiEdge(2, a)
	autos := pe.Automorphisms()
	if len(autos) != 2 {
		t.Fatalf("|Aut(pe)| = %d, want 2", len(autos))
	}
	orb := pe.Orbits()
	if orb[0] != orb[2] {
		t.Error("vertices 0 and 2 should share an orbit")
	}
	if orb[1] == orb[0] {
		t.Error("vertex 1 must not be in 0's orbit (anti-vertex asymmetry)")
	}
}

func TestHasAutomorphismAgainstEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		n := 2 + rng.Intn(4)
		p := randomPattern(rng, n)
		autos := p.Automorphisms()
		reachable := make(map[[2]int]bool)
		for _, a := range autos {
			for v, img := range a {
				reachable[[2]int{v, img}] = true
			}
		}
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if got := p.HasAutomorphism(nil, u, v); got != reachable[[2]int{u, v}] {
					t.Fatalf("HasAutomorphism(%d,%d) = %v, enumeration says %v (pattern %v)",
						u, v, got, reachable[[2]int{u, v}], p)
				}
			}
		}
	}
}

// Orbit under a stabilizer must list exactly the images of v under the
// enumerated automorphisms that fix every vertex of fixed: v first, then
// the rest ascending (BreakSymmetries pivots on that order).
func TestOrbitAgainstEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(5)
		p := randomPattern(rng, n)
		if trial%3 == 0 {
			p = Cycle(n + 1) // symmetric enough for non-trivial stabilizers
			n++
		}
		fixed := rng.Perm(n)[:rng.Intn(3)]
		autos := p.Automorphisms()
		for v := 0; v < n; v++ {
			if slices.Contains(fixed, v) {
				continue
			}
			images := map[int]bool{}
			for _, a := range autos {
				if !slices.ContainsFunc(fixed, func(f int) bool { return a[f] != f }) {
					images[a[v]] = true
				}
			}
			want := []int{v}
			for u := 0; u < n; u++ {
				if u != v && images[u] {
					want = append(want, u)
				}
			}
			if got := p.Orbit(fixed, v); !slices.Equal(got, want) {
				t.Fatalf("Orbit(%v, %d) of %v = %v, want %v", fixed, v, p, got, want)
			}
		}
	}
}

func TestCombinations(t *testing.T) {
	var got [][]int
	Combinations(5, 3, func(c []int) bool {
		got = append(got, slices.Clone(c))
		return true
	})
	if len(got) != 10 || !slices.Equal(got[0], []int{0, 1, 2}) || !slices.Equal(got[9], []int{2, 3, 4}) {
		t.Fatalf("Combinations(5, 3) = %v", got)
	}
	for i := 1; i < len(got); i++ {
		if slices.Compare(got[i-1], got[i]) >= 0 {
			t.Fatalf("not in lexicographic order: %v then %v", got[i-1], got[i])
		}
	}
	calls := 0
	Combinations(5, 2, func([]int) bool { calls++; return calls < 4 })
	if calls != 4 {
		t.Fatalf("Combinations kept going after f returned false: %d calls", calls)
	}
	Combinations(2, 3, func(c []int) bool { t.Fatalf("3-subset %v of 2 elements", c); return true })
}

func TestComponents(t *testing.T) {
	house := MustParse("0-1 1-2 2-3 3-0 0-4 1-4")
	cases := []struct {
		p    *Pattern
		vs   []int
		want [][]int
	}{
		{Chain(5), []int{0, 1, 3, 4}, [][]int{{0, 1}, {3, 4}}},
		{Star(5), []int{4, 2, 3, 1}, [][]int{{1}, {2}, {3}, {4}}},
		{house, []int{4, 3, 2}, [][]int{{2, 3}, {4}}},
		{house, []int{0, 1, 2, 3, 4}, [][]int{{0, 1, 2, 3, 4}}},
		{house, nil, nil},
		// Anti-edges do not connect.
		{MustParse("0-1 1!2 2-3"), []int{0, 1, 2, 3}, [][]int{{0, 1}, {2, 3}}},
	}
	for _, c := range cases {
		if got := c.p.Components(c.vs); !reflect.DeepEqual(got, c.want) {
			t.Errorf("Components(%v) of %v = %v, want %v", c.vs, c.p, got, c.want)
		}
	}
}

// Classes keeps one class per isomorphism class: the first pattern
// added represents it, weights sum, and Sorted orders by canonical code.
func TestClasses(t *testing.T) {
	var c Classes
	c4 := MustParse("0-1 1-2 2-3 3-0")
	c.Add(c4, 2)
	c.Add(Chain(4), 5)
	c.Add(MustParse("0-2 2-1 1-3 3-0"), -1) // C4 again
	c.Add(MustParse("0-1 1-2 2-3 [3:1]"), 1)
	if len(c.List) != 3 || c.List[0].Pat != c4 || c.List[0].Weight != 1 || c.List[1].Weight != 5 {
		t.Fatalf("classes = %+v", c.List)
	}
	sorted := c.Sorted()
	for i := 1; i < len(sorted); i++ {
		if sorted[i-1].CanonicalCode() >= sorted[i].CanonicalCode() {
			t.Fatalf("Sorted out of canonical-code order: %v", sorted)
		}
	}
	var empty Classes
	if empty.Sorted() != nil {
		t.Fatal("an empty Classes sorts to a non-nil slice")
	}
}

func TestOrbitsOfLargeClique(t *testing.T) {
	// Must complete without enumerating 12! automorphisms.
	p := Clique(12)
	orb := p.Orbits()
	for v := range orb {
		if orb[v] != 0 {
			t.Fatalf("clique orbit of %d = %d, want 0", v, orb[v])
		}
	}
}

func TestGenerateAllVertexInducedCounts(t *testing.T) {
	// Numbers of connected unlabeled graphs on n vertices (OEIS A001349).
	want := map[int]int{2: 1, 3: 2, 4: 6, 5: 21}
	for n, count := range want {
		got := GenerateAllVertexInduced(n)
		if len(got) != count {
			t.Errorf("GenerateAllVertexInduced(%d) = %d patterns, want %d", n, len(got), count)
		}
		for _, p := range got {
			if p.N() != n || !p.ConnectedRegular() {
				t.Errorf("bad generated pattern: %v", p)
			}
		}
	}
}

func TestGenerateAllEdgeInducedCounts(t *testing.T) {
	// Numbers of connected unlabeled graphs with e edges (OEIS A002905).
	want := map[int]int{1: 1, 2: 1, 3: 3, 4: 5, 5: 12}
	for e, count := range want {
		got := GenerateAllEdgeInduced(e)
		if len(got) != count {
			t.Errorf("GenerateAllEdgeInduced(%d) = %d patterns, want %d", e, len(got), count)
		}
		for _, p := range got {
			if p.NumEdges() != e {
				t.Errorf("pattern %v has %d edges, want %d", p, p.NumEdges(), e)
			}
		}
	}
}

func TestExtendByEdge(t *testing.T) {
	// Extending the single edge yields the wedge only (adding an edge
	// between the two existing vertices is impossible, so the only
	// extension is a new pendant vertex).
	got := ExtendByEdge([]*Pattern{Chain(2)})
	if len(got) != 1 || !got[0].IsIsomorphic(Star(3)) {
		t.Fatalf("ExtendByEdge(edge) = %v", got)
	}
	// Extending the wedge: triangle (close it) or 4-chain or 4-star.
	got = ExtendByEdge([]*Pattern{Star(3)})
	if len(got) != 3 {
		t.Fatalf("ExtendByEdge(wedge) = %d patterns, want 3", len(got))
	}
}

func TestExtendByVertex(t *testing.T) {
	got := ExtendByVertex([]*Pattern{Clique(3)})
	// New vertex attached to 1, 2, or all 3 triangle vertices: paw,
	// diamond, K4.
	if len(got) != 3 {
		t.Fatalf("ExtendByVertex(triangle) = %d patterns, want 3", len(got))
	}
}

func TestVertexInducedTheorem(t *testing.T) {
	p := Cycle(4)
	q := VertexInduced(p)
	if q.NumAntiEdges() != 2 {
		t.Fatalf("vertex-induced C4 needs 2 anti-edges (diagonals), got %d", q.NumAntiEdges())
	}
	// A clique gains nothing.
	k := VertexInduced(Clique(4))
	if k.NumAntiEdges() != 0 {
		t.Fatal("vertex-induced clique should have no anti-edges")
	}
	// Anti-vertices are untouched.
	withAnti := Clique(3)
	a := withAnti.AddVertex()
	withAnti.AddAntiEdge(0, a)
	vi := VertexInduced(withAnti)
	if !vi.IsAntiVertex(a) {
		t.Fatal("anti-vertex lost")
	}
}

func TestIsomorphicQuick(t *testing.T) {
	// Renumbered patterns are isomorphic; patterns with an extra edge are
	// not.
	rng := rand.New(rand.NewSource(8))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(3)
		p := randomPattern(r, n)
		q := p.Renumber(r.Perm(n))
		if !p.IsIsomorphic(q) {
			return false
		}
		// Add one regular edge somewhere free; result must differ.
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if p.EdgeKindOf(u, v) == None {
					q2 := p.Clone()
					q2.AddEdge(u, v)
					return !p.IsIsomorphic(q2)
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

func TestLoadPatterns(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/pats.txt"
	content := "# patterns\n0-1 1-2 2-0\n\n0-1 0-2 1!2\n"
	if err := writeFile(path, content); err != nil {
		t.Fatal(err)
	}
	ps, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != 2 {
		t.Fatalf("loaded %d patterns, want 2", len(ps))
	}
	if !ps[0].IsIsomorphic(Clique(3)) {
		t.Error("first pattern should be a triangle")
	}
}

// randomPattern builds a random connected pattern with optional
// anti-edges and labels.
func randomPattern(rng *rand.Rand, n int) *Pattern {
	p := New(n)
	// Random spanning tree for connectivity.
	for v := 1; v < n; v++ {
		p.AddEdge(v, rng.Intn(v))
	}
	// Sprinkle extra edges/anti-edges/labels.
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if p.EdgeKindOf(u, v) == None {
				switch rng.Intn(4) {
				case 0:
					p.AddEdge(u, v)
				case 1:
					p.AddAntiEdge(u, v)
				}
			}
		}
		if rng.Intn(3) == 0 {
			p.SetLabel(u, Label(rng.Intn(3)))
		}
	}
	return p
}

func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}
