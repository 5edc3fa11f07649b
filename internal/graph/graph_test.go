package graph

import (
	"bufio"
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestBuilderBasics(t *testing.T) {
	b := NewBuilder()
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 0)
	b.AddEdge(2, 0) // duplicate
	b.AddEdge(3, 3) // self-loop, dropped
	g := b.Build()
	if g.NumVertices() != 3 {
		t.Fatalf("NumVertices = %d, want 3", g.NumVertices())
	}
	if g.NumEdges() != 3 {
		t.Fatalf("NumEdges = %d, want 3", g.NumEdges())
	}
	for v := uint32(0); v < 3; v++ {
		if g.Degree(v) != 2 {
			t.Errorf("Degree(%d) = %d, want 2", v, g.Degree(v))
		}
	}
}

func TestDegreeOrderInvariant(t *testing.T) {
	// Ids must be sorted by degree after Build, whatever the input order.
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		b := NewBuilder()
		n := 30 + rng.Intn(50)
		for i := 0; i < n*3; i++ {
			b.AddEdge(uint32(rng.Intn(n)), uint32(rng.Intn(n)))
		}
		g := b.Build()
		for v := uint32(0); v+1 < g.NumVertices(); v++ {
			if g.Degree(v) > g.Degree(v+1) {
				t.Fatalf("degree order violated: deg(%d)=%d > deg(%d)=%d",
					v, g.Degree(v), v+1, g.Degree(v+1))
			}
		}
	}
}

func TestAdjacencySortedAndSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	b := NewBuilder()
	for i := 0; i < 300; i++ {
		b.AddEdge(uint32(rng.Intn(64)), uint32(rng.Intn(64)))
	}
	g := b.Build()
	for v := uint32(0); v < g.NumVertices(); v++ {
		adj := g.Adj(v)
		if !sort.SliceIsSorted(adj, func(i, j int) bool { return adj[i] < adj[j] }) {
			t.Fatalf("Adj(%d) not sorted: %v", v, adj)
		}
		for _, u := range adj {
			if !g.HasEdge(u, v) {
				t.Fatalf("edge (%d,%d) not symmetric", v, u)
			}
		}
	}
}

func TestHasEdgeMatchesAdjacency(t *testing.T) {
	f := func(edges []uint16) bool {
		b := NewBuilder()
		for i := 0; i+1 < len(edges); i += 2 {
			b.AddEdge(uint32(edges[i]%100), uint32(edges[i+1]%100))
		}
		g := b.Build()
		n := g.NumVertices()
		for v := uint32(0); v < n; v++ {
			present := make(map[uint32]bool)
			for _, u := range g.Adj(v) {
				present[u] = true
			}
			for u := uint32(0); u < n; u++ {
				if g.HasEdge(v, u) != present[u] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestOrigIDRoundTrip(t *testing.T) {
	b := NewBuilder()
	b.AddEdge(10, 20)
	b.AddEdge(20, 30)
	b.AddEdge(20, 40)
	g := b.Build()
	// Original id 20 has degree 3 and must map to the highest new id.
	hub := g.NumVertices() - 1
	if g.OrigID(hub) != 20 {
		t.Fatalf("OrigID(%d) = %d, want 20", hub, g.OrigID(hub))
	}
}

func TestLabels(t *testing.T) {
	b := NewBuilder()
	b.AddEdge(0, 1)
	b.SetLabel(0, 7)
	b.SetLabel(1, 9)
	g := b.Build()
	if !g.Labeled() {
		t.Fatal("graph should be labeled")
	}
	if g.NumLabels() != 2 {
		t.Fatalf("NumLabels = %d, want 2", g.NumLabels())
	}
	// Find the vertex whose original id is 0.
	for v := uint32(0); v < g.NumVertices(); v++ {
		want := uint32(7)
		if g.OrigID(v) == 1 {
			want = 9
		}
		if g.Label(v) != want {
			t.Fatalf("Label(orig %d) = %d, want %d", g.OrigID(v), g.Label(v), want)
		}
	}
}

// An explicit NoLabel assignment must behave exactly like no
// assignment: it is not a distinct label, an all-NoLabel graph is
// unlabeled, and the graph's .pgr encoding round-trips (the binary
// reader cross-checks labelCount against the labels section).
func TestExplicitNoLabel(t *testing.T) {
	b := NewBuilder()
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.SetLabel(0, NoLabel)
	b.SetLabel(1, 7)
	g := b.Build()
	if !g.Labeled() || g.NumLabels() != 1 {
		t.Fatalf("graph with one real label: Labeled=%v NumLabels=%d, want true/1", g.Labeled(), g.NumLabels())
	}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadBinary(&buf); err != nil {
		t.Fatalf("binary round trip of explicit-NoLabel graph: %v", err)
	}

	all := NewBuilder()
	all.AddEdge(0, 1)
	all.SetLabel(0, NoLabel)
	if g := all.Build(); g.Labeled() || g.NumLabels() != 0 {
		t.Fatalf("all-NoLabel graph should be unlabeled, got %v", g)
	}
}

func TestUnlabeledLabelIsNoLabel(t *testing.T) {
	g := FromEdges([]Edge{{Src: 0, Dst: 1}})
	if g.Labeled() {
		t.Fatal("should be unlabeled")
	}
	if g.Label(0) != NoLabel {
		t.Fatalf("Label = %d, want NoLabel", g.Label(0))
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	src := `# comment
v 0 5
v 1 6
0 1
1 2
2 0
`
	g, err := ReadEdgeList(bytes.NewBufferString(src))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 3 || g.NumEdges() != 3 {
		t.Fatalf("parsed %v", g)
	}
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumVertices() != g.NumVertices() || g2.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip mismatch: %v vs %v", g, g2)
	}
	// Labels must survive the round trip (compared via original ids).
	labelsOf := func(gr *Graph) map[uint32]uint32 {
		m := make(map[uint32]uint32)
		for v := uint32(0); v < gr.NumVertices(); v++ {
			if l := gr.Label(v); l != NoLabel {
				m[gr.OrigID(v)] = l
			}
		}
		return m
	}
	if !reflect.DeepEqual(labelsOf(g), labelsOf(g2)) {
		t.Fatalf("labels changed: %v vs %v", labelsOf(g), labelsOf(g2))
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	for _, bad := range []string{
		"0",            // too few fields
		"a b",          // not numbers
		"v 1",          // short label line
		"v x 1",        // bad label id
		"0 4294967296", // out of uint32 range
	} {
		if _, err := ReadEdgeList(bytes.NewBufferString(bad)); err == nil {
			t.Errorf("input %q should fail", bad)
		}
	}
}

// A line longer than the scanner's buffer must surface as an error
// naming the offending line — not as a silently truncated parse.
func TestReadEdgeListTokenTooLong(t *testing.T) {
	var src bytes.Buffer
	src.WriteString("0 1\n1 2\n")
	src.WriteString("# ")
	src.Write(bytes.Repeat([]byte{'x'}, 2<<20)) // 2 MiB comment line
	src.WriteString("\n2 3\n")
	_, err := ReadEdgeList(&src)
	if err == nil {
		t.Fatal("over-long line parsed without error (scan silently truncated)")
	}
	if !errors.Is(err, bufio.ErrTooLong) {
		t.Fatalf("error = %v, want bufio.ErrTooLong", err)
	}
	if !strings.Contains(err.Error(), "line 3") {
		t.Fatalf("error %q does not name the offending line 3", err)
	}
}

func TestEmptyGraph(t *testing.T) {
	g := NewBuilder().Build()
	if g.NumVertices() != 0 || g.NumEdges() != 0 {
		t.Fatalf("empty graph: %v", g)
	}
	if g.MaxDegree() != 0 || g.AvgDegree() != 0 {
		t.Fatal("empty graph degree stats should be zero")
	}
}

func TestStats(t *testing.T) {
	g := FromAdjacency(map[uint32][]uint32{
		0: {1, 2, 3},
		1: {2},
	})
	if g.MaxDegree() != 3 {
		t.Fatalf("MaxDegree = %d, want 3", g.MaxDegree())
	}
	if got := g.AvgDegree(); got != 2.0 {
		t.Fatalf("AvgDegree = %v, want 2.0", got)
	}
}

// A .pgr file need only hold a valid CSR, not Build's degree order: a
// 4-leaf star written with its center at id 0 loads, and MaxDegree must
// still find the center (reading an end of the id order finds a leaf).
func TestMaxDegreeIgnoresIdOrder(t *testing.T) {
	star := &Graph{
		stat:   Stat{Vertices: 5, Edges: 4},
		pieces: []rows{{offsets: []uint64{0, 4, 5, 6, 7, 8}, adj: []uint32{1, 2, 3, 4, 0, 0, 0, 0}}},
	}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, star); err != nil {
		t.Fatal(err)
	}
	g, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g.Degree(0) != 4 || g.Degree(4) != 1 {
		t.Fatalf("the star did not load as written: degrees %d at 0, %d at 4", g.Degree(0), g.Degree(4))
	}
	if got := g.MaxDegree(); got != 4 {
		t.Fatalf("MaxDegree = %d, want 4", got)
	}
}

// DegreeMoments on graphs whose degrees are known: a 4-leaf star has
// degrees 4,1,1,1,1 (mean 8/5, mean square 20/5), a 6-cycle all 2s, and
// an empty graph none. Concurrent first calls (run under -race) must all
// see the one memoised pass; the sharded-equals-whole table
// (shardedDiff) checks a multi-piece graph against its whole graph.
func TestDegreeMoments(t *testing.T) {
	cycle := NewBuilder()
	for v := uint32(0); v < 6; v++ {
		cycle.AddEdge(v, (v+1)%6)
	}
	for _, tc := range []struct {
		name         string
		g            *Graph
		mean, meanSq float64
	}{
		{"star", FromAdjacency(map[uint32][]uint32{0: {1, 2, 3, 4}}), 1.6, 4},
		{"cycle", cycle.Build(), 2, 4},
		{"empty", NewBuilder().Build(), 0, 0},
	} {
		if m1, m2 := tc.g.DegreeMoments(); m1 != tc.mean || m2 != tc.meanSq {
			t.Errorf("%s: DegreeMoments = %v, %v; want %v, %v", tc.name, m1, m2, tc.mean, tc.meanSq)
		}
	}

	g := randomTestGraph(t, 400, 1600, 0, 3)
	type moments struct{ m1, m2 float64 }
	got := make(chan moments, 8)
	for range cap(got) {
		go func() {
			m1, m2 := g.DegreeMoments()
			got <- moments{m1, m2}
		}()
	}
	want := moments{2 * float64(g.NumEdges()) / float64(g.NumVertices()), 0}
	for v := uint32(0); v < g.NumVertices(); v++ {
		want.m2 += float64(g.Degree(v)) * float64(g.Degree(v))
	}
	want.m2 /= float64(g.NumVertices())
	for range cap(got) {
		if m := <-got; m != want {
			t.Fatalf("concurrent DegreeMoments = %+v, want %+v", m, want)
		}
	}
}

func TestContains(t *testing.T) {
	s := []uint32{1, 3, 5, 9}
	for _, x := range s {
		if !Contains(s, x) {
			t.Errorf("Contains(%d) = false", x)
		}
	}
	for _, x := range []uint32{0, 2, 4, 10} {
		if Contains(s, x) {
			t.Errorf("Contains(%d) = true", x)
		}
	}
	if Contains(nil, 1) {
		t.Error("Contains(nil, 1) = true")
	}
}

// The zero Graph is an empty graph, as the type's doc promises.
func TestZeroValueGraphIsEmpty(t *testing.T) {
	g := &Graph{}
	if g.NumVertices() != 0 || g.NumEdges() != 0 || g.MaxDegree() != 0 || g.Bytes() != 0 || g.Labeled() {
		t.Fatalf("zero graph reports data: %v, MaxDegree %d, Bytes %d", g, g.MaxDegree(), g.Bytes())
	}
	if err := g.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatalf("WriteBinary: %v", err)
	}
	if rg, err := ReadBinary(&buf); err != nil || StatOf(rg) != (Stat{}) {
		t.Fatalf("zero graph read back as %v, %v", rg, err)
	}
}
