package graph

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// randomBuilderGraph builds a deterministic labeled-or-not random graph
// through the public Builder path.
func randomBuilderGraph(seed int64, n int, edges int, labels int) *Graph {
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder()
	for i := 0; i < edges; i++ {
		b.AddEdge(uint32(rng.Intn(n)), uint32(rng.Intn(n)))
	}
	if labels > 0 {
		for v := 0; v < n; v++ {
			b.SetLabel(uint32(v), uint32(rng.Intn(labels)))
		}
	}
	return b.Build()
}

func TestRenumberDescendingOrder(t *testing.T) {
	g := randomBuilderGraph(1, 50, 180, 0)
	rg, err := RenumberDescending(g)
	if err != nil {
		t.Fatal(err)
	}
	if !rg.DegreeDescending() {
		t.Fatal("renumbered graph does not report DegreeDescending")
	}
	if g.DegreeDescending() {
		t.Fatal("source graph must stay degree-ascending")
	}
	n := rg.NumVertices()
	for v := uint32(1); v < n; v++ {
		if rg.Degree(v-1) < rg.Degree(v) {
			t.Fatalf("degrees not non-increasing at %d: %d < %d", v, rg.Degree(v-1), rg.Degree(v))
		}
	}
	if rg.MaxDegree() != g.MaxDegree() {
		t.Fatalf("MaxDegree %d != %d", rg.MaxDegree(), g.MaxDegree())
	}
	if rg.NumEdges() != g.NumEdges() || rg.NumVertices() != g.NumVertices() {
		t.Fatal("vertex/edge counts changed")
	}
}

// TestRenumberDescendingIsomorphic checks that the renumbered graph is
// the same graph under the OrigID mapping: every edge maps to an
// original-id edge of the source and vice versa, and labels ride along.
func TestRenumberDescendingIsomorphic(t *testing.T) {
	for _, labels := range []int{0, 4} {
		g := randomBuilderGraph(2, 60, 240, labels)
		rg, err := RenumberDescending(g)
		if err != nil {
			t.Fatal(err)
		}
		type edge struct{ u, v uint32 }
		edgeSet := func(gr *Graph) map[edge]bool {
			m := make(map[edge]bool)
			for x := uint32(0); x < gr.NumVertices(); x++ {
				for _, y := range gr.Adj(x) {
					a, b := gr.OrigID(x), gr.OrigID(y)
					if a > b {
						a, b = b, a
					}
					m[edge{a, b}] = true
				}
			}
			return m
		}
		ge, re := edgeSet(g), edgeSet(rg)
		if len(ge) != len(re) {
			t.Fatalf("labels=%d: edge sets differ in size: %d vs %d", labels, len(ge), len(re))
		}
		for e := range ge {
			if !re[e] {
				t.Fatalf("labels=%d: original edge %v missing after renumbering", labels, e)
			}
		}
		// Labels must follow their vertices through the permutation.
		lbl := func(gr *Graph) map[uint32]uint32 {
			m := make(map[uint32]uint32)
			for v := uint32(0); v < gr.NumVertices(); v++ {
				m[gr.OrigID(v)] = gr.Label(v)
			}
			return m
		}
		gl, rl := lbl(g), lbl(rg)
		for ov, l := range gl {
			if rl[ov] != l {
				t.Fatalf("labels=%d: label of original vertex %d changed: %d -> %d", labels, ov, l, rl[ov])
			}
		}
		if rg.NumLabels() != g.NumLabels() || rg.Labeled() != g.Labeled() {
			t.Fatalf("labels=%d: label metadata changed", labels)
		}
	}
}

func TestRenumberedBinaryRoundTrip(t *testing.T) {
	g := randomBuilderGraph(3, 40, 150, 3)
	rg, err := RenumberDescending(g)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, rg); err != nil {
		t.Fatal(err)
	}
	// Heap reader.
	back, err := ReadBinary(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !back.DegreeDescending() {
		t.Fatal("ReadBinary dropped the descending-degree flag")
	}
	// Mmap loader (or its fallback) through a real file.
	path := filepath.Join(t.TempDir(), "g.pgr")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	mapped, err := LoadBinary(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	if !mapped.DegreeDescending() {
		t.Fatal("LoadBinary dropped the descending-degree flag")
	}
	st, err := StatBinary(path)
	if err != nil {
		t.Fatal(err)
	}
	if !st.DegreeDesc {
		t.Fatal("StatBinary dropped the descending-degree flag")
	}
	// An un-renumbered graph must not pick the flag up.
	var buf2 bytes.Buffer
	if err := WriteBinary(&buf2, g); err != nil {
		t.Fatal(err)
	}
	back2, err := ReadBinary(bytes.NewReader(buf2.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if back2.DegreeDescending() {
		t.Fatal("ascending graph round-tripped as descending")
	}
}

func TestRenumberedShardedRoundTrip(t *testing.T) {
	g := randomBuilderGraph(4, 80, 320, 0)
	rg, err := RenumberDescending(g)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	mpath := filepath.Join(dir, "g.manifest")
	m, err := SaveSharded(mpath, rg, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Stat.DegreeDesc {
		t.Fatal("manifest lost the descending-degree flag")
	}
	// The written manifest must carry the desc token and parse back.
	raw, err := os.ReadFile(mpath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(raw, []byte(" desc")) {
		t.Fatalf("manifest missing desc token:\n%s", raw)
	}
	sg, err := LoadSharded(mpath)
	if err != nil {
		t.Fatal(err)
	}
	defer sg.Close()
	if !sg.DegreeDescending() {
		t.Fatal("sharded graph does not report DegreeDescending")
	}
	// Adjacency and OrigID must agree vertex by vertex with the source.
	checkShardedEquals(t, rg, sg)
	// A default-ordered graph's manifest must stay in the 5-field format.
	m2path := filepath.Join(dir, "asc.manifest")
	if _, err := SaveSharded(m2path, g, 2); err != nil {
		t.Fatal(err)
	}
	raw2, err := os.ReadFile(m2path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(raw2, []byte("desc")) {
		t.Fatal("ascending manifest gained a desc token")
	}
}

func TestBuildHubBitsets(t *testing.T) {
	g := randomBuilderGraph(6, 64, 400, 0)
	base := g.Bytes()
	const minDeg = 8
	count := g.BuildHubBitsets(minDeg)
	wantCount := 0
	for v := uint32(0); v < g.NumVertices(); v++ {
		if g.Degree(v) >= minDeg {
			wantCount++
		}
	}
	if count != wantCount {
		t.Fatalf("BuildHubBitsets = %d, want %d", count, wantCount)
	}
	all := make([]uint32, g.NumVertices())
	for i := range all {
		all[i] = uint32(i)
	}
	for v := uint32(0); v < g.NumVertices(); v++ {
		hb := g.HubBits(v)
		if (g.Degree(v) >= minDeg) != (hb != nil) {
			t.Fatalf("vertex %d (deg %d): hub bitmap presence wrong", v, g.Degree(v))
		}
		if hb == nil {
			continue
		}
		// Probing every vertex must return exactly v's neighbors.
		if got := hb.FilterSortedInto(nil, all); !slices.Equal(got, g.Adj(v)) {
			t.Fatalf("vertex %d: bitmap holds %v, adjacency %v", v, got, g.Adj(v))
		}
	}
	if wantCount > 0 && g.Bytes() <= base {
		t.Fatal("Bytes does not account for hub bitsets")
	}
	g.BuildHubBitsets(0)
	if g.HubBits(g.NumVertices()-1) != nil || g.Bytes() != base {
		t.Fatal("BuildHubBitsets(0) must drop the bitsets and their accounting")
	}
}
