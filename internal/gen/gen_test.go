package gen

import (
	"strings"
	"testing"

	"peregrine/internal/graph"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	for i := 0; i < 1000; i++ {
		if a.Next() != b.Next() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRNG(8)
	same := true
	a2 := NewRNG(7)
	for i := 0; i < 10; i++ {
		if a2.Next() != c.Next() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
	// Zero seed must not get stuck at the xorshift fixed point.
	z := NewRNG(0)
	if z.Next() == 0 && z.Next() == 0 {
		t.Fatal("zero seed produced zeros")
	}
}

func TestRMATDeterministicAndShaped(t *testing.T) {
	g1 := RMAT(RMATConfig{Vertices: 1024, Edges: 10000, Seed: 3})
	g2 := RMAT(RMATConfig{Vertices: 1024, Edges: 10000, Seed: 3})
	if g1.NumVertices() != g2.NumVertices() || g1.NumEdges() != g2.NumEdges() {
		t.Fatal("same config produced different graphs")
	}
	if g1.NumEdges() == 0 {
		t.Fatal("empty RMAT graph")
	}
	// Power-law shape: the max degree should far exceed the average.
	if float64(g1.MaxDegree()) < 5*meanDegree(g1) {
		t.Errorf("RMAT not skewed: max=%d avg=%.1f", g1.MaxDegree(), meanDegree(g1))
	}
}

// meanDegree returns g's mean vertex degree.
func meanDegree(g *graph.Graph) float64 {
	mean, _ := g.DegreeMoments()
	return mean
}

func TestErdosRenyiCapsDegree(t *testing.T) {
	g := ErdosRenyi(ERConfig{Vertices: 2048, Edges: 30000, MaxDegree: 20, Seed: 5})
	if g.MaxDegree() > 20 {
		t.Fatalf("degree cap violated: %d", g.MaxDegree())
	}
	// Flat shape: max degree within a small factor of the mean.
	if float64(g.MaxDegree()) > 4*meanDegree(g) {
		t.Errorf("capped ER should be flat: max=%d avg=%.1f", g.MaxDegree(), meanDegree(g))
	}
}

func TestLabelsAssigned(t *testing.T) {
	g := RMAT(RMATConfig{Vertices: 512, Edges: 4000, Seed: 9, Labels: 7})
	if !g.Labeled() {
		t.Fatal("labels requested but missing")
	}
	if g.NumLabels() == 0 || g.NumLabels() > 7 {
		t.Fatalf("NumLabels = %d, want 1..7", g.NumLabels())
	}
	for v := uint32(0); v < g.NumVertices(); v++ {
		if l := g.Label(v); l >= 7 {
			t.Fatalf("label %d out of range", l)
		}
	}
}

func TestStandardDatasets(t *testing.T) {
	for _, d := range Datasets {
		g := Standard(d, 1)
		if g.NumVertices() == 0 || g.NumEdges() == 0 {
			t.Errorf("dataset %s is empty", d)
		}
	}
	if !Standard(MicoLite, 1).Labeled() {
		t.Error("mico-lite must be labeled")
	}
	if Standard(OrkutLite, 1).Labeled() {
		t.Error("orkut-lite must be unlabeled")
	}
	// Density ordering must match the paper's datasets.
	mico := Standard(MicoLite, 1)
	orkut := Standard(OrkutLite, 1)
	patents := Standard(PatentsLite, 1)
	if !(meanDegree(orkut) > meanDegree(mico) && meanDegree(mico) > meanDegree(patents)) {
		t.Errorf("density ordering broken: orkut=%.1f mico=%.1f patents=%.1f",
			meanDegree(orkut), meanDegree(mico), meanDegree(patents))
	}
	// Scale grows the graph.
	if Standard(MicoLite, 2).NumVertices() <= mico.NumVertices() {
		t.Error("scale 2 should be larger than scale 1")
	}
}

// TestParseDataset: a known name maps to its stand-in; anything else —
// a typo, or no name at all — is an error naming every valid choice
// rather than Standard's fallback graph.
func TestParseDataset(t *testing.T) {
	if d, err := ParseDataset("orkut-lite"); err != nil || d != OrkutLite {
		t.Fatalf(`ParseDataset("orkut-lite") = %q, %v; want %q, nil`, d, err, OrkutLite)
	}
	for _, name := range []string{"orkut-light", ""} {
		d, err := ParseDataset(name)
		if err == nil {
			t.Fatalf("ParseDataset(%q) = %q, want an error", name, d)
		}
		for _, want := range Datasets {
			if !strings.Contains(err.Error(), string(want)) {
				t.Errorf("ParseDataset(%q) error %q does not name %s", name, err, want)
			}
		}
	}
}
