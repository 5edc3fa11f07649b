package graph_test

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"peregrine/internal/core"
	"peregrine/internal/graph"
	"peregrine/internal/pattern"
	"peregrine/internal/plan"
)

// descGolden pins the degree-descending files under testdata/golden by
// content hash. They hold seeded.pgr's graph renumbered hubs-first,
// written as a .pgr with header flag bit 3 set and as a 2-shard manifest
// carrying the desc token, by the writers of the last version whose
// gengraph had -renumber.
var descGolden = map[string]string{
	"desc.pgr":        "5e3302b979d1e44f861e2a2132f8530d9ebc027152e16268066ffc0e7bedb965",
	"desc.manifest":   "1695b11ca60973e3967e96c4155d23af5062e401bccc280f12fa6b5e50eee339",
	"desc.shard0.pgr": "8de66de46aa26ea0f3d35db6751a470c9844f0575d426f248d9125a5d5f8ddbe",
	"desc.shard1.pgr": "77c9b1a1160e48439cf85a110e7aff5fa8825fc33da8d562073cb1e474c3ffe3",
}

// TestDescGoldenStillLoads: hubs-first files written before renumbering
// left the product load, pass validation, report DegreeDescending, and
// count the triangles and wedges the flat golden counts.
func TestDescGoldenStillLoads(t *testing.T) {
	for name, want := range descGolden {
		raw, err := os.ReadFile(filepath.Join("testdata", "golden", name))
		if sum := sha256.Sum256(raw); err != nil || hex.EncodeToString(sum[:]) != want {
			t.Errorf("%s: bytes differ from the file the old writers produced (read error %v)", name, err)
		}
	}
	flat := loadGolden(t, "seeded.pgr")
	if flat.DegreeDescending() {
		t.Fatal("seeded.pgr reports DegreeDescending")
	}
	want := trianglesAndWedges(t, flat)
	t.Logf("seeded.pgr: triangles, wedges = %v", want)
	for _, name := range []string{"desc.pgr", "desc.manifest"} {
		g := loadGolden(t, name)
		if !g.DegreeDescending() {
			t.Errorf("%s: DegreeDescending is false", name)
		}
		if got := trianglesAndWedges(t, g); got != want {
			t.Errorf("%s: triangles, wedges = %v; the flat golden has %v", name, got, want)
		}
	}
}

func loadGolden(t *testing.T, name string) *graph.Graph {
	t.Helper()
	src, err := graph.OpenPath(filepath.Join("testdata", "golden", name))
	if err != nil {
		t.Fatal(err)
	}
	g, err := src.Load()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	t.Cleanup(func() { g.Close() })
	return g
}

// trianglesAndWedges counts both patterns with the engine.
func trianglesAndWedges(t *testing.T, g *graph.Graph) (out [2]uint64) {
	t.Helper()
	for i, p := range []*pattern.Pattern{pattern.Clique(3), pattern.MustParse("0-1 1-2")} {
		pl, err := plan.New(p, plan.Options{})
		if err != nil {
			t.Fatal(err)
		}
		out[i] = core.RunPlans(g, []*plan.Plan{pl}, nil, core.Options{Threads: 2}).Per[0].Matches
	}
	return out
}
