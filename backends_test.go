package peregrine

// Differential tests across storage backends: the same logical graph
// served three ways — the in-memory build, a parsed text edge list,
// and the mmap-backed .pgr binary — must produce identical match
// counts for every generated pattern. The backends share the Graph
// type but arrive at its arrays by entirely different routes (builder
// renumbering, text round-trip re-parse, zero-copy aliasing of a
// mapped file), so agreement checks the storage layer end to end.

import (
	"errors"
	"path/filepath"
	"testing"

	"peregrine/internal/gen"
	"peregrine/internal/pattern"
)

// backendGraphs materializes g through all three storage backends.
func backendGraphs(t *testing.T, g *Graph) map[string]*Graph {
	t.Helper()
	dir := t.TempDir()
	txt := filepath.Join(dir, "g.txt")
	pgr := filepath.Join(dir, "g.pgr")
	if err := SaveGraph(txt, g); err != nil {
		t.Fatal(err)
	}
	if err := SaveGraph(pgr, g); err != nil {
		t.Fatal(err)
	}
	out := map[string]*Graph{"memory": g}
	for name, path := range map[string]string{"edgelist": txt, "pgr": pgr} {
		src, err := Open(path)
		if err != nil {
			t.Fatalf("Open(%s): %v", name, err)
		}
		lg, err := src.Load()
		if err != nil {
			t.Fatalf("Load(%s): %v", name, err)
		}
		t.Cleanup(func() { lg.Close() })
		out[name] = lg
	}
	return out
}

func TestBackendsIdenticalCounts(t *testing.T) {
	// Small but structure-rich graphs: every generated pattern has
	// matches, and the full 3-backend sweep stays test-suite fast.
	graphs := map[string]*Graph{
		"rmat":    gen.RMAT(gen.RMATConfig{Vertices: 600, Edges: 3000, Seed: 11}),
		"labeled": StandardDataset(PatentsLabeled, 1),
	}
	// All connected patterns with up to 4 vertices, via both generators.
	var pats []*Pattern
	for size := 2; size <= 4; size++ {
		pats = append(pats, pattern.GenerateAllVertexInduced(size)...)
	}
	for edges := 1; edges <= 4; edges++ {
		for _, p := range pattern.GenerateAllEdgeInduced(edges) {
			if p.N() <= 4 {
				pats = append(pats, p)
			}
		}
	}

	for gname, g := range graphs {
		t.Run(gname, func(t *testing.T) {
			backends := backendGraphs(t, g)
			want, err := CountMany(backends["memory"], pats)
			if err != nil {
				t.Fatal(err)
			}
			for _, bname := range []string{"edgelist", "pgr"} {
				got, err := CountMany(backends[bname], pats)
				if err != nil {
					t.Fatalf("%s: %v", bname, err)
				}
				for i := range pats {
					if got[i] != want[i] {
						t.Errorf("%s: pattern %v counts %d, memory backend counts %d",
							bname, pats[i], got[i], want[i])
					}
				}
			}
		})
	}
}

// Open must classify formats correctly and report pre-load metadata
// for the binary.
func TestOpenStatAndFormats(t *testing.T) {
	g := StandardDataset(MicoLite, 1)
	dir := t.TempDir()
	txt := filepath.Join(dir, "g.txt")
	pgr := filepath.Join(dir, "g.pgr")
	if err := SaveGraph(txt, g); err != nil {
		t.Fatal(err)
	}
	if err := SaveGraph(pgr, g); err != nil {
		t.Fatal(err)
	}

	bsrc, err := Open(pgr)
	if err != nil {
		t.Fatal(err)
	}
	st, err := bsrc.Stat()
	if err != nil {
		t.Fatalf("binary Stat: %v", err)
	}
	if st.Vertices != g.NumVertices() || st.Edges != g.NumEdges() || st.Labels != g.NumLabels() {
		t.Fatalf("binary Stat = %+v, want %d/%d/%d", st, g.NumVertices(), g.NumEdges(), g.NumLabels())
	}
	if st.Bytes != g.Bytes() {
		t.Fatalf("binary source predicts %d resident bytes, the graph holds %d", st.Bytes, g.Bytes())
	}

	esrc, err := Open(txt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := esrc.Stat(); !errors.Is(err, ErrNoStat) {
		t.Fatalf("edge-list Stat error = %v, want ErrNoStat", err)
	}

	if _, err := Open(filepath.Join(dir, "missing.txt")); err == nil {
		t.Fatal("Open of a missing path succeeded")
	}
	if _, err := Open(txt, WithFormat("bogus")); err == nil {
		t.Fatal("Open with unknown format succeeded")
	}
	// Forcing the format skips sniffing.
	fsrc, err := Open(pgr, WithFormat(FormatBinary))
	if err != nil {
		t.Fatal(err)
	}
	lg, err := fsrc.Load()
	if err != nil {
		t.Fatal(err)
	}
	defer lg.Close()
	if lg.NumEdges() != g.NumEdges() {
		t.Fatalf("forced-format load: %v, want %v", lg, g)
	}
}

// WithPlanCache isolates compilation: queries through a private cache
// must not touch the process-wide one.
func TestWithPlanCacheIsolation(t *testing.T) {
	pc := NewPlanCache(8)
	g := GraphFromEdges([][2]uint32{{0, 1}, {1, 2}, {2, 0}, {2, 3}})
	// A pattern shape unlikely to be cached globally by other tests.
	p := MustParsePattern("0-1 1-2 2-3 3-0 0-2 [0:901] [1:902] [2:903] [3:904]")
	gh0, gm0 := PlanCacheStats()
	if _, err := Count(g, p, WithPlanCache(pc)); err != nil {
		t.Fatal(err)
	}
	if _, err := Count(g, p, WithPlanCache(pc)); err != nil {
		t.Fatal(err)
	}
	hits, misses := pc.Stats()
	if misses != 1 || hits != 1 {
		t.Fatalf("private cache hits/misses = %d/%d, want 1/1", hits, misses)
	}
	if pc.Len() != 1 {
		t.Fatalf("private cache Len = %d, want 1", pc.Len())
	}
	gh1, gm1 := PlanCacheStats()
	if gh1 != gh0 || gm1 != gm0 {
		t.Fatalf("process-wide cache stats moved: %d/%d -> %d/%d", gh0, gm0, gh1, gm1)
	}
}
