package graph

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// randomTestGraph builds a connected-ish random graph, optionally
// labeled, for shard round-trip checks.
func randomTestGraph(t *testing.T, n uint32, edges int, labels uint32, seed int64) *Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder()
	for v := uint32(1); v < n; v++ {
		b.AddEdge(v, uint32(rng.Intn(int(v)))) // spanning connectivity
	}
	for i := 0; i < edges; i++ {
		b.AddEdge(uint32(rng.Intn(int(n))), uint32(rng.Intn(int(n))))
	}
	if labels > 0 {
		for v := uint32(0); v < n; v++ {
			b.SetLabel(v, rng.Uint32()%labels)
		}
	}
	return b.Build()
}

// checkShardedEquals asserts that sg answers every Graph accessor
// identically to g — the union of the fragments IS the original CSR.
func checkShardedEquals(t *testing.T, g, sg *Graph) {
	t.Helper()
	if err := shardedDiff(g, sg); err != nil {
		t.Fatal(err)
	}
}

// shardedDiff returns the first accessor on which sg and g disagree.
func shardedDiff(g, sg *Graph) error {
	if StatOf(sg) != StatOf(g) {
		return fmt.Errorf("stat mismatch: sharded %+v, whole %+v", StatOf(sg), StatOf(g))
	}
	s1, s2 := sg.DegreeMoments()
	if g1, g2 := g.DegreeMoments(); s1 != g1 || s2 != g2 {
		return fmt.Errorf("DegreeMoments: sharded %v, %v; whole %v, %v", s1, s2, g1, g2)
	}
	for v := uint32(0); v < g.NumVertices(); v++ {
		if !slices.Equal(sg.Adj(v), g.Adj(v)) {
			return fmt.Errorf("Adj(%d): sharded %v != whole %v", v, sg.Adj(v), g.Adj(v))
		}
		if sg.Label(v) != g.Label(v) || sg.OrigID(v) != g.OrigID(v) {
			return fmt.Errorf("vertex %d: label %d/%d, origID %d/%d", v, sg.Label(v), g.Label(v), sg.OrigID(v), g.OrigID(v))
		}
		// HasEdge, both argument orders: every neighbour (the endpoints may
		// sit in different fragments) and one probe that is mostly a miss.
		for _, u := range append(slices.Clone(g.Adj(v)), (v*7+3)%g.NumVertices()) {
			if want := g.HasEdge(v, u); sg.HasEdge(v, u) != want || sg.HasEdge(u, v) != want {
				return fmt.Errorf("HasEdge(%d, %d): sharded %v/%v, whole %v", v, u, sg.HasEdge(v, u), sg.HasEdge(u, v), want)
			}
		}
	}
	return nil
}

func TestSplitGraphUnionReconstructsOriginal(t *testing.T) {
	for _, tc := range []struct {
		name   string
		labels uint32
	}{{"unlabeled", 0}, {"labeled", 7}} {
		t.Run(tc.name, func(t *testing.T) {
			g := randomTestGraph(t, 500, 2000, tc.labels, 42)
			for _, shards := range []int{1, 3, 4, 7} {
				frags, err := SplitGraph(g, shards)
				if err != nil || len(frags) != shards {
					t.Fatalf("SplitGraph(%d) returned %d fragments, error %v", shards, len(frags), err)
				}
				// Fragments cover [0, n) contiguously and agree with the
				// original adjacency on every owned vertex.
				next := uint32(0)
				for _, f := range frags {
					p := &f.pieces[0]
					if p.lo != next {
						t.Fatalf("fragment starts at %d, want %d", p.lo, next)
					}
					for v := p.lo; v < p.hi(); v++ {
						if !slices.Equal(f.Adj(v), g.Adj(v)) {
							t.Fatalf("shards=%d Adj(%d) mismatch", shards, v)
						}
					}
					next = p.hi()
				}
				if next != g.NumVertices() {
					t.Fatalf("fragments cover [0,%d), want [0,%d)", next, g.NumVertices())
				}
			}
		})
	}
}

// TestSaveShardedRoundTrip is the sharded-equals-whole table: a labeled
// and an unlabeled graph saved at every piece count that routes
// differently — one piece, two, the usual four, an odd seven and one
// vertex per piece — must load back answering every accessor and StatOf
// like the whole graph.
func TestSaveShardedRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name   string
		labels uint32
	}{{"unlabeled", 0}, {"labeled", 5}} {
		t.Run(tc.name, func(t *testing.T) {
			g := randomTestGraph(t, 300, 1200, tc.labels, 7)
			for _, shards := range []int{1, 2, 4, 7, int(g.NumVertices())} {
				dir := t.TempDir()
				path := filepath.Join(dir, "g.manifest")
				m, err := SaveSharded(path, g, shards)
				if err != nil {
					t.Fatalf("SaveSharded(%d): %v", shards, err)
				}
				if len(m.Shards) != shards {
					t.Fatalf("manifest has %d shards, want %d", len(m.Shards), shards)
				}
				sg, err := LoadSharded(path)
				if err != nil {
					t.Fatalf("LoadSharded(%d): %v", shards, err)
				}
				if n := sg.Shards(); n != shards || g.Shards() != 0 {
					t.Fatalf("Shards() = %d sharded, %d whole; want %d, 0", n, g.Shards(), shards)
				}
				checkShardedEquals(t, g, sg)
				// Writing and re-sharding need the rows in one piece.
				if _, err := SplitGraph(sg, 2); (err != nil) != (shards > 1) {
					t.Fatalf("SplitGraph of a %d-piece graph: error %v", shards, err)
				}
				if err := WriteBinary(io.Discard, sg); (err != nil) != (shards > 1) {
					t.Fatalf("WriteBinary of a %d-piece graph: error %v", shards, err)
				}

				// The auto-detecting source path must find the manifest too,
				// and know before a load what the load will hold.
				src, err := OpenPath(path)
				if err != nil {
					t.Fatalf("OpenPath: %v", err)
				}
				if st, err := src.Stat(); err != nil || st != SourceStatOf(sg) {
					t.Fatalf("source stat %+v, %v; the loaded graph says %+v", st, err, SourceStatOf(sg))
				}

				// Every fragment stays mapped until Close, and only until then.
				if n := mappingsUnder(dir); runtime.GOOS == "linux" && n != shards {
					t.Fatalf("loaded graph holds %d fragment mappings, want %d", n, shards)
				}
				if err := sg.Close(); err != nil || mappingsUnder(dir) != 0 {
					t.Fatalf("Close: err %v, %d mappings left", err, mappingsUnder(dir))
				}
			}
		})
	}
}

func TestShardScanConcurrentChurn(t *testing.T) {
	g := randomTestGraph(t, 600, 3000, 3, 5)
	dir := t.TempDir()
	path := filepath.Join(dir, "g.manifest")
	if _, err := SaveSharded(path, g, 6); err != nil {
		t.Fatalf("SaveSharded: %v", err)
	}
	sg, err := LoadSharded(path)
	if err != nil {
		t.Fatalf("LoadSharded: %v", err)
	}
	defer sg.Close()

	// Concurrent full scans (run under -race): every reader must see
	// the exact CSR.
	errs := make(chan error, 8)
	for w := 0; w < cap(errs); w++ {
		go func() { errs <- shardedDiff(g, sg) }()
	}
	for w := 0; w < cap(errs); w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

func TestManifestValidation(t *testing.T) {
	valid := func() *Manifest {
		return &Manifest{
			Stat: Stat{Vertices: 10, Edges: 3},
			Shards: []ShardInfo{
				{Lo: 0, Hi: 4, File: "a.pgr"},
				{Lo: 4, Hi: 10, File: "b.pgr"},
			},
		}
	}
	if err := validateManifest(valid()); err != nil {
		t.Fatalf("valid manifest rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*Manifest)
	}{
		{"gap", func(m *Manifest) { m.Shards[1].Lo = 5 }},
		{"overlap", func(m *Manifest) { m.Shards[1].Lo = 3 }},
		{"empty range", func(m *Manifest) { m.Shards[0].Hi = 0 }},
		{"short coverage", func(m *Manifest) { m.Shards[1].Hi = 9 }},
		{"over coverage", func(m *Manifest) { m.Shards[1].Hi = 11 }},
		{"absolute path", func(m *Manifest) { m.Shards[0].File = "/etc/passwd" }},
		{"dotdot path", func(m *Manifest) { m.Shards[0].File = "../a.pgr" }},
		{"duplicate file", func(m *Manifest) { m.Shards[1].File = "a.pgr" }},
		{"empty file", func(m *Manifest) { m.Shards[0].File = "" }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := valid()
			tc.mut(m)
			if err := validateManifest(m); err == nil {
				t.Fatalf("validateManifest accepted %s", tc.name)
			}
			var buf bytes.Buffer
			if err := WriteManifest(&buf, m); err == nil {
				t.Fatalf("WriteManifest accepted %s", tc.name)
			}
		})
	}

	// Read-side strictness: out-of-order shard lines are rejected even
	// though sorting could "fix" them — a scrambled manifest is corrupt.
	scrambled := "PGRSHARD 1\ngraph 10 3 0 0\nshard 4 10 b.pgr\nshard 0 4 a.pgr\n"
	if _, err := ReadManifest(strings.NewReader(scrambled)); err == nil {
		t.Fatalf("ReadManifest accepted out-of-order shards")
	}
	truncated := "PGRSHARD 1\ngraph 10 3 0 0\nshard 0 4 a.pgr\n"
	if _, err := ReadManifest(strings.NewReader(truncated)); err == nil {
		t.Fatalf("ReadManifest accepted truncated coverage")
	}
}

func TestManifestWriteReadRoundTrip(t *testing.T) {
	m := &Manifest{
		Stat: Stat{Vertices: 100, Edges: 250, Labels: 5, Labeled: true},
		Shards: []ShardInfo{
			{Lo: 0, Hi: 30, File: "x.shard0.pgr"},
			{Lo: 30, Hi: 100, File: "x.shard1.pgr"},
		},
	}
	var buf bytes.Buffer
	if err := WriteManifest(&buf, m); err != nil {
		t.Fatalf("WriteManifest: %v", err)
	}
	got, err := ReadManifest(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadManifest: %v", err)
	}
	if got.Stat != m.Stat || len(got.Shards) != len(m.Shards) {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, m)
	}
	for i := range m.Shards {
		if got.Shards[i] != m.Shards[i] {
			t.Fatalf("shard %d mismatch: %+v vs %+v", i, got.Shards[i], m.Shards[i])
		}
	}
}

func TestFragmentRejectedByPlainLoaders(t *testing.T) {
	g := randomTestGraph(t, 100, 300, 0, 3)
	frags, _ := SplitGraph(g, 2)
	var buf bytes.Buffer
	if err := WriteFragment(&buf, frags[0]); err != nil {
		t.Fatalf("WriteFragment: %v", err)
	}
	if _, err := ReadBinary(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatalf("ReadBinary accepted a shard fragment")
	}
	fragPath := filepath.Join(t.TempDir(), "frag.pgr")
	if err := os.WriteFile(fragPath, buf.Bytes(), 0o644); err != nil {
		t.Fatalf("write fragment: %v", err)
	}
	if _, err := StatBinary(fragPath); err == nil {
		t.Fatalf("StatBinary accepted a shard fragment")
	}
	if _, err := LoadBinary(fragPath); err == nil {
		t.Fatalf("LoadBinary accepted a shard fragment")
	}
	// And the other way round: a whole graph is no fragment.
	buf.Reset()
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatalf("WriteBinary: %v", err)
	}
	if _, err := ReadFragment(&buf); !errors.Is(err, ErrBadFormat) {
		t.Fatalf("ReadFragment of a whole graph: %v, want ErrBadFormat", err)
	}
}

// TestFragmentFileRoundTrip checks the two fragment readers against
// each other and the source: for every fragment of a labeled and an
// unlabeled split, the mapped LoadFragment, the decoding ReadFragment
// and the SplitGraph view that was saved are equal field for field.
func TestFragmentFileRoundTrip(t *testing.T) {
	for _, labels := range []uint32{0, 9} {
		g := randomTestGraph(t, 120, 500, labels, 13)
		frags, _ := SplitGraph(g, 3)
		for i, f := range frags {
			path := filepath.Join(t.TempDir(), "f.pgr")
			if err := SaveFragment(path, f); err != nil {
				t.Fatalf("SaveFragment: %v", err)
			}
			got, err := LoadFragment(path)
			if err != nil {
				t.Fatalf("LoadFragment: %v", err)
			}
			raw, _ := os.ReadFile(path)
			ref, err := ReadFragment(bytes.NewReader(raw))
			if err != nil {
				t.Fatalf("ReadFragment: %v", err)
			}
			unmap := got.pieces[0].release
			got.pieces[0].release = nil // funcs never compare equal
			if !reflect.DeepEqual(got, ref) || !reflect.DeepEqual(ref, f) || got.Bytes() != f.Bytes() {
				t.Fatalf("labels=%d fragment %d: LoadFragment, ReadFragment and the saved view disagree", labels, i)
			}
			got.pieces[0].release = unmap
			if err := got.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
		}
	}
}

// mappingsUnder counts this process's memory mappings of files under
// dir (0 where /proc is unavailable).
func mappingsUnder(dir string) int {
	maps, _ := os.ReadFile("/proc/self/maps")
	return strings.Count(string(maps), dir)
}

// TestShardSetSurfacesMissingFragment: every way a fragment file can be
// wrong fails LoadSharded itself with a typed error — there is no graph
// for FSM or a match stream to answer short from — and the fragments
// mapped before the bad one are unmapped again.
func TestShardSetSurfacesMissingFragment(t *testing.T) {
	g := randomTestGraph(t, 200, 600, 0, 17)
	for name, breakIt := range map[string]func(frag2, frag1 string) error{
		"missing":        func(f2, _ string) error { return os.Remove(f2) },
		"truncated":      func(f2, _ string) error { return os.Truncate(f2, 100) },
		"header corrupt": func(f2, _ string) error { return os.WriteFile(f2, make([]byte, 4096), 0o644) },
		"another shard's range": func(f2, f1 string) error {
			raw, err := os.ReadFile(f1)
			if err != nil {
				return err
			}
			return os.WriteFile(f2, raw, 0o644)
		},
		"whole graph in place of fragment": func(f2, _ string) error { return SaveBinary(f2, g) },
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "g.manifest")
			m, err := SaveSharded(path, g, 4)
			if err != nil {
				t.Fatalf("SaveSharded: %v", err)
			}
			if err := breakIt(filepath.Join(dir, m.Shards[2].File), filepath.Join(dir, m.Shards[1].File)); err != nil {
				t.Fatal(err)
			}
			if _, err := LoadSharded(path); !errors.Is(err, ErrBadFormat) && !errors.Is(err, fs.ErrNotExist) {
				t.Fatalf("LoadSharded error %v wraps neither ErrBadFormat nor fs.ErrNotExist", err)
			}
			if n := mappingsUnder(dir); n != 0 {
				t.Fatalf("failed LoadSharded left %d fragment mappings behind", n)
			}
		})
	}
}

// TestFormatBytesUnchanged pins the on-disk formats: one seeded graph
// written as a .pgr and as a 4-shard manifest must come out byte for
// byte as the files under testdata/golden, which the writers of the
// commit before the storage types were merged produced.
func TestFormatBytesUnchanged(t *testing.T) {
	g := randomTestGraph(t, 60, 200, 3, 24)
	dir := t.TempDir()
	if err := SaveBinary(filepath.Join(dir, "seeded.pgr"), g); err != nil {
		t.Fatal(err)
	}
	if _, err := SaveSharded(filepath.Join(dir, "seeded.manifest"), g, 4); err != nil {
		t.Fatal(err)
	}
	golden, _ := filepath.Glob(filepath.Join("testdata", "golden", "seeded.*"))
	if len(golden) != 6 {
		t.Fatalf("testdata/golden holds %d files, want the .pgr, the manifest and 4 fragments", len(golden))
	}
	for _, want := range golden {
		a, _ := os.ReadFile(want)
		b, err := os.ReadFile(filepath.Join(dir, filepath.Base(want)))
		if err != nil || !bytes.Equal(a, b) {
			t.Errorf("%s: written bytes differ from the golden file (read error %v)", filepath.Base(want), err)
		}
	}
}
