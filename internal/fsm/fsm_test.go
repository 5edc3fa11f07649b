package fsm

import (
	"fmt"
	"testing"

	"peregrine/internal/core"
	"peregrine/internal/gen"
	"peregrine/internal/graph"
	"peregrine/internal/mni"
	"peregrine/internal/pattern"
)

func labeledPath() *graph.Graph {
	// Path A-B-A-B-A: supports for the A-B edge pattern are easy to
	// compute by hand.
	b := graph.NewBuilder()
	for i := uint32(0); i < 4; i++ {
		b.AddEdge(i, i+1)
	}
	for i := uint32(0); i <= 4; i++ {
		b.SetLabel(i, uint32(i%2)) // 0,1,0,1,0
	}
	return b.Build()
}

func TestMineSingleEdgeLevel(t *testing.T) {
	g := labeledPath()
	// Edges: all four are (A,B)-labeled. MNI domains: A side {0,2,4}
	// (three vertices), B side {1,3} -> support 2.
	res, err := Mine(g, 1, 2, core.Options{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Frequent) != 1 {
		t.Fatalf("frequent = %v, want 1 pattern", res.Frequent)
	}
	if res.Frequent[0].Support != 2 {
		t.Fatalf("support = %d, want 2", res.Frequent[0].Support)
	}
	// At threshold 3 nothing survives.
	res, err = Mine(g, 1, 3, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Frequent) != 0 {
		t.Fatalf("expected nothing frequent at support 3, got %v", res.Frequent)
	}
}

// Labels that agree in their low 16 bits are still different labels:
// an A-A edge and a B-B edge with B = A + 2¹⁶ are two patterns of
// support 2, not one of support 4.
func TestMineKeepsWideLabelsApart(t *testing.T) {
	b := graph.NewBuilder()
	b.AddEdge(0, 1)
	b.AddEdge(2, 3)
	for v, l := range []uint32{1, 1, 1 + 1<<16, 1 + 1<<16} {
		b.SetLabel(uint32(v), l)
	}
	res, err := Mine(b.Build(), 1, 1, core.Options{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Frequent) != 2 || res.Frequent[0].Support != 2 || res.Frequent[1].Support != 2 {
		t.Fatalf("frequent = %v, want two labeled edges of support 2", res.Frequent)
	}
}

func TestMineWedgeLevel(t *testing.T) {
	g := labeledPath()
	// 2-edge patterns: wedges A-B-A (center B: vertices 1,3 -> two
	// wedges 0-1-2, 2-3-4) and B-A-B (center A: one wedge 1-2-3).
	// A-B-A domains: center {1,3} (2), ends {0,2,4} (3) -> support 2.
	// B-A-B domains: center {2} (1) -> support 1.
	res, err := Mine(g, 2, 2, core.Options{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Frequent) != 1 {
		t.Fatalf("frequent 2-edge = %d patterns, want 1 (A-B-A)", len(res.Frequent))
	}
	f := res.Frequent[0]
	if f.Support != 2 {
		t.Fatalf("A-B-A support = %d, want 2", f.Support)
	}
	// The pattern must be a wedge with a uniquely-labeled center.
	if f.Pattern.NumEdges() != 2 || f.Pattern.N() != 3 {
		t.Fatalf("unexpected pattern shape: %v", f.Pattern)
	}
}

func TestMineLevelStatsAndDomains(t *testing.T) {
	g := gen.ErdosRenyi(gen.ERConfig{Vertices: 80, Edges: 200, Seed: 51, Labels: 2})
	res, err := Mine(g, 2, 4, core.Options{Threads: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Levels) == 0 {
		t.Fatal("no level stats")
	}
	lvl1 := res.Levels[0]
	if lvl1.Edges != 1 || lvl1.QueriesMatched != 1 {
		t.Fatalf("level 1 stats: %+v", lvl1)
	}
	// Three labelings of a single edge over two labels.
	if lvl1.LabeledDiscovered != 3 {
		t.Fatalf("discovered %d single-edge labelings, want 3", lvl1.LabeledDiscovered)
	}
	if res.DomainBytes <= 0 {
		t.Fatal("domain memory accounting missing")
	}
}

func TestMineWithoutSymmetryBreakingAgrees(t *testing.T) {
	// PRG-U mode revisits automorphic matches; domains are sets, so the
	// frequent patterns and supports must be identical. The second case
	// has a level of several hundred query patterns — more than one
	// levelChunk — whose discovered label vectors collide across queries.
	for _, tc := range []struct {
		g              *graph.Graph
		edges, support int
		minQueries     int
	}{
		{gen.ErdosRenyi(gen.ERConfig{Vertices: 60, Edges: 150, Seed: 52, Labels: 2}), 2, 5, 1},
		{gen.ErdosRenyi(gen.ERConfig{Vertices: 80, Edges: 240, Seed: 52, Labels: 6}), 3, 2, levelChunk + 50},
	} {
		a, err := Mine(tc.g, tc.edges, tc.support, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		b, err := Mine(tc.g, tc.edges, tc.support, core.Options{NoSymmetryBreaking: true})
		if err != nil {
			t.Fatal(err)
		}
		if got := a.Levels[len(a.Levels)-1].QueriesMatched; got < tc.minQueries {
			t.Fatalf("last level matched %d queries, want >= %d", got, tc.minQueries)
		}
		if len(a.Frequent) == 0 || len(a.Frequent) != len(b.Frequent) {
			t.Fatalf("PRG %d frequent vs PRG-U %d", len(a.Frequent), len(b.Frequent))
		}
		sb := make(map[string]int)
		for _, f := range b.Frequent {
			sb[f.Pattern.CanonicalCode()] = f.Support
		}
		for _, f := range a.Frequent {
			if code := f.Pattern.CanonicalCode(); sb[code] != f.Support {
				t.Fatalf("support mismatch for %q: %d vs %d", code, f.Support, sb[code])
			}
		}
	}
}

// TestBatchedLevelEqualsPerQuery runs one large level both ways: all
// queries through matchLevel's shared traversals, and one matchLevel per
// query into one map of domains. Every discovered labeling must get the
// same support and the same domain bytes.
func TestBatchedLevelEqualsPerQuery(t *testing.T) {
	g := gen.ErdosRenyi(gen.ERConfig{Vertices: 80, Edges: 240, Seed: 52, Labels: 6})
	opts := core.Options{Threads: 3}
	res, err := Mine(g, 2, 2, opts)
	if err != nil {
		t.Fatal(err)
	}
	var wedges []*pattern.Pattern
	for _, f := range res.Frequent {
		wedges = append(wedges, f.Pattern)
	}
	queries := pattern.ExtendByEdge(wedges)
	if len(queries) <= levelChunk {
		t.Fatalf("level has %d queries, want more than one chunk (%d)", len(queries), levelChunk)
	}
	batched := make(map[string]*mni.Domain)
	if _, err := matchLevel(g, queries, batched, opts); err != nil {
		t.Fatal(err)
	}
	serial := make(map[string]*mni.Domain)
	for i := range queries {
		if _, err := matchLevel(g, queries[i:i+1], serial, opts); err != nil {
			t.Fatal(err)
		}
	}
	if len(batched) != len(serial) {
		t.Fatalf("batched level discovered %d labelings, per-query %d", len(batched), len(serial))
	}
	for code, d := range serial {
		got := batched[code]
		if got == nil {
			t.Errorf("labeling %q: missing from the batched level", code)
		} else if got.Support() != d.Support() || got.SizeBytes() != d.SizeBytes() {
			t.Errorf("labeling %q: per-query support %d in %d bytes, batched %d in %d",
				code, d.Support(), d.SizeBytes(), got.Support(), got.SizeBytes())
		}
	}
}

func TestMineValidation(t *testing.T) {
	unlabeled := graph.FromEdges([]graph.Edge{{Src: 0, Dst: 1}})
	if _, err := Mine(unlabeled, 2, 2, core.Options{}); err == nil {
		t.Error("unlabeled graph accepted")
	}
	g := labeledPath()
	if _, err := Mine(g, 0, 2, core.Options{}); err == nil {
		t.Error("maxEdges 0 accepted")
	}
	if _, err := Mine(g, 2, 0, core.Options{}); err == nil {
		t.Error("support 0 accepted")
	}
}

// Two labelings of one query that are isomorphic as labeled patterns
// fold into one domain: the wedges centered at path vertices 1 and 3
// (center B, ends A and A) share the code, and the wedge centered at 2
// (center A) gets its own.
func TestIsomorphicLabelingsShareDomain(t *testing.T) {
	g := labeledPath()
	domains := make(map[string]*mni.Domain)
	stopped, err := matchLevel(g, []*pattern.Pattern{pattern.Star(3)}, domains, core.Options{Threads: 2})
	if err != nil || stopped {
		t.Fatalf("matchLevel: stopped %v, err %v", stopped, err)
	}
	if len(domains) != 2 {
		t.Fatalf("discovered %d labeled wedges, want 2", len(domains))
	}
	supports := make(map[pattern.Label]int) // by the center's label
	for _, d := range domains {
		p := d.Pattern()
		center := 0
		for v := range p.N() {
			if p.Degree(v) == 2 {
				center = v
			}
		}
		supports[p.LabelOf(center)] = d.Support()
	}
	// Center B: centers {1,3}, ends {0,2,4}. Center A: center {2}.
	if supports[1] != 2 || supports[0] != 1 {
		t.Fatalf("supports by center label = %v, want B:2 A:1", supports)
	}
}

// Each thread tallies its own matches and the fold merges the tallies:
// the frequent set, its supports and the domain memory must not depend
// on how many threads matched. The third level has over 200 queries,
// so its tallies are folded chunk by chunk.
func TestMineThreadCountInvariance(t *testing.T) {
	g := gen.RMAT(gen.RMATConfig{Vertices: 256, Edges: 1500, Seed: 7, Labels: 8})
	summary := func(threads int) (string, int) {
		res, err := Mine(g, 3, 10, core.Options{Threads: threads})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Frequent) == 0 {
			t.Fatalf("threads %d: nothing frequent", threads)
		}
		s := ""
		for _, f := range res.Frequent {
			s += fmt.Sprintf("%s:%d ", f.Pattern.CanonicalCode(), f.Support)
		}
		return s, res.DomainBytes
	}
	want, wantBytes := summary(1)
	for _, threads := range []int{2, 7} {
		if got, bytes := summary(threads); got != want || bytes != wantBytes {
			t.Errorf("threads %d: %d domain bytes, frequent %q; one thread: %d, %q", threads, bytes, got, wantBytes, want)
		}
	}
}
