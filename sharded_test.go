package peregrine

// Differential tests for sharded storage: the same graph mined three
// ways — whole in memory, through a shard manifest, and by the
// pattern-oblivious baselines — must agree exactly, for unlabeled and
// labeled patterns alike. Task-range additivity (the scale-out
// primitive) is checked as a property: disjoint ranges' counts sum to
// the whole-graph counts.

import (
	"fmt"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"testing"

	"peregrine/internal/baseline"
	"peregrine/internal/gen"
	"peregrine/internal/pattern"
)

// shardedCopy writes g as a sharded manifest in a temp dir and loads
// it back.
func shardedCopy(t *testing.T, g *Graph, shards int) *Graph {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.manifest")
	if err := SaveShardedGraph(path, g, shards); err != nil {
		t.Fatalf("SaveShardedGraph: %v", err)
	}
	sg, err := LoadGraph(path)
	if err != nil {
		t.Fatalf("LoadGraph: %v", err)
	}
	t.Cleanup(func() { sg.Close() })
	return sg
}

// TestDifferentialShardedUnlabeled mines every connected vertex-induced
// pattern of 2..5 vertices on the whole graph, on its sharded copy, and
// through the baseline motif census; all three must agree.
func TestDifferentialShardedUnlabeled(t *testing.T) {
	maxSize := 5
	if testing.Short() {
		maxSize = 4
	}
	g := gen.ErdosRenyi(gen.ERConfig{Vertices: 64, Edges: 140, Seed: 12})
	sg := shardedCopy(t, g, 8)
	for size := 2; size <= maxSize; size++ {
		want, _ := baseline.MotifCountsDFS(g, size, 4)
		for _, p := range pattern.GenerateAllVertexInduced(size) {
			vip := pattern.VertexInduced(p)
			whole, err := Count(g, vip, WithThreads(4))
			if err != nil {
				t.Fatalf("whole count %v: %v", p, err)
			}
			sharded, err := Count(sg, vip, WithThreads(4))
			if err != nil {
				t.Fatalf("sharded count %v: %v", p, err)
			}
			base := want[p.CanonicalCode()]
			if whole != base || sharded != base {
				t.Errorf("size %d pattern %v: whole = %d, sharded = %d, baseline = %d",
					size, p, whole, sharded, base)
			}
		}
	}
}

// TestDifferentialShardedLabeled repeats the three-way check with fully
// labeled 4-vertex patterns against the labeled-subgraph baseline, then
// compares the entry points that enumerate instead of counting: the
// match set of a pattern and the frequent patterns of FSM.
func TestDifferentialShardedLabeled(t *testing.T) {
	g := gen.ErdosRenyi(gen.ERConfig{Vertices: 48, Edges: 110, Seed: 11, Labels: 3})
	sg := shardedCopy(t, g, 6)
	for _, skel := range pattern.GenerateAllVertexInduced(4) {
		for variant := 0; variant < 3; variant++ {
			lab := skel.Clone()
			for v := 0; v < lab.N(); v++ {
				lab.SetLabel(v, pattern.Label((v+variant)%3))
			}
			want, _ := baseline.PatternCountDFS(g, lab, 4)
			vip := pattern.VertexInduced(lab)
			whole, err := Count(g, vip, WithThreads(4))
			if err != nil {
				t.Fatal(err)
			}
			sharded, err := Count(sg, vip, WithThreads(4))
			if err != nil {
				t.Fatal(err)
			}
			if whole != want || sharded != want {
				t.Errorf("labeled %v: whole = %d, sharded = %d, baseline = %d",
					lab, whole, sharded, want)
			}
		}
	}

	enumerate := func(g *Graph) (matches []string, frequent map[string]int) {
		var mu sync.Mutex
		if _, err := ForEachMatch(g, mustParse(t, "0-1 1-2 2-0"), func(_ *Ctx, m *Match) {
			mu.Lock()
			matches = append(matches, fmt.Sprint(m.Mapping))
			mu.Unlock()
		}, WithThreads(4)); err != nil {
			t.Fatal(err)
		}
		sort.Strings(matches)
		res, err := FSM(g, 2, 3, WithThreads(4))
		if err != nil {
			t.Fatal(err)
		}
		frequent = make(map[string]int)
		for _, f := range res.Frequent {
			frequent[f.Pattern.CanonicalCode()] = f.Support
		}
		return matches, frequent
	}
	wantM, wantF := enumerate(g)
	gotM, gotF := enumerate(sg)
	if len(wantM) == 0 || len(wantF) == 0 || !reflect.DeepEqual(gotM, wantM) || !reflect.DeepEqual(gotF, wantF) {
		t.Errorf("sharded: %d matches, frequent %v; in memory: %d matches, frequent %v", len(gotM), gotF, len(wantM), wantF)
	}
}

// TestTaskRangeAdditivity checks the distribution primitive: counts
// over disjoint task ranges sum to the whole-graph counts, with and
// without symmetry breaking, on whole and sharded graphs.
func TestTaskRangeAdditivity(t *testing.T) {
	g := gen.RMAT(gen.RMATConfig{Vertices: 64, Edges: 160, Seed: 13, Labels: 2})
	sg := shardedCopy(t, g, 4)
	pats := []*Pattern{
		mustParse(t, "0-1 1-2 2-0"),
		mustParse(t, "0-1 0-2 0-3"),
		mustParse(t, "0-1 1-2 2-3 3-0"),
	}
	cuts := [][]uint32{
		{0, 64},
		{0, 17, 64},
		{0, 5, 23, 41, 64},
		{0, 1, 2, 3, 64},
	}
	for _, withSym := range []bool{true, false} {
		base := []Option{WithThreads(4)}
		if !withSym {
			base = append(base, WithoutSymmetryBreaking())
		}
		want, err := CountMany(g, pats, base...)
		if err != nil {
			t.Fatal(err)
		}
		for _, target := range []struct {
			name string
			g    *Graph
		}{{"whole", g}, {"sharded", sg}} {
			for _, cut := range cuts {
				sum := make([]uint64, len(pats))
				for i := 0; i+1 < len(cut); i++ {
					opts := append(append([]Option(nil), base...), WithTaskRange(cut[i], cut[i+1]))
					part, err := CountMany(target.g, pats, opts...)
					if err != nil {
						t.Fatalf("%s range [%d,%d): %v", target.name, cut[i], cut[i+1], err)
					}
					for j, c := range part {
						sum[j] += c
					}
				}
				for j := range pats {
					if sum[j] != want[j] {
						t.Errorf("%s sym=%v cut %v pattern %d: ranges sum to %d, whole = %d",
							target.name, withSym, cut, j, sum[j], want[j])
					}
				}
			}
		}
	}
}

// TestShardedConcurrentQueries runs concurrent queries over one sharded
// graph — the -race check of the shared fragment set.
func TestShardedConcurrentQueries(t *testing.T) {
	g := gen.ErdosRenyi(gen.ERConfig{Vertices: 96, Edges: 300, Seed: 7})
	sg := shardedCopy(t, g, 8)
	tri := mustParse(t, "0-1 1-2 2-0")
	want, err := Count(g, tri, WithThreads(2))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 6)
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				got, err := Count(sg, tri, WithThreads(2))
				if err != nil {
					errs <- err
					return
				}
				if got != want {
					errs <- fmt.Errorf("concurrent sharded count %d, want %d", got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func mustParse(t *testing.T, s string) *Pattern {
	t.Helper()
	p, err := ParsePattern(s)
	if err != nil {
		t.Fatal(err)
	}
	return p
}
