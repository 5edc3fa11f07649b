package core

import (
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"testing"

	"peregrine/internal/gen"
	"peregrine/internal/graph"
	"peregrine/internal/pattern"
)

// matchStream mines p over g and returns the multiset of matches as
// sorted strings of OrigID-mapped mappings.
//
// Renumbering invariance has two forms. Without symmetry breaking every
// automorphic variant is enumerated, so the exact tuple multiset is
// id-order-invariant (canonical=false compares it directly). With
// symmetry breaking the engine emits one representative per
// automorphism class, and WHICH representative depends on the data-id
// order the partial orders compare — so only the per-match vertex
// multiset is invariant (canonical=true sorts each mapping first).
func matchStream(tb testing.TB, g *graph.Graph, p *pattern.Pattern, canonical bool, opt Options) []string {
	tb.Helper()
	var mu sync.Mutex
	var out []string
	Run(tb, g, p, func(ctx *Ctx, m *Match) {
		mapped := m.OrigMapping(g)
		if canonical {
			sort.Slice(mapped, func(i, j int) bool { return mapped[i] < mapped[j] })
		}
		s := fmt.Sprint(mapped)
		mu.Lock()
		out = append(out, s)
		mu.Unlock()
	}, opt)
	sort.Strings(out)
	return out
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestRenumberingDifferential is the satellite bugfix sweep: a
// renumbered graph must produce identical counts AND identical
// OrigID-mapped match streams for every pattern, unlabeled and labeled,
// with and without hub bitsets, and through sharded storage.
func TestRenumberingDifferential(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"powerlaw": gen.RMAT(gen.RMATConfig{Vertices: 96, Edges: 420, Seed: 21}),
		"labeled":  gen.RMAT(gen.RMATConfig{Vertices: 80, Edges: 330, Seed: 22, Labels: 3}),
		"dense":    gen.ErdosRenyi(gen.ERConfig{Vertices: 24, Edges: 160, Seed: 23}),
	}
	pats := []*pattern.Pattern{
		pattern.Clique(3),
		pattern.Clique(4),
		pattern.Star(4),
		pattern.Cycle(4),
		pattern.MustParse("0-1 1-2 2-0 2-3"),
		pattern.MustParse("0-1 0-2 1!2"),
	}
	for gname, g := range graphs {
		rg, err := graph.RenumberDescending(g)
		if err != nil {
			t.Fatal(err)
		}
		// Hub-bitset variant of the renumbered graph: same counts, same
		// streams, different kernels.
		hg, err := graph.RenumberDescending(g)
		if err != nil {
			t.Fatal(err)
		}
		hg.BuildHubBitsets(6)
		for pi, p := range pats {
			// Symmetry-broken run: per-match vertex multisets invariant.
			opt := Options{Threads: 4}
			want := matchStream(t, g, p, true, opt)
			if got := matchStream(t, rg, p, true, opt); !equalStrings(got, want) {
				t.Errorf("%s/pattern %d: renumbered stream differs (%d vs %d matches)",
					gname, pi, len(got), len(want))
			}
			if got := matchStream(t, hg, p, true, opt); !equalStrings(got, want) {
				t.Errorf("%s/pattern %d: hub-bitset stream differs (%d vs %d matches)",
					gname, pi, len(got), len(want))
			}
			// Unbroken run: exact tuple multisets invariant.
			opt.NoSymmetryBreaking = true
			wantAll := matchStream(t, g, p, false, opt)
			if got := matchStream(t, rg, p, false, opt); !equalStrings(got, wantAll) {
				t.Errorf("%s/pattern %d: renumbered unbroken stream differs (%d vs %d matches)",
					gname, pi, len(got), len(wantAll))
			}
			if got := matchStream(t, hg, p, false, opt); !equalStrings(got, wantAll) {
				t.Errorf("%s/pattern %d: hub-bitset unbroken stream differs (%d vs %d matches)",
					gname, pi, len(got), len(wantAll))
			}
		}
	}
}

// TestRenumberingDifferentialSharded runs the same differential through
// the sharded/manifest path: save the renumbered graph as fragments,
// reload, and compare counts and OrigID-mapped streams.
func TestRenumberingDifferentialSharded(t *testing.T) {
	for _, labels := range []int{0, 3} {
		g := gen.RMAT(gen.RMATConfig{Vertices: 90, Edges: 380, Seed: 31, Labels: labels})
		rg, err := graph.RenumberDescending(g)
		if err != nil {
			t.Fatal(err)
		}
		mpath := filepath.Join(t.TempDir(), "g.manifest")
		if _, err := graph.SaveSharded(mpath, rg, 3); err != nil {
			t.Fatal(err)
		}
		sg, err := graph.LoadSharded(mpath)
		if err != nil {
			t.Fatal(err)
		}
		pats := []*pattern.Pattern{pattern.Clique(3), pattern.Star(3), pattern.Cycle(4)}
		for pi, p := range pats {
			opt := Options{Threads: 4}
			want := matchStream(t, g, p, true, opt)
			if got := matchStream(t, sg, p, true, opt); !equalStrings(got, want) {
				t.Errorf("labels=%d pattern %d: sharded renumbered stream differs (%d vs %d matches)",
					labels, pi, len(got), len(want))
			}
			opt.NoSymmetryBreaking = true
			wantAll := matchStream(t, g, p, false, opt)
			if got := matchStream(t, sg, p, false, opt); !equalStrings(got, wantAll) {
				t.Errorf("labels=%d pattern %d: sharded unbroken stream differs (%d vs %d matches)",
					labels, pi, len(got), len(wantAll))
			}
		}
		sg.Close()
	}
}

// TestTaskRangesCoverDescending checks the partitioning seam under the
// flipped scan direction: counts from disjoint task ranges of a
// renumbered graph must sum to the full count.
func TestTaskRangesCoverDescending(t *testing.T) {
	g := gen.RMAT(gen.RMATConfig{Vertices: 64, Edges: 300, Seed: 33})
	rg, err := graph.RenumberDescending(g)
	if err != nil {
		t.Fatal(err)
	}
	p := pattern.Clique(3)
	full := Count(t, rg, p, Options{Threads: 3})
	n := rg.NumVertices()
	var sum uint64
	for _, cut := range [][2]uint32{{0, n / 3}, {n / 3, 2 * n / 3}, {2 * n / 3, n}} {
		c := Count(t, rg, p, Options{Threads: 3, TaskLo: cut[0], TaskHi: cut[1]})
		sum += c
	}
	if sum != full {
		t.Fatalf("ranged counts sum to %d, full count %d", sum, full)
	}
}
