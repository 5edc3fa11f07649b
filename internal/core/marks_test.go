package core

import (
	"fmt"
	"math/big"
	"slices"
	"sync/atomic"
	"testing"

	"peregrine/internal/gen"
	"peregrine/internal/graph"
	"peregrine/internal/pattern"
	"peregrine/internal/plan"
	"peregrine/internal/ref"
)

// TestMarkedSitesMatchOracle reaches every site that intersects through
// the task's marks, or a prefix slot's, each named by a pattern that
// takes it — a wrong result from any one site's marked path fails its
// rows — and checks the count against internal/ref: on the count
// matrix's rmat-64, in Build's ascending layout and hubs-first (where
// the task's list is the shortest and more steps fall back), at one and
// four threads and as the task ranges [0,k) + [k,n). A plan that is not
// decomposed also runs with a callback, which walks the levels count
// mode sizes. A decomposed row's V is checked against its relation over
// the oracle's counts.
func TestMarkedSitesMatchOracle(t *testing.T) {
	built := gen.RMAT(gen.RMATConfig{Vertices: 64, Edges: 160, Seed: 13})
	desc, err := graph.RenumberDescending(built)
	if err != nil {
		t.Fatal(err)
	}
	sites := []struct {
		site, text string
		cut        []int // the decomposition's cut, in slot order; nil for a plain plan
	}{
		{"trie step, slot fill and prefix-slot fill (the 4-clique's third vertex, the set of its fourth under two, then three)", "0-1 0-2 0-3 1-2 1-3 2-3", nil},
		{"slotless completion level, sized (the triangle's third vertex)", "0-1 1-2 2-0", nil},
		{"slotless completion level of a tail, sized by levelSet or walked (the tailed triangle's third vertex)", "0-1 0-2 0-3 1-2", nil},
		{"slotless completion level under a three-vertex core (the 4-cycle's fourth vertex)", "0-2 0-3 1-2 1-3", nil},
		{"anti-vertex check (an edge with no common neighbour)", "0-1 0!2 1!2", nil},
		{"anti-vertex check of three lists (a triangle with no common neighbour)", "0-1 1-2 2-0 0!3 1!3 2!3", nil},
		{"cut-walk level under a walked cut vertex (the diamond at its spine)", "0-1 0-2 0-3 1-2 1-3", []int{0, 1}},
		{"cut-walk level of three lists (W4 at hub, rim, opposite rim)", "0-1 0-2 0-3 0-4 1-3 1-4 2-3 2-4", []int{0, 1, 2}},
	}
	for _, s := range sites {
		p := pattern.MustParse(s.text)
		pls, want := []*plan.Plan{mustPlan(t, p)}, func(g *graph.Graph) *big.Int {
			return new(big.Int).SetUint64(ref.CountUnique(g, p))
		}
		if s.cut != nil {
			var dec *plan.Decomposition
			for _, d := range plan.Decompositions(p) {
				if slices.Equal(d.Plan.Cut.Verts, s.cut) {
					dec = &d
					break
				}
			}
			if dec == nil {
				t.Fatalf("%s: %v has no cut at %v", s.site, p, s.cut)
			}
			pls = []*plan.Plan{dec.Plan}
			want = func(g *graph.Graph) *big.Int {
				v := new(big.Int).SetUint64(ref.CountUnique(g, p))
				v.Mul(v, big.NewInt(dec.Div))
				for _, tm := range dec.Terms {
					c := new(big.Int).SetUint64(ref.CountUnique(g, tm.Pat))
					v.Add(v, c.Mul(c, big.NewInt(tm.Coef)))
				}
				return v
			}
		}
		for _, g := range []struct {
			name string
			g    *graph.Graph
		}{{"rmat-64", built}, {"rmat-64 desc", desc}} {
			n, k := g.g.NumVertices(), g.g.NumVertices()/2
			want := want(g.g)
			check := func(how string, got *big.Int) {
				t.Helper()
				if got.Cmp(want) != 0 {
					t.Errorf("%s: %s on %s, %s: %v, oracle %v", s.site, p, g.name, how, got, want)
				}
			}
			for _, threads := range []int{1, 4} {
				check(fmt.Sprintf("%d threads", threads), wideMatches(RunPlans(g.g, pls, nil, Options{Threads: threads}), 0))
			}
			lower := wideMatches(RunPlans(g.g, pls, nil, Options{Threads: 2, TaskHi: k}), 0)
			upper := wideMatches(RunPlans(g.g, pls, nil, Options{Threads: 2, TaskLo: k, TaskHi: n}), 0)
			check(fmt.Sprintf("tasks [0,%d) + [%d,%d)", k, k, n), lower.Add(lower, upper))
			if s.cut == nil {
				var walked atomic.Uint64
				RunPlans(g.g, pls, func(*Ctx, int, *Match) { walked.Add(1) }, Options{Threads: 4})
				check("walked", new(big.Int).SetUint64(walked.Load()))
			}
		}
	}
}
