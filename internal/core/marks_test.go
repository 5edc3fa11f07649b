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
// the oracle's counts. A row of several patterns runs them as one batch
// and checks each. rmat-64's Build layout holds the shapes a sized
// clique level's scan down to its bound must get right, which the test
// asserts: an edge (u, v), u < v, with no common neighbour above v, so
// the 4-clique's prefix slot is empty; and a triangle w < u < v whose w
// has no neighbour above v, so the scan of N(w) stops at its first id.
func TestMarkedSitesMatchOracle(t *testing.T) {
	built := gen.RMAT(gen.RMATConfig{Vertices: 64, Edges: 160, Seed: 13})
	desc, err := graph.RenumberDescending(built)
	if err != nil {
		t.Fatal(err)
	}
	emptyPrefix, belowWindow := false, false
	for v := range built.NumVertices() {
		nv := built.Adj(v)
		for _, u := range nv {
			if u >= v {
				break
			}
			if len(refIntersect([][]uint32{nv, built.Adj(u)}, int64(v), noHi)) == 0 {
				emptyPrefix = true
			}
			for _, w := range built.Adj(u) {
				if w >= u {
					break
				}
				if nw := built.Adj(w); containsSorted(nv, w) && nw[len(nw)-1] <= v {
					belowWindow = true
				}
			}
		}
	}
	if !emptyPrefix || !belowWindow {
		t.Fatalf("rmat-64 lacks a shape: empty prefix slot %v, candidate list below the window %v", emptyPrefix, belowWindow)
	}
	const k3, k4, k5 = "0-1 1-2 2-0", "0-1 0-2 0-3 1-2 1-3 2-3", "0-1 0-2 0-3 0-4 1-2 1-3 1-4 2-3 2-4 3-4"
	sites := []struct {
		site  string
		texts []string // one pattern, or a batch
		cut   []int    // the decomposition's cut, in slot order; nil for a plain plan
	}{
		{"trie step, slot fill and prefix-slot fill (the 4-clique's third vertex, the set of its fourth under two, then three)", []string{k4}, nil},
		{"slotless completion level, sized (the triangle's third vertex)", []string{k3}, nil},
		{"sized level under a chain of prefix slots (the 5-clique's fifth vertex)", []string{k5}, nil},
		{"the triangle's leaf delivered beside the 4- and 5-clique's sized ones (K3, K4 and K5 batched)", []string{k3, k4, k5}, nil},
		{"slotless completion level of a tail, sized by levelSet or walked (the tailed triangle's third vertex)", []string{"0-1 0-2 0-3 1-2"}, nil},
		{"slotless completion level under a three-vertex core (the 4-cycle's fourth vertex)", []string{"0-2 0-3 1-2 1-3"}, nil},
		{"anti-vertex check (an edge with no common neighbour)", []string{"0-1 0!2 1!2"}, nil},
		{"anti-vertex check of three lists (a triangle with no common neighbour)", []string{"0-1 1-2 2-0 0!3 1!3 2!3"}, nil},
		{"cut-walk level under a walked cut vertex (the diamond at its spine)", []string{"0-1 0-2 0-3 1-2 1-3"}, []int{0, 1}},
		{"cut-walk level of three lists (W4 at hub, rim, opposite rim)", []string{"0-1 0-2 0-3 0-4 1-3 1-4 2-3 2-4"}, []int{0, 1, 2}},
	}
	for _, s := range sites {
		var pats []*pattern.Pattern
		var pls []*plan.Plan
		for _, text := range s.texts {
			p := pattern.MustParse(text)
			pats, pls = append(pats, p), append(pls, mustPlan(t, p))
		}
		want := func(g *graph.Graph) (w []*big.Int) {
			for _, p := range pats {
				w = append(w, new(big.Int).SetUint64(ref.CountUnique(g, p)))
			}
			return w
		}
		if s.cut != nil {
			p := pats[0]
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
			want = func(g *graph.Graph) []*big.Int {
				v := new(big.Int).SetUint64(ref.CountUnique(g, p))
				v.Mul(v, big.NewInt(dec.Div))
				for _, tm := range dec.Terms {
					c := new(big.Int).SetUint64(ref.CountUnique(g, tm.Pat))
					v.Add(v, c.Mul(c, big.NewInt(tm.Coef)))
				}
				return []*big.Int{v}
			}
		}
		for _, g := range []struct {
			name string
			g    *graph.Graph
		}{{"rmat-64", built}, {"rmat-64 desc", desc}} {
			n, k := g.g.NumVertices(), g.g.NumVertices()/2
			want := want(g.g)
			check := func(how string, got func(i int) *big.Int) {
				t.Helper()
				for i, w := range want {
					if got := got(i); got.Cmp(w) != 0 {
						t.Errorf("%s: %s on %s, %s: %v, oracle %v", s.site, pats[i], g.name, how, got, w)
					}
				}
			}
			for _, threads := range []int{1, 4} {
				res := RunPlans(g.g, pls, nil, Options{Threads: threads})
				check(fmt.Sprintf("%d threads", threads), func(i int) *big.Int { return wideMatches(res, i) })
			}
			lower := RunPlans(g.g, pls, nil, Options{Threads: 2, TaskHi: k})
			upper := RunPlans(g.g, pls, nil, Options{Threads: 2, TaskLo: k, TaskHi: n})
			check(fmt.Sprintf("tasks [0,%d) + [%d,%d)", k, k, n), func(i int) *big.Int {
				v := wideMatches(lower, i)
				return v.Add(v, wideMatches(upper, i))
			})
			if s.cut == nil {
				walked := make([]atomic.Uint64, len(pls))
				RunPlans(g.g, pls, func(_ *Ctx, i int, _ *Match) { walked[i].Add(1) }, Options{Threads: 4})
				check("walked", func(i int) *big.Int { return new(big.Int).SetUint64(walked[i].Load()) })
			}
		}
	}
}
