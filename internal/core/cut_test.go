package core

import (
	"math/big"
	"testing"

	"peregrine/internal/gen"
	"peregrine/internal/graph"
	"peregrine/internal/pattern"
	"peregrine/internal/plan"
)

// wideMatches is plan i's 128-bit count: a decomposed plan's V.
func wideMatches(ms MultiStats, i int) *big.Int {
	v := new(big.Int)
	if ms.MatchesHi != nil {
		v.SetUint64(ms.MatchesHi[i])
	}
	return v.Lsh(v, 64).Or(v, new(big.Int).SetUint64(ms.Per[i].Matches))
}

// Every decomposition of every connected pattern of five and six vertices
// — each cut, each choice of the task's vertex — counts, as its V, what
// its relation says: |Aut(P)|·count(P) plus each shrinkage pattern's
// coefficient times its count (plan's TestShrinkageIdentity checks the
// relation against brute force). The decomposed plans run in one batch
// with P's and the shrinkage patterns' own plans, whose counts the
// relation reads, shared and unshared, on one thread and on three.
func TestCutTuplesMatchRelation(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"wheel": wheel(12),
		"er":    gen.ErdosRenyi(gen.ERConfig{Vertices: 40, Edges: 120, Seed: 6}),
		"rmat":  gen.RMAT(gen.RMATConfig{Vertices: 64, Edges: 200, Seed: 7}),
	}
	sizes := []int{5, 6}
	if testing.Short() {
		sizes = sizes[:1]
	}
	checked := 0
	for _, size := range sizes {
		for _, p := range pattern.GenerateAllVertexInduced(size) {
			ds := plan.Decompositions(p)
			if len(ds) == 0 {
				continue
			}
			pls := []*plan.Plan{mustPlan(t, p)}
			at := map[string]int{} // shrinkage pattern's canonical code -> its plan's index
			for _, d := range ds {
				for _, tm := range d.Terms {
					if _, ok := at[tm.Pat.CanonicalCode()]; !ok {
						at[tm.Pat.CanonicalCode()] = len(pls)
						pls = append(pls, mustPlan(t, tm.Pat))
					}
				}
			}
			first := len(pls)
			for _, d := range ds {
				pls = append(pls, d.Plan)
			}
			for name, g := range graphs {
				for _, opt := range []Options{{Threads: 1}, {Threads: 3, NoSharing: true}} {
					ms := RunPlans(g, pls, nil, opt)
					count := func(i int) *big.Int { return new(big.Int).SetUint64(ms.Per[i].Matches) }
					for di, d := range ds {
						want := new(big.Int).Mul(count(0), big.NewInt(d.Div))
						for _, tm := range d.Terms {
							c := count(at[tm.Pat.CanonicalCode()])
							want.Add(want, c.Mul(c, big.NewInt(tm.Coef)))
						}
						row := ms.Per[first+di]
						if got := wideMatches(ms, first+di); got.Cmp(want) != 0 {
							t.Errorf("%s %+v: %v cut at %v: V = %v, relation gives %v", name, opt, p, d.Plan.Cut.Verts, got, want)
						}
						if row.Tasks != uint64(g.NumVertices()) || row.CoreMatches != 0 {
							t.Errorf("%s: %v cut at %v: tasks %d, core matches %d; want every task, none", name, p, d.Plan.Cut.Verts, row.Tasks, row.CoreMatches)
						}
					}
					checked += len(ds)
				}
			}
		}
	}
	if checked < 100 {
		t.Fatalf("only %d decomposed runs checked", checked)
	}
}

// On a star of 2¹⁷ leaves the 4-star's V is (2¹⁷)⁴ plus one per leaf,
// past 64 bits, while its count, C(2¹⁷, 4) ≈ 1.2e19, still fits: the
// tally must carry into MultiStats.MatchesHi across tasks and threads, and the
// relation must give the count back exactly.
func TestCutTupleCountPast64Bits(t *testing.T) {
	const d = 1 << 17
	g := star(d)
	p := pattern.Star(5)
	var dec *plan.Decomposition
	for _, x := range plan.Decompositions(p) {
		if len(x.Plan.Cut.Verts) == 1 && x.Plan.Cut.Verts[0] == 0 {
			dec = &x
			break
		}
	}
	if dec == nil {
		t.Fatal("the 4-star has no decomposition at its center")
	}
	pls := []*plan.Plan{dec.Plan}
	for _, tm := range dec.Terms {
		pls = append(pls, mustPlan(t, tm.Pat))
	}
	ms := RunPlans(g, pls, nil, Options{Threads: 2})
	v := wideMatches(ms, 0)
	want := new(big.Int).Exp(big.NewInt(d), big.NewInt(4), nil)
	if want.Add(want, big.NewInt(d)); v.Cmp(want) != 0 || ms.MatchesHi[0] == 0 {
		t.Fatalf("V = %v (high word %d), want d⁴ + d = %v", v, ms.MatchesHi[0], want)
	}
	for i, tm := range dec.Terms {
		c := new(big.Int).SetUint64(ms.Per[1+i].Matches)
		v.Sub(v, c.Mul(c, big.NewInt(tm.Coef)))
	}
	v.Quo(v, big.NewInt(dec.Div))
	if binom := new(big.Int).Binomial(d, 4); !binom.IsUint64() || v.Cmp(binom) != 0 {
		t.Fatalf("recovered 4-star count %v, want C(2¹⁷, 4) = %v", v, binom)
	}
}
