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

// Every decomposition of every connected pattern of four, five and six
// vertices, and of the 7-vertex spiders and double stars — each cut, each
// choice of the task's vertex — counts, as its V, what
// its relation says: |Aut(P)|·count(P) plus each shrinkage pattern's
// coefficient times its count (plan's TestShrinkageIdentity checks the
// relation against brute force). The decomposed plans run in one batch
// with P's and the shrinkage patterns' own plans, whose counts the
// relation reads, shared and unshared, on one thread and on three. A
// halved cut (plan.Cut.Half) moves V between tasks, so the decomposed
// plans also run over three disjoint task ranges, whose V must sum to
// the whole range's.
func TestCutTuplesMatchRelation(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"wheel": wheel(12),
		"er":    gen.ErdosRenyi(gen.ERConfig{Vertices: 40, Edges: 120, Seed: 6}),
		"rmat":  gen.RMAT(gen.RMATConfig{Vertices: 64, Edges: 200, Seed: 7}),
	}
	pats := append(pattern.GenerateAllVertexInduced(4), pattern.GenerateAllVertexInduced(5)...)
	if !testing.Short() {
		pats = append(pats, pattern.GenerateAllVertexInduced(6)...)
		for _, text := range []string{
			"0-1 1-2 0-3 3-4 0-5 5-6", // spider, legs 2 2 2
			"0-1 1-2 0-3 3-4 0-5 0-6", // spider, legs 2 2 1 1
			"0-1 1-2 0-3 0-4 0-5 0-6", // spider, legs 2 1 1 1 1
			"0-1 0-2 1-3 1-4 1-5 1-6", // double star, leaves 1 and 4
			"0-1 0-2 0-3 1-4 1-5 1-6", // double star, leaves 2 and 3
		} {
			p := pattern.MustParse(text)
			if len(plan.Decompositions(p)) == 0 {
				t.Fatalf("%v: no decomposition", p)
			}
			pats = append(pats, p)
		}
	}
	checked := 0
	for _, p := range pats {
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
				ranged := make([]*big.Int, len(ds))
				for di := range ranged {
					ranged[di] = new(big.Int)
				}
				n := g.NumVertices()
				for _, r := range [][2]uint32{{0, n / 4}, {n / 4, n/2 + 1}, {n/2 + 1, n}} {
					ropt := opt
					ropt.TaskLo, ropt.TaskHi = r[0], r[1]
					rs := RunPlans(g, pls[first:], nil, ropt)
					for di := range ds {
						ranged[di].Add(ranged[di], wideMatches(rs, di))
					}
				}
				for di, d := range ds {
					if whole := wideMatches(ms, first+di); ranged[di].Cmp(whole) != 0 {
						t.Errorf("%s %+v: %v cut at %v: V = %v over three task ranges, %v over all", name, opt, p, d.Plan.Cut.Verts, ranged[di], whole)
					}
				}
				checked += len(ds)
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

// The component table serves every decomposed row of motif_batch's
// executed set (every 4- and 5-motif, vertex-induced, rewritten for the
// workload's ER graph): its 17 decomposed rows name 37 component
// instances, 15 of them distinct walks — W4's two components, at its
// three-vertex cut, are one. The 17th row, 0-3 0-4 1-2 1-4 2-3 2-4 3-4,
// joined when the cache began to compile canonical spellings: one thread,
// best of 9, its cut takes 0.40 ms, where it ran direct in 0.26 ms as the
// batch spelled it before (2.9 ms spelled canonically), and the whole set
// 7.9 → 8.7 ms, 12 → 14 walks. The 15th walk is a halved twin: the
// common-neighbour tally the halved cuts read (the 4-cycle's, K2,3's,
// the 5-cycle's) keeps only candidates above the task's vertex, so
// 0-3 0-4 1-2 1-4 2-3 3-4 at [3 1], which does not halve, walks its own
// full tally. Each row's V in the batch must
// equal the row run alone, whatever it shares with the others, on one
// thread and on three, shared and unshared. Run alone, the decomposed
// rows report the walks the table served, and their merges performed
// plus saved are the unshared run's merges exactly.
func TestCutComponentsShared(t *testing.T) {
	g := gen.ErdosRenyi(gen.ERConfig{Vertices: 512, Edges: 2560, MaxDegree: 100, Seed: 1})
	m1, m2 := g.DegreeMoments()
	shape := plan.Shape{Vertices: g.NumVertices(), MeanDeg: m1, MeanSqDeg: m2, MaxDeg: g.MaxDegree()}
	cache := plan.NewCache()
	var pls []*plan.Plan
	for _, k := range []int{4, 5} {
		for _, p := range pattern.GenerateAllVertexInduced(k) {
			c, err := cache.Get(pattern.VertexInduced(p), plan.Options{})
			if err != nil {
				t.Fatal(err)
			}
			pls = append(pls, c.Plan)
		}
	}
	mp := plan.MorphBatch(pls, cache, plan.Options{Shape: shape})
	if mp == nil {
		t.Fatal("motif_batch's set was not rewritten")
	}
	exec := mp.Exec
	var cuts []int // indices of the decomposed rows
	instances := 0
	for i, pl := range exec {
		if pl.Cut != nil {
			cuts = append(cuts, i)
			instances += len(pl.Cut.Comps)
		}
	}
	if len(cuts) != 17 || instances != 37 {
		t.Fatalf("%d decomposed rows with %d components, want 17 with 37", len(cuts), instances)
	}
	for _, tc := range []struct {
		tr   *plan.ShareTrie
		want int
	}{{plan.BuildShareTrie(exec), 15}, {plan.BuildUnsharedTrie(exec), instances}} {
		named := 0
		for i, ids := range tc.tr.CutComps {
			if exec[i].Cut == nil && ids != nil || exec[i].Cut != nil && len(ids) != len(exec[i].Cut.Comps) {
				t.Errorf("row %d (%v) names table entries %v", i, exec[i].Pat, ids)
			}
			named += len(ids)
		}
		if len(tc.tr.Cuts) != tc.want || named != instances {
			t.Errorf("table of %d entries for %d instances, want %d for %d", len(tc.tr.Cuts), named, tc.want, instances)
		}
	}

	alone := make(map[int]*big.Int)
	for _, i := range cuts {
		alone[i] = wideMatches(RunPlans(g, exec[i:i+1], nil, Options{Threads: 1}), 0)
	}
	decomposed := make([]*plan.Plan, 0, len(cuts))
	for _, i := range cuts {
		decomposed = append(decomposed, exec[i])
	}
	for _, opt := range []Options{{Threads: 1}, {Threads: 3}, {Threads: 1, NoSharing: true}, {Threads: 3, NoSharing: true}} {
		ms := RunPlans(g, exec, nil, opt)
		for _, i := range cuts {
			if got := wideMatches(ms, i); got.Cmp(alone[i]) != 0 {
				t.Errorf("%+v: %v cut at %v: V = %v in the batch, %v alone", opt, exec[i].Pat, exec[i].Cut.Verts, got, alone[i])
			}
		}
	}
	for _, threads := range []int{1, 3} {
		sh := RunPlans(g, decomposed, nil, Options{Threads: threads})
		un := RunPlans(g, decomposed, nil, Options{Threads: threads, NoSharing: true})
		if sh.Share.SharedNodeVisits == 0 || un.Share.SharedNodeVisits != 0 || un.Share.IntersectionsSaved != 0 {
			t.Errorf("%d threads: walks served %d shared, %d unshared", threads, sh.Share.SharedNodeVisits, un.Share.SharedNodeVisits)
		}
		if sh.Intersections+sh.Share.IntersectionsSaved != un.Intersections {
			t.Errorf("%d threads: %d merges performed + %d saved != %d unshared", threads, sh.Intersections, sh.Share.IntersectionsSaved, un.Intersections)
		}
	}
}
