package peregrine

// Differential tests: the pattern-aware engine is checked against the
// pattern-oblivious baseline systems (internal/baseline) over every
// generated pattern with up to 5 vertices, on a handful of seeded
// random graphs. The two sides share no exploration code — the engine
// matches plan-guided with symmetry breaking, the baselines enumerate
// step-by-step with per-embedding isomorphism classification — so
// agreement is strong evidence both are correct.

import (
	"fmt"
	"sync/atomic"
	"testing"

	"peregrine/internal/baseline"
	"peregrine/internal/core"
	"peregrine/internal/gen"
	"peregrine/internal/graph"
	"peregrine/internal/pattern"
	"peregrine/internal/plan"
	"peregrine/internal/ref"
)

// differentialGraphs are small seeded random graphs spanning the two
// generator families (flat Erdős–Rényi, skewed RMAT). Sizes are chosen
// so the baselines' exhaustive 5-vertex enumeration stays fast.
func differentialGraphs() []struct {
	name string
	g    *graph.Graph
} {
	return labeledDifferentialGraphs(0)
}

// labeledDifferentialGraphs are differentialGraphs with uniform vertex
// labels in [0, labels): labels are drawn after the edges, so the
// structure is the same graph's.
func labeledDifferentialGraphs(labels int) []struct {
	name string
	g    *graph.Graph
} {
	return []struct {
		name string
		g    *graph.Graph
	}{
		{"er-48", gen.ErdosRenyi(gen.ERConfig{Vertices: 48, Edges: 110, Seed: 11, Labels: labels})},
		{"er-64", gen.ErdosRenyi(gen.ERConfig{Vertices: 64, Edges: 140, Seed: 12, Labels: labels})},
		{"rmat-64", gen.RMAT(gen.RMATConfig{Vertices: 64, Edges: 160, Seed: 13, Labels: labels})},
	}
}

// engineCount is the engine, direct: p compiled as given and run as a
// one-plan batch — no plan cache, no morphing.
func engineCount(t *testing.T, g *graph.Graph, p *pattern.Pattern, noSym bool) uint64 {
	t.Helper()
	pl, err := plan.New(p, plan.Options{NoSymmetryBreaking: noSym})
	if err != nil {
		t.Fatalf("pattern %v: %v", p, err)
	}
	return core.RunPlans(g, []*plan.Plan{pl}, nil, core.Options{Threads: 4, NoSymmetryBreaking: noSym}).Per[0].Matches
}

// TestDifferentialVertexInduced checks, for every connected pattern of
// 2..5 vertices, that the engine's vertex-induced count (Theorem 3.1
// anti-edge conversion) equals the Fractal-style baseline's census of
// connected vertex sets classified by isomorphism.
func TestDifferentialVertexInduced(t *testing.T) {
	maxSize := 5
	if testing.Short() {
		maxSize = 4
	}
	for _, tc := range differentialGraphs() {
		t.Run(tc.name, func(t *testing.T) {
			for size := 2; size <= maxSize; size++ {
				want, _ := baseline.MotifCountsDFS(tc.g, size, 4)
				var engineTotal, baselineTotal uint64
				for _, p := range pattern.GenerateAllVertexInduced(size) {
					got := engineCount(t, tc.g, pattern.VertexInduced(p), false)
					if got != want[p.CanonicalCode()] {
						t.Errorf("size %d pattern %v: engine = %d, baseline = %d",
							size, p, got, want[p.CanonicalCode()])
					}
					engineTotal += got
				}
				// Every baseline class must be claimed by some generated
				// pattern — a missing class means pattern.Generate is
				// incomplete, not just a count mismatch.
				for code, n := range want {
					baselineTotal += n
					if n > 0 {
						found := false
						for _, p := range pattern.GenerateAllVertexInduced(size) {
							if p.CanonicalCode() == code {
								found = true
								break
							}
						}
						if !found {
							t.Errorf("size %d: baseline found %d embeddings of unknown class %q", size, n, code)
						}
					}
				}
				if engineTotal != baselineTotal {
					t.Errorf("size %d: engine total = %d, baseline total = %d", size, engineTotal, baselineTotal)
				}
			}
		})
	}
}

// TestDifferentialEdgeInduced checks, for every connected pattern of
// 1..4 edges (up to 5 vertices), that the engine's edge-induced count
// equals the Arabesque-style edge-BFS census of connected edge sets.
func TestDifferentialEdgeInduced(t *testing.T) {
	maxEdges := 4
	if testing.Short() {
		maxEdges = 3
	}
	for _, tc := range differentialGraphs() {
		t.Run(tc.name, func(t *testing.T) {
			for edges := 1; edges <= maxEdges; edges++ {
				want := make(map[string]uint64)
				baseline.EdgeBFS(tc.g, baseline.EdgeBFSOptions{
					Edges:    edges,
					Classify: true,
					LevelVisit: func(level int, e [][2]uint32, code string) bool {
						if level == edges {
							want[code]++
						}
						return true
					},
				})
				for _, p := range pattern.GenerateAllEdgeInduced(edges) {
					got := engineCount(t, tc.g, p, false)
					if got != want[p.CanonicalCode()] {
						t.Errorf("%d-edge pattern %v: engine = %d, baseline = %d",
							edges, p, got, want[p.CanonicalCode()])
					}
					delete(want, p.CanonicalCode())
				}
				for code, n := range want {
					if n > 0 {
						t.Errorf("%d-edge: baseline found %d embeddings of unknown class %q", edges, n, code)
					}
				}
			}
		})
	}
}

// TestDifferentialUnorderedAgainstReference cross-checks the PRG-U
// configuration (no symmetry breaking): for every 4-vertex pattern, the
// engine must deliver exactly |Aut(p)| matches per symmetry-broken one.
func TestDifferentialUnorderedAgainstReference(t *testing.T) {
	for _, tc := range differentialGraphs() {
		t.Run(tc.name, func(t *testing.T) {
			for _, p := range pattern.GenerateAllVertexInduced(4) {
				broken := engineCount(t, tc.g, p, false)
				unbroken := engineCount(t, tc.g, p, true)
				autos := uint64(len(p.Automorphisms()))
				if unbroken != broken*autos {
					t.Errorf("pattern %v: unbroken = %d, want broken(%d) x |Aut|(%d) = %d",
						p, unbroken, broken, autos, broken*autos)
				}
			}
		})
	}
}

// countForms are the constraint kinds the engine completes differently,
// each derived from one connected unlabeled pattern: as given; with
// anti-edges (its vertex-induced form); with a mix of concrete and
// wildcard labels; with an anti-vertex.
func countForms(p *pattern.Pattern) map[string]*pattern.Pattern {
	labeled := p.Clone()
	labeled.SetLabel(0, 0)
	labeled.SetLabel(p.N()-1, 1)
	anti := p.Clone()
	a := anti.AddVertex()
	anti.AddAntiEdge(0, a)
	anti.AddAntiEdge(p.N()-1, a)
	return map[string]*pattern.Pattern{
		"plain":          p,
		"vertex-induced": pattern.VertexInduced(p),
		"labeled":        labeled,
		"anti-vertex":    anti,
	}
}

// TestDifferentialCountVsEnumerate is the count-mode axis: with no
// callback the engine adds up the last completion level's size instead
// of visiting its members, so for every connected pattern of 2..5
// vertices in every form of countForms, with and without symmetry
// breaking, RunPlans(cb == nil).Matches must equal the number of
// callback invocations of an enumerating run and the brute-force oracle
// — on the graph as built, on its degree-descending renumbering with
// hub bitsets, and on a sharded copy plain, with hub bitsets and
// renumbered — and three disjoint task ranges must sum to it exactly.
// The same holds for each size's whole batch of a form run through one
// trie, shared and unshared: there completion slots serve every leaf
// that names them, across plans and matching orders.
func TestDifferentialCountVsEnumerate(t *testing.T) {
	for gi, tc := range labeledDifferentialGraphs(2) {
		// The oracle is O(V^k) per pattern form: the 5-vertex patterns run
		// on the smallest graph only.
		maxSize := 4
		if gi == 0 && !testing.Short() {
			maxSize = 5
		}
		t.Run(tc.name, func(t *testing.T) {
			desc, err := RenumberDescending(tc.g)
			if err != nil {
				t.Fatal(err)
			}
			desc.BuildHubBitsets(4)
			shardedHubs := shardedCopy(t, tc.g, 3)
			shardedHubs.BuildHubBitsets(4)
			shardedDesc, err := RenumberDescending(shardedCopy(t, tc.g, 3))
			if err != nil {
				t.Fatal(err)
			}
			layouts := map[string]*graph.Graph{
				"built":              tc.g,
				"descending+hubs":    desc,
				"sharded":            shardedCopy(t, tc.g, 3),
				"sharded+hubs":       shardedHubs,
				"renumbered sharded": shardedDesc,
			}
			n := tc.g.NumVertices()
			// check runs pls on every layout, counting and enumerating, and
			// over three task ranges counting; plan i must find want[i].
			check := func(what string, pls []*plan.Plan, want []uint64, opt core.Options) {
				t.Helper()
				for layout, g := range layouts {
					calls := make([]atomic.Uint64, len(pls))
					core.RunPlans(g, pls, func(_ *core.Ctx, pi int, _ *core.Match) { calls[pi].Add(1) }, opt)
					counted := core.RunPlans(g, pls, nil, opt)
					for i := range pls {
						if c, e := counted.Per[i].Matches, calls[i].Load(); c != want[i] || e != want[i] {
							t.Errorf("%s, %v on %s: counted %d, enumerated %d, oracle %d",
								what, pls[i].Pat, layout, c, e, want[i])
						}
					}
				}
				sum := make([]uint64, len(pls))
				for _, cut := range [][2]uint32{{0, n / 3}, {n / 3, 2 * n / 3}, {2 * n / 3, n}} {
					opt.TaskLo, opt.TaskHi = cut[0], cut[1]
					for i, s := range core.RunPlans(tc.g, pls, nil, opt).Per {
						sum[i] += s.Matches
					}
				}
				for i := range pls {
					if sum[i] != want[i] {
						t.Errorf("%s, %v: task ranges sum to %d, oracle %d", what, pls[i].Pat, sum[i], want[i])
					}
				}
			}
			for size := 2; size <= maxSize; size++ {
				bases := pattern.GenerateAllVertexInduced(size)
				for _, form := range []string{"plain", "vertex-induced", "labeled", "anti-vertex"} {
					for _, noSym := range []bool{false, true} {
						pls := make([]*plan.Plan, len(bases))
						want := make([]uint64, len(bases))
						for i, base := range bases {
							p := countForms(base)[form]
							want[i] = ref.CountUnique(tc.g, p)
							if noSym {
								want[i] = ref.CountAll(tc.g, p)
							}
							pl, err := plan.New(p, plan.Options{NoSymmetryBreaking: noSym})
							if err != nil {
								t.Fatalf("%s %v: %v", form, p, err)
							}
							pls[i] = pl
						}
						opt := core.Options{Threads: 4, NoSymmetryBreaking: noSym}
						for i := range pls {
							check(fmt.Sprintf("%s noSym=%v", form, noSym), pls[i:i+1], want[i:i+1], opt)
						}
						check(fmt.Sprintf("%s noSym=%v size-%d batch", form, noSym, size), pls, want, opt)
						opt.NoSharing = true
						check(fmt.Sprintf("%s noSym=%v size-%d batch unshared", form, noSym, size), pls, want, opt)
					}
				}
			}
		})
	}
}

func ExampleCount_differential() {
	// The seeded er-48 graph's triangle count is stable across runs.
	g := gen.ErdosRenyi(gen.ERConfig{Vertices: 48, Edges: 110, Seed: 11})
	n, _ := Count(g, pattern.Clique(3))
	fmt.Println(n > 0)
	// Output: true
}
