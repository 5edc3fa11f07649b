package peregrine

import (
	"testing"

	"peregrine/internal/gen"
	"peregrine/internal/pattern"
)

// cutBatches are batches of the cut form that in-process counting
// decomposes on every matrix graph: the patterns edge-induced, and
// vertex-induced, whose relatives decompose. The chair keeps the
// vertex-induced batch decomposing on er-48 and er-64: without it, in
// canonical spellings, that batch runs as given there, and faster than
// the decomposed set it ran before (one thread, best of 9: 1.59 → 1.36 ms
// on er-48, 2.95 → 1.75 ms on er-64).
func cutBatches() (edge, vi []*Pattern) {
	for i, p := range cutPatterns() {
		if i%2 == 0 {
			edge = append(edge, p)
		} else {
			vi = append(vi, p)
		}
	}
	return edge, vi
}

// PlanCount decomposes only where it knows the graph: priced for the
// zero Shape — a coordinator before any node has reported its graph — it
// never holds a decomposed plan, even for batches an in-process count
// decomposes; priced for the graph's Shape, it decomposes as that count
// does.
func TestPlanCountNeverDecomposes(t *testing.T) {
	edge, vi := cutBatches()
	for name, b := range map[string][]*Pattern{"edge-induced": edge, "vertex-induced": vi} {
		for _, graph := range []string{"er-48", "er-64", "rmat-64"} {
			g := matrixGraph(graph)
			_, ms, err := CountManyWithStats(g, b, WithThreads(2))
			must(t, err)
			if ms.Morph.Decomposed == 0 {
				t.Errorf("%s %s: the in-process count decomposed nothing: %+v", name, graph, ms.Morph)
			}
			cp, err := PlanCount(ShapeOf(g), []*PreparedQuery{mustPrepare(t, b)})
			must(t, err)
			if cp.mp == nil || cp.mp.Stats != ms.Morph {
				t.Errorf("%s %s: PlanCount for the graph's Shape rewrites %+v, the count %+v", name, graph, cp.mp, ms.Morph)
			}
		}
		cp, err := PlanCount(Shape{}, []*PreparedQuery{mustPrepare(t, b)})
		must(t, err)
		for i, pl := range cp.exec {
			if pl.Cut != nil {
				t.Errorf("%s: PlanCount executes a decomposed plan for %v", name, cp.Executed()[i])
			}
		}
		if cp.mp != nil && cp.mp.Stats.Decomposed != 0 {
			t.Errorf("%s: PlanCount reports %d decomposed plans", name, cp.mp.Stats.Decomposed)
		}
		if cp.Cuts() != nil {
			t.Errorf("%s: PlanCount ships cuts %v", name, cp.Cuts())
		}
	}
}

// Task ranges never decompose — a decomposed plan's tuples root at its
// cut, not where its pattern's matches do — so counts summed over
// disjoint ranges equal the whole-graph count of a batch that decomposes
// when it runs unranged.
func TestTaskRangesSumForDecomposedBatch(t *testing.T) {
	edge, vi := cutBatches()
	for name, b := range map[string][]*Pattern{"edge-induced": edge, "vertex-induced": vi} {
		g := matrixGraph("rmat-64")
		whole, ms, err := CountManyWithStats(g, b, WithThreads(2))
		must(t, err)
		if ms.Morph.Decomposed == 0 {
			t.Fatalf("%s: the whole-graph count decomposed nothing", name)
		}
		n := g.NumVertices()
		sum := make([]uint64, len(b))
		for _, rg := range [][2]uint32{{0, n / 5}, {n / 5, n / 2}, {n / 2, 0}} {
			part, ms, err := CountManyWithStats(g, b, WithThreads(2), WithTaskRange(rg[0], rg[1]))
			must(t, err)
			if ms.Morph.Decomposed != 0 {
				t.Errorf("%s: range %v decomposed", name, rg)
			}
			for i := range part {
				sum[i] += part[i]
			}
		}
		for i, p := range b {
			if sum[i] != whole[i] {
				t.Errorf("%s: %v: ranges sum to %d, the whole graph counts %d", name, p, sum[i], whole[i])
			}
		}
	}
}

// A requested pattern that runs decomposed reports its relation's terms:
// the edge-induced 4-cycle on motif_batch's graph is V at a diagonal less
// twice the wedges, two terms.
func TestDirectDecompositionRecoveryTerms(t *testing.T) {
	g := gen.ErdosRenyi(gen.ERConfig{Vertices: 512, Edges: 2560, MaxDegree: 100, Seed: 1})
	c4 := pattern.Cycle(4)
	got, ms, err := CountManyWithStats(g, []*Pattern{c4})
	must(t, err)
	if m := ms.Morph; m.PatternsReplaced != 1 || m.RecoveryTerms != 2 || m.Decomposed != 1 {
		t.Errorf("morphing %+v, want 1 replaced, 2 recovery terms, 1 decomposed", m)
	}
	direct, err := Count(g, c4, WithoutMorphing())
	must(t, err)
	if got[0] != direct {
		t.Errorf("decomposed count %d, direct %d", got[0], direct)
	}
}

func mustPrepare(t *testing.T, b []*Pattern) *PreparedQuery {
	t.Helper()
	q, err := Prepare(b...)
	must(t, err)
	return q
}
