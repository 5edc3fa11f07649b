package peregrine

import (
	"testing"
)

// cutBatches are batches of the cut form that in-process counting
// decomposes on every matrix graph: the patterns edge-induced, and
// vertex-induced, whose relatives decompose.
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

// A coordinator ships PlanCount's executed set as pattern text, and a
// decomposed plan counts tuples, not its pattern's matches: PlanCount must
// never hold one, even for batches an in-process count decomposes.
func TestPlanCountNeverDecomposes(t *testing.T) {
	edge, vi := cutBatches()
	for name, b := range map[string][]*Pattern{"edge-induced": edge, "vertex-induced": vi} {
		for _, graph := range []string{"er-48", "er-64", "rmat-64"} {
			_, ms, err := CountManyWithStats(matrixGraph(graph), b, WithThreads(2))
			must(t, err)
			if ms.Morph.Decomposed == 0 {
				t.Errorf("%s %s: the in-process count decomposed nothing: %+v", name, graph, ms.Morph)
			}
		}
		cp, err := PlanCount([]*PreparedQuery{mustPrepare(t, b)})
		must(t, err)
		for i, pl := range cp.exec {
			if pl.Cut != nil {
				t.Errorf("%s: PlanCount executes a decomposed plan for %v", name, cp.Executed()[i])
			}
		}
		if cp.mp != nil && cp.mp.Stats.Decomposed != 0 {
			t.Errorf("%s: PlanCount reports %d decomposed plans", name, cp.mp.Stats.Decomposed)
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

func mustPrepare(t *testing.T, b []*Pattern) *PreparedQuery {
	t.Helper()
	q, err := Prepare(b...)
	must(t, err)
	return q
}
