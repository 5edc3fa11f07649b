package peregrine

// Differential, metamorphic, and stress tests for cross-pattern
// traversal sharing. The shared-prefix trie rewrites the engine's hot
// path, so it is checked three ways against executions that share no
// merging logic: per-plan serial execution (WithoutSharing runs every
// matching order as its own chain — the pre-sharing engine), the
// pattern-oblivious baselines in internal/baseline, and itself under
// metamorphic transformations (subsetting, shuffling, duplication of
// the plan batch must never change any per-pattern count).

import (
	"math"
	"math/rand"
	"testing"

	"peregrine/internal/baseline"
	"peregrine/internal/gen"
	"peregrine/internal/graph"
	"peregrine/internal/pattern"
	"peregrine/internal/ref"
)

// patternsUpTo4 returns every connected pattern with 2..4 vertices in
// generation order, paired with its vertex-induced conversion.
func patternsUpTo4() (orig, vind []*Pattern) {
	for size := 2; size <= 4; size++ {
		for _, m := range pattern.GenerateAllVertexInduced(size) {
			orig = append(orig, m)
			vind = append(vind, pattern.VertexInduced(m))
		}
	}
	return orig, vind
}

// baselineWant computes the expected vertex-induced count of every
// 2..4-vertex pattern on g from the Fractal-style baseline census.
func baselineWant(t *testing.T, g *graph.Graph, orig []*Pattern) map[int]uint64 {
	t.Helper()
	codes := make(map[string]uint64)
	bySize := map[int]bool{}
	for _, p := range orig {
		bySize[p.N()] = true
	}
	for size := range bySize {
		want, _ := baseline.MotifCountsDFS(g, size, 4)
		for code, n := range want {
			codes[code] = n
		}
	}
	out := make(map[int]uint64, len(orig))
	for i, p := range orig {
		out[i] = codes[p.CanonicalCode()]
	}
	return out
}

// TestDifferentialSharedBatches checks, on seeded random graphs, that
// batched trie execution, per-plan serial (unshared) execution, and the
// pattern-oblivious baseline agree exactly for every full motif batch
// of 2..4 vertices and for the combined batch of all nine patterns.
func TestDifferentialSharedBatches(t *testing.T) {
	orig, vind := patternsUpTo4()
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"er-48", gen.ErdosRenyi(gen.ERConfig{Vertices: 48, Edges: 110, Seed: 11})},
		{"er-64", gen.ErdosRenyi(gen.ERConfig{Vertices: 64, Edges: 140, Seed: 12})},
		{"rmat-64", gen.RMAT(gen.RMATConfig{Vertices: 64, Edges: 160, Seed: 13})},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := baselineWant(t, tc.g, orig)
			serial := make([]uint64, len(vind))
			for i, p := range vind {
				n, err := Count(tc.g, p, WithoutSharing(), WithThreads(4))
				if err != nil {
					t.Fatal(err)
				}
				serial[i] = n
				if n != want[i] {
					t.Errorf("pattern %v: serial = %d, baseline = %d", orig[i], n, want[i])
				}
			}
			// Full batches per size plus the combined batch: each runs all
			// plans through one shared trie.
			all := make([]int, len(vind))
			for i := range vind {
				all[i] = i
			}
			sizeIdx := map[int][]int{}
			for i, p := range orig {
				sizeIdx[p.N()] = append(sizeIdx[p.N()], i)
			}
			batches := [][]int{sizeIdx[2], sizeIdx[3], sizeIdx[4], all}
			for _, idx := range batches {
				ps := make([]*Pattern, len(idx))
				for j, i := range idx {
					ps[j] = vind[i]
				}
				// WithoutMorphing: this suite measures the share trie on the
				// batch as given (morphed-path counts have their own
				// three-way differential in morph_test.go).
				counts, ms, err := CountManyWithStats(tc.g, ps, WithThreads(4), WithoutMorphing())
				if err != nil {
					t.Fatal(err)
				}
				for j, i := range idx {
					if counts[j] != serial[i] {
						t.Errorf("batch %v pattern %v: batched = %d, serial = %d", idx, orig[i], counts[j], serial[i])
					}
				}
				if len(idx) > 1 && ms.Share.TrieNodes >= ms.Share.ProgramSteps {
					t.Errorf("batch %v: no prefixes merged (%d nodes / %d steps)", idx, ms.Share.TrieNodes, ms.Share.ProgramSteps)
				}
			}
		})
	}
}

// TestDifferentialSharedPairs checks every pair of 2..4-vertex patterns
// as its own batch: pairwise tries hit every divergence shape (equal
// prefixes, label-gated roots, disjoint programs), and each pair's
// batched counts must equal the baseline's.
func TestDifferentialSharedPairs(t *testing.T) {
	orig, vind := patternsUpTo4()
	g := gen.ErdosRenyi(gen.ERConfig{Vertices: 48, Edges: 110, Seed: 11})
	want := baselineWant(t, g, orig)
	for i := range vind {
		for j := i + 1; j < len(vind); j++ {
			counts, err := CountMany(g, []*Pattern{vind[i], vind[j]}, WithThreads(2))
			if err != nil {
				t.Fatalf("pair (%v, %v): %v", orig[i], orig[j], err)
			}
			if counts[0] != want[i] || counts[1] != want[j] {
				t.Errorf("pair (%v, %v): batched = %v, baseline = (%d, %d)",
					orig[i], orig[j], counts, want[i], want[j])
			}
		}
	}
}

// TestDifferentialSharedLabeled checks the labeled three-way on labeled
// seeded graphs: the baseline's labeled census, the batched label
// discovery of LabeledMotifCounts (unlabeled patterns through a shared
// trie), serial per-labeled-pattern counting, and an explicit batch of
// all discovered labeled patterns (label-gated trie roots) must agree.
func TestDifferentialSharedLabeled(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"er-48-l3", gen.ErdosRenyi(gen.ERConfig{Vertices: 48, Edges: 110, Seed: 11, Labels: 3})},
		{"rmat-64-l4", gen.RMAT(gen.RMATConfig{Vertices: 64, Edges: 160, Seed: 13, Labels: 4})},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for size := 2; size <= 4; size++ {
				want, _ := baseline.MotifCountsDFS(tc.g, size, 4)
				got, err := LabeledMotifCounts(tc.g, size, WithThreads(4))
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Errorf("size %d: discovered %d labeled classes, baseline %d", size, len(got), len(want))
				}
				var labeled []*Pattern
				var counts []uint64
				for code, mc := range got {
					if mc.Count != want[code] {
						t.Errorf("size %d class %v: discovery = %d, baseline = %d", size, mc.Pattern, mc.Count, want[code])
					}
					n, err := Count(tc.g, mc.Pattern, VertexInduced(), WithoutSharing(), WithThreads(4))
					if err != nil {
						t.Fatal(err)
					}
					if n != mc.Count {
						t.Errorf("size %d class %v: serial labeled = %d, discovery = %d", size, mc.Pattern, n, mc.Count)
					}
					labeled = append(labeled, mc.Pattern)
					counts = append(counts, mc.Count)
				}
				if len(labeled) == 0 {
					t.Fatalf("size %d: no labeled classes discovered", size)
				}
				batched, err := CountMany(tc.g, labeled, VertexInduced(), WithThreads(4))
				if err != nil {
					t.Fatal(err)
				}
				for i := range labeled {
					if batched[i] != counts[i] {
						t.Errorf("size %d class %v: batched labeled = %d, want %d", size, labeled[i], batched[i], counts[i])
					}
				}
			}
		})
	}
}

// TestSharedTrieHugeLabelsNoCollision guards the count path's label
// keys — plan-cache codes, trie step keys, matching-order grouping —
// against truncation: labels a narrowed encoding merges (congruent mod
// 2^8, 2^16 and 2^24, and the Wildcard/65535/MaxInt32 extremes) must
// never share a plan, a trie node or an ordered view, or one pattern's
// candidates get filtered by the other's label.
func TestSharedTrieHugeLabelsNoCollision(t *testing.T) {
	const x = 100000
	for _, pair := range [][2]Label{{3, 259}, {3, 65539}, {3, 16777219}, {Wildcard, 65535}, {Wildcard, math.MaxInt32}} {
		a, b := pair[0], pair[1]
		// Disjoint triangles whose a- and b-labeled vertices sit on either
		// side of the data-id order in unequal numbers, so a label taken
		// for the other, or two ordered views taken for one, changes a
		// count. A Wildcard data label is NoLabel: an unlabeled vertex.
		gb := NewGraphBuilder()
		for i, tri := range [][3]Label{{1, a, x}, {b, 1, x}, {b, 1, x}, {a, b, x}, {b, a, x}, {b, a, x}} {
			v := uint32(3 * i)
			gb.AddEdge(v, v+1)
			gb.AddEdge(v+1, v+2)
			gb.AddEdge(v+2, v)
			for j, l := range tri {
				gb.SetLabel(v+uint32(j), uint32(l))
			}
		}
		g := gb.Build()
		triangle := func(l0, l1 Label) *Pattern {
			p := MustParsePattern("0-1 1-2 2-0")
			p.SetLabel(0, l0)
			p.SetLabel(1, l1)
			p.SetLabel(2, x)
			return p
		}
		// pab carries both labels on its core, whose two ends differ only
		// by them.
		pa, pb, pab := triangle(1, a), triangle(1, b), triangle(a, b)
		// Both batch orders: a merged node inherits whichever label was
		// inserted first, so each order corrupts a different pattern.
		for _, batch := range [][]*Pattern{{pa, pb, pab}, {pab, pb, pa}} {
			got, err := CountMany(g, batch, WithThreads(2))
			if err != nil {
				t.Fatal(err)
			}
			for i, p := range batch {
				if want := ref.CountUnique(g, p); got[i] != want {
					t.Errorf("labels %d/%d: %v counts %d, oracle %d", a, b, p, got[i], want)
				}
			}
		}
	}
}

// TestMetamorphicSubsetsAndShuffles: for random subsets of the ≤4-vertex
// pattern set (with duplicates allowed), the batched per-pattern counts
// must equal each pattern's independent count, and shuffling the batch
// must permute — never change — the counts. Trie construction must be
// order-insensitive for this to hold.
func TestMetamorphicSubsetsAndShuffles(t *testing.T) {
	_, vind := patternsUpTo4()
	g := gen.RMAT(gen.RMATConfig{Vertices: 64, Edges: 160, Seed: 13})
	solo := make([]uint64, len(vind))
	for i, p := range vind {
		n, err := Count(g, p, WithThreads(4))
		if err != nil {
			t.Fatal(err)
		}
		solo[i] = n
	}
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		k := 1 + rng.Intn(len(vind))
		idx := make([]int, k)
		for j := range idx {
			idx[j] = rng.Intn(len(vind)) // duplicates allowed
		}
		ps := make([]*Pattern, k)
		for j, i := range idx {
			ps[j] = vind[i]
		}
		counts, err := CountMany(g, ps, WithThreads(4))
		if err != nil {
			t.Fatal(err)
		}
		var batchTotal, soloTotal uint64
		for j, i := range idx {
			if counts[j] != solo[i] {
				t.Errorf("trial %d: subset %v position %d = %d, independent = %d", trial, idx, j, counts[j], solo[i])
			}
			batchTotal += counts[j]
			soloTotal += solo[i]
		}
		if batchTotal != soloTotal {
			t.Errorf("trial %d: batch total %d != sum of independents %d", trial, batchTotal, soloTotal)
		}

		perm := rng.Perm(k)
		shuffled := make([]*Pattern, k)
		for j, pj := range perm {
			shuffled[j] = ps[pj]
		}
		shufCounts, err := CountMany(g, shuffled, WithThreads(4))
		if err != nil {
			t.Fatal(err)
		}
		for j, pj := range perm {
			if shufCounts[j] != counts[pj] {
				t.Errorf("trial %d: shuffle changed a count: pos %d = %d, want %d", trial, j, shufCounts[j], counts[pj])
			}
		}
	}
}

// TestSharingSavesIntersections enforces the sharing win the trie
// exists for: on the 5-motif batch, shared execution must perform at
// least 1.5x fewer adjacency intersections than unshared execution
// (the measured ratio is ~5x; 4-motifs ~3x).
func TestSharingSavesIntersections(t *testing.T) {
	g := gen.ErdosRenyi(gen.ERConfig{Vertices: 128, Edges: 400, Seed: 3})
	for _, tc := range []struct {
		size  int
		ratio float64
	}{
		{4, 1.5},
		{5, 1.5},
	} {
		// WithoutMorphing on both sides: this measures the trie's sharing
		// win on the motif batch itself; morphing's further reduction is
		// measured separately (morph_test.go, BenchmarkMorphedVsDirect).
		_, sh, err := MotifCountsWithStats(g, tc.size, WithThreads(4), WithoutMorphing())
		if err != nil {
			t.Fatal(err)
		}
		_, un, err := MotifCountsWithStats(g, tc.size, WithThreads(4), WithoutSharing(), WithoutMorphing())
		if err != nil {
			t.Fatal(err)
		}
		if sh.Share.Intersections == 0 || un.Share.Intersections == 0 {
			t.Fatalf("size %d: empty intersection counts (%d shared, %d unshared)", tc.size, sh.Share.Intersections, un.Share.Intersections)
		}
		got := float64(un.Share.Intersections) / float64(sh.Share.Intersections)
		if got < tc.ratio {
			t.Errorf("size %d: sharing saves only %.2fx intersections, want >= %.1fx (%d vs %d)",
				tc.size, got, tc.ratio, sh.Share.Intersections, un.Share.Intersections)
		}
		if sh.Share.Intersections+sh.Share.IntersectionsSaved != un.Share.Intersections {
			t.Errorf("size %d: accounting broken: %d + %d != %d",
				tc.size, sh.Share.Intersections, sh.Share.IntersectionsSaved, un.Share.Intersections)
		}
	}
}

// TestMatchesEarlyBreakSharedStress breaks out of the streaming match
// iterator mid-stream over a shared trie with many workers, repeatedly:
// under -race, any aliasing of shared candidate sets between workers —
// or between the engine and the consumer's retained mappings — is a
// detected race. Each yielded Match must own its Mapping, so mutating
// it must never corrupt later deliveries.
func TestMatchesEarlyBreakSharedStress(t *testing.T) {
	g := gen.RMAT(gen.RMATConfig{Vertices: 256, Edges: 2048, Seed: 7})
	_, vind := patternsUpTo4()
	q, err := Prepare(vind...)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 5; round++ {
		seq, st, err := q.MatchesWithStats(g, WithThreads(8))
		if err != nil {
			t.Fatal(err)
		}
		limit := 50 + 37*round
		var kept []Match
		n := 0
		for pat, m := range seq {
			if pat < 0 || pat >= len(vind) {
				t.Fatalf("pattern index %d out of range", pat)
			}
			kept = append(kept, m)
			// Scribble over the yielded mapping: it must be owned.
			for i := range m.Mapping {
				m.Mapping[i] = NoVertex
			}
			if n++; n >= limit {
				break
			}
		}
		if n < limit && !st.Stopped {
			// Stream ended before the limit: the batch has fewer matches,
			// which the tiny early rounds should never hit on this graph.
			t.Fatalf("round %d: stream ended at %d matches", round, n)
		}
		for _, m := range kept {
			for _, v := range m.Mapping {
				if v != NoVertex {
					t.Fatal("scribbled mapping changed: Mapping not owned by consumer")
				}
			}
		}
	}
}
