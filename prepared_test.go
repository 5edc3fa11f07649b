package peregrine

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"peregrine/internal/gen"
	"peregrine/internal/graph"
	"peregrine/internal/pattern"
	"peregrine/internal/ref"
)

// The batched path must traverse the task space once, not once per
// pattern: its Tasks figure is the vertex count, while the serial loop
// scans len(patterns) times as many.
func TestPreparedCountEachSingleTraversal(t *testing.T) {
	g := gen.ErdosRenyi(gen.ERConfig{Vertices: 64, Edges: 140, Seed: 12})
	pats := pattern.GenerateAllVertexInduced(4)
	q, err := Prepare(pats...)
	if err != nil {
		t.Fatal(err)
	}
	_, ms, err := q.CountEachWithStats(g)
	if err != nil {
		t.Fatal(err)
	}
	if ms.Tasks != uint64(g.NumVertices()) {
		t.Errorf("batched tasks = %d, want %d (one traversal)", ms.Tasks, g.NumVertices())
	}
	var serialTasks uint64
	for _, p := range pats {
		_, st, err := CountWithStats(g, p)
		if err != nil {
			t.Fatal(err)
		}
		serialTasks += st.Tasks
	}
	if want := uint64(len(pats)) * uint64(g.NumVertices()); serialTasks != want {
		t.Fatalf("serial loop tasks = %d, want %d", serialTasks, want)
	}
	if ms.Tasks*uint64(len(pats)) != serialTasks {
		t.Errorf("batched %d vs serial %d tasks: batching should divide scans by %d",
			ms.Tasks, serialTasks, len(pats))
	}
}

// Concurrent Prepares of the same shapes (in shuffled numberings) must
// be safe under -race and converge on shared cached plans.
func TestConcurrentPrepare(t *testing.T) {
	shapes := []*Pattern{
		pattern.Clique(3),
		pattern.MustParse("0-1 1-2 2-0 2-3"),
		pattern.MustParse("2-3 3-0 0-2 0-1"), // previous shape, renumbered
		pattern.Star(4),
	}
	g := gen.ErdosRenyi(gen.ERConfig{Vertices: 48, Edges: 110, Seed: 11})
	want, err := CountMany(g, shapes)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 12
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			q, err := Prepare(shapes...)
			if err != nil {
				t.Error(err)
				return
			}
			got, err := q.CountEach(g, WithThreads(2))
			if err != nil {
				t.Error(err)
				return
			}
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("pattern %d: concurrent CountEach = %d, want %d", i, got[i], want[i])
				}
			}
		}()
	}
	wg.Wait()
	// The two renumbered tailed-triangle shapes are isomorphic and must
	// count identically through the shared plan.
	if want[1] != want[2] {
		t.Errorf("isomorphic renumbered patterns count %d vs %d", want[1], want[2])
	}
}

// Matches delivered for a pattern that hit a differently-numbered
// cached plan must come back in the caller's numbering: every mapped
// data vertex must carry the label the caller's pattern demands.
func TestMatchesRemapsIsomorphicNumbering(t *testing.T) {
	b := graph.NewBuilder()
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.SetLabel(0, 1)
	b.SetLabel(1, 2)
	b.SetLabel(2, 3)
	g := b.Build()

	a := MustParsePattern("0-1 1-2 [0:1] [1:2] [2:3]")
	c := MustParsePattern("0-1 1-2 [0:3] [1:2] [2:1]") // a with endpoints renumbered
	q, err := Prepare(a, c)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := q.Matches(g)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, 2)
	pats := []*Pattern{a, c}
	for pi, m := range seq {
		counts[pi]++
		if m.Pattern != pats[pi] {
			t.Errorf("match for pattern %d carries pattern %v", pi, m.Pattern)
		}
		for v := 0; v < pats[pi].N(); v++ {
			if got, want := Label(g.Label(m.Mapping[v])), pats[pi].LabelOf(v); got != want {
				t.Errorf("pattern %d vertex %d mapped to data label %d, want %d", pi, v, got, want)
			}
		}
	}
	if counts[0] != 1 || counts[1] != 1 {
		t.Errorf("match counts = %v, want [1 1]", counts)
	}
}

// The Matches iterator must stream: yielded mappings are retained
// safely, the order-of-arrival total equals the pattern's count, and
// breaking out of the range stops the workers like Ctx.Stop — on a
// graph whose full star enumeration would run far beyond the test
// timeout, an early break must return promptly.
func TestMatchesIteratorStreamAndEarlyBreak(t *testing.T) {
	tri := triangleComponents(40)
	q, err := Prepare(MustParsePattern("0-1 1-2 2-0"))
	if err != nil {
		t.Fatal(err)
	}
	seq, err := q.Matches(tri)
	if err != nil {
		t.Fatal(err)
	}
	var retained [][]uint32
	for _, m := range seq {
		retained = append(retained, m.Mapping) // no copy: iterator matches are owned
	}
	if len(retained) != 40 {
		t.Fatalf("streamed %d matches, want 40", len(retained))
	}
	seen := make(map[uint32]bool)
	for _, mp := range retained {
		for _, v := range mp {
			if seen[v] {
				t.Fatal("retained mappings alias or repeat vertices across disjoint triangles")
			}
			seen[v] = true
		}
	}

	// Early break on an exploration that cannot finish in test time.
	dense := gen.Standard(gen.OrkutLite, 1)
	qs, err := Prepare(MustParsePattern("0-1 0-2 0-3 0-4 0-5 0-6"))
	if err != nil {
		t.Fatal(err)
	}
	stars, err := qs.Matches(dense)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	got := 0
	for _, m := range stars {
		_ = m
		got++
		if got == 3 {
			break
		}
	}
	if got != 3 {
		t.Fatalf("yielded %d matches before break, want 3", got)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("early break took %v; workers did not stop", elapsed)
	}
}

// triangleComponents builds n disjoint triangles.
func triangleComponents(n int) *Graph {
	b := graph.NewBuilder()
	for i := uint32(0); i < uint32(n); i++ {
		base := 3 * i
		b.AddEdge(base, base+1)
		b.AddEdge(base+1, base+2)
		b.AddEdge(base+2, base)
	}
	return b.Build()
}

// Prepared Exists stops at the first match of any pattern, and a
// prepared query is reusable across graphs.
func TestPreparedExistsAndReuse(t *testing.T) {
	q, err := Prepare(GenerateClique(3), GenerateClique(4))
	if err != nil {
		t.Fatal(err)
	}
	tri := triangleComponents(2)
	ok, err := q.Exists(tri)
	if err != nil || !ok {
		t.Fatalf("Exists on triangles = %v, %v; want true", ok, err)
	}
	chain := GraphFromEdges([][2]uint32{{0, 1}, {1, 2}})
	ok, err = q.Exists(chain)
	if err != nil || ok {
		t.Fatalf("Exists on a path = %v, %v; want false", ok, err)
	}
	counts, err := q.CountEach(tri)
	if err != nil {
		t.Fatal(err)
	}
	if counts[0] != 2 || counts[1] != 0 {
		t.Errorf("CountEach = %v, want [2 0]", counts)
	}
	total, err := q.Count(tri)
	if err != nil || total != 2 {
		t.Errorf("Count = %d, %v; want 2", total, err)
	}
}

// PrepareWith bakes plan-affecting options into the compiled plans and
// makes them the query's execution defaults: no per-call re-passing is
// needed, and a per-call option a query was NOT prepared with
// recompiles correctly rather than reusing the wrong plans.
func TestPrepareWithOptions(t *testing.T) {
	g := gen.ErdosRenyi(gen.ERConfig{Vertices: 48, Edges: 110, Seed: 21})
	pats := []*Pattern{GenerateClique(3), GenerateStar(3)}

	unbroken, err := PrepareWith([]Option{WithoutSymmetryBreaking()}, pats...)
	if err != nil {
		t.Fatal(err)
	}
	// Prepared options hold without being re-passed per call.
	counts, err := unbroken.CountEach(g)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pats {
		serial, err := Count(g, p, WithoutSymmetryBreaking())
		if err != nil {
			t.Fatal(err)
		}
		if counts[i] != serial {
			t.Errorf("pattern %v without symmetry breaking: prepared = %d, serial = %d", p, counts[i], serial)
		}
	}

	// A default-prepared query asked to run with a new plan-affecting
	// option recompiles through the cache.
	def, err := Prepare(pats...)
	if err != nil {
		t.Fatal(err)
	}
	broken, err := def.CountEach(g)
	if err != nil {
		t.Fatal(err)
	}
	over, err := def.CountEach(g, WithoutSymmetryBreaking())
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pats {
		serial, err := Count(g, p)
		if err != nil {
			t.Fatal(err)
		}
		if broken[i] != serial {
			t.Errorf("pattern %v default options: prepared = %d, serial = %d", p, broken[i], serial)
		}
		if over[i] != counts[i] {
			t.Errorf("pattern %v: per-call override = %d, prepared-unbroken = %d; must agree", p, over[i], counts[i])
		}
		if counts[i] != 0 && broken[i] >= counts[i] {
			t.Errorf("pattern %v: symmetry-broken count %d not below unbroken %d", p, broken[i], counts[i])
		}
	}
}

// MatchesWithStats exposes whether the enumeration was truncated: a
// bound that fires must surface as Stopped after the range ends, and a
// run to completion must not.
func TestMatchesWithStatsReportsTruncation(t *testing.T) {
	q, err := Prepare(GenerateClique(3))
	if err != nil {
		t.Fatal(err)
	}
	tri := triangleComponents(3)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	seq, st, err := q.MatchesWithStats(tri, WithContext(ctx))
	if err != nil {
		t.Fatal(err)
	}
	for range seq {
	}
	if !st.Stopped {
		t.Error("cancelled enumeration: Stopped = false, want true")
	}

	seq, st, err = q.MatchesWithStats(tri)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for range seq {
		n++
	}
	if n != 3 || st.Stopped || st.Matches() != 3 {
		t.Errorf("complete enumeration: yielded %d, stats = %+v; want 3 unstopped", n, st)
	}
}

// Prepare input validation.
func TestPrepareErrors(t *testing.T) {
	if _, err := Prepare(); err == nil {
		t.Error("Prepare() accepted zero patterns")
	}
	if _, err := Prepare(NewPattern(3)); err == nil {
		t.Error("Prepare accepted an edgeless pattern")
	}
}

// TestCountEntryPointsAgree: the counting entry points are adapters over
// one pipeline. For each vertex-induced 3- and 4-motif, Count,
// CountMany, CountEach and CountEachMerged report the same morph and
// share figures and Count's row is CountMany's, whole and by range; no
// ranged part morphs; PlanCount's executed set counted by range and
// finished once reports the whole run's morph decision; and the whole
// motif batch is MotifCounts', one Per row per pattern.
func TestCountEntryPointsAgree(t *testing.T) {
	g := matrixGraph("er-48")
	v := g.NumVertices()
	for size := 3; size <= 4; size++ {
		var vips []*Pattern
		for _, s := range pattern.GenerateAllVertexInduced(size) {
			vips = append(vips, pattern.VertexInduced(s))
		}
		_, ms, err1 := CountManyWithStats(g, vips, WithThreads(4))
		_, mms, err2 := MotifCountsWithStats(g, size, WithThreads(4))
		must(t, errors.Join(err1, err2))
		if mms.Morph != ms.Morph || mms.Share != ms.Share || len(ms.Per) != len(vips) {
			t.Errorf("size %d: MotifCounts morph %+v share %+v, CountMany %+v %+v in %d rows",
				size, mms.Morph, mms.Share, ms.Morph, ms.Share, len(ms.Per))
		}
		for _, vip := range vips {
			q, err := Prepare(vip)
			must(t, err)
			_, st, err1 := CountWithStats(g, vip, WithThreads(4))
			_, one, err2 := CountManyWithStats(g, []*Pattern{vip}, WithThreads(4))
			_, each, err3 := q.CountEachWithStats(g, WithThreads(4))
			_, merged, err4 := CountEachMerged(g, []*PreparedQuery{q}, WithThreads(4))
			cp, err5 := PlanCount([]*PreparedQuery{q})
			must(t, errors.Join(err1, err2, err3, err4, err5))
			if !sameWork(st, one.Per[0]) || each.Morph != one.Morph || each.Share != one.Share ||
				merged.Morph != one.Morph || merged.Share != one.Share || cp.Rewritten() != one.Morph.Active() {
				t.Errorf("%v: Count %+v, CountMany %+v %+v, CountEach %+v, CountEachMerged %+v, PlanCount rewritten %v",
					vip, st, one.Per[0], one.Morph, each.Morph, merged.Morph, cp.Rewritten())
			}
			executed := cp.Executed()
			ranged := MultiStats{Per: make([]Stats, len(executed))}
			for _, cut := range [][2]uint32{{0, v / 4}, {v / 4, v / 2}, {v / 2, 3 * v / 4}, {3 * v / 4, 0}} {
				rg := WithTaskRange(cut[0], cut[1])
				_, part, err1 := CountManyWithStats(g, executed, WithThreads(4), rg)
				_, st, err2 := CountWithStats(g, vip, WithThreads(4), rg)
				_, solo, err3 := CountManyWithStats(g, []*Pattern{vip}, WithThreads(4), rg)
				must(t, errors.Join(err1, err2, err3))
				if solo.Morph.Active() || !sameWork(st, solo.Per[0]) {
					t.Errorf("%v range %v: morph %+v; Count ran %+v, CountMany %+v", vip, cut, solo.Morph, st, solo.Per[0])
				}
				for j := range part.Per {
					ranged.Per[j].Matches += part.Per[j].Matches
				}
			}
			if per, finished := cp.Finish(ranged); per[0][0].Matches != one.Per[0].Matches || finished.Morph != one.Morph {
				t.Errorf("%v: executed set %v by range, finished once = %d (morph %+v), whole run %d (morph %+v)",
					vip, executed, per[0][0].Matches, finished.Morph, one.Per[0].Matches, one.Morph)
			}
		}
	}
}

// sameWork compares the deterministic figures of two Stats rows.
func sameWork(a, b Stats) bool {
	return a.Matches == b.Matches && a.CoreMatches == b.CoreMatches &&
		a.Tasks == b.Tasks && a.Intersections == b.Intersections
}

// The merged batch dedups isomorphic patterns across queries through
// the plan cache and traverses the task space exactly once.
func TestCountEachMergedDedupsAcrossQueries(t *testing.T) {
	g := gen.ErdosRenyi(gen.ERConfig{Vertices: 64, Edges: 140, Seed: 12})
	// An overlapping mix: the triangle appears in three queries (once
	// renumbered), the wedge in two (once renumbered as a star).
	var queries []*PreparedQuery
	total := 0
	for _, texts := range [][]string{
		{"0-1 1-2 2-0", "0-1 1-2"},
		{"1-0 2-0", "0-1 0-2 0-3 1-2 1-3 2-3"},
		{"2-0 0-1 1-2"},
		{"0-1 1-2 2-0", "0-1"},
	} {
		var pats []*Pattern
		for _, s := range texts {
			pats = append(pats, MustParsePattern(s))
		}
		q, err := Prepare(pats...)
		must(t, err)
		queries = append(queries, q)
		total += len(pats)
	}
	per, ms, err := CountEachMerged(g, queries)
	must(t, err)
	// 7 requested patterns, 4 distinct up to isomorphism: triangle,
	// wedge, 4-clique, edge.
	if total != 7 {
		t.Fatalf("mix changed: %d patterns requested", total)
	}
	if len(ms.Per) != 4 {
		t.Errorf("unique plans = %d, want 4 (isomorphic duplicates deduped)", len(ms.Per))
	}
	if ms.Tasks != uint64(g.NumVertices()) {
		t.Errorf("merged tasks = %d, want %d (one traversal)", ms.Tasks, g.NumVertices())
	}
	// Deduped queries see the shared plan's full row: the triangle rows
	// handed to queries 0, 2, and 3 are the same counts.
	if a, b, c := per[0][0].Matches, per[2][0].Matches, per[3][0].Matches; a != b || b != c {
		t.Errorf("triangle rows diverged across queries: %d, %d, %d", a, b, c)
	}
	if per[0][1].Matches != per[1][0].Matches {
		t.Errorf("wedge rows diverged: %d vs %d", per[0][1].Matches, per[1][0].Matches)
	}
}

func TestCountEachMergedEmpty(t *testing.T) {
	g := gen.ErdosRenyi(gen.ERConfig{Vertices: 8, Edges: 12, Seed: 1})
	per, ms, err := CountEachMerged(g, nil)
	must(t, err)
	if per != nil || ms.Tasks != 0 {
		t.Errorf("empty batch returned %v, %+v", per, ms)
	}
}

// TestSharingSavesIntersections enforces the sharing win the trie
// exists for: on the 5-motif batch, shared execution must perform at
// least 1.5x fewer adjacency intersections than unshared execution
// (the measured ratio is ~5x; 4-motifs ~3x).
func TestSharingSavesIntersections(t *testing.T) {
	g := gen.ErdosRenyi(gen.ERConfig{Vertices: 128, Edges: 400, Seed: 3})
	const ratio = 1.5
	for _, size := range []int{4, 5} {
		// WithoutMorphing on both sides: this measures the trie's sharing
		// win on the motif batch itself; morphing's further reduction is
		// TestMorphTelemetryInvariant's and BenchmarkMorphedVsDirect's.
		_, sh, err1 := MotifCountsWithStats(g, size, WithThreads(4), WithoutMorphing())
		_, un, err2 := MotifCountsWithStats(g, size, WithThreads(4), WithoutSharing(), WithoutMorphing())
		must(t, errors.Join(err1, err2))
		if sh.Share.Intersections == 0 || un.Share.Intersections == 0 {
			t.Fatalf("size %d: empty intersection counts (%d shared, %d unshared)", size, sh.Share.Intersections, un.Share.Intersections)
		}
		got := float64(un.Share.Intersections) / float64(sh.Share.Intersections)
		if got < ratio {
			t.Errorf("size %d: sharing saves only %.2fx intersections, want >= %.1fx (%d vs %d)",
				size, got, ratio, sh.Share.Intersections, un.Share.Intersections)
		}
		if sh.Share.Intersections+sh.Share.IntersectionsSaved != un.Share.Intersections {
			t.Errorf("size %d: accounting broken: %d + %d != %d",
				size, sh.Share.Intersections, sh.Share.IntersectionsSaved, un.Share.Intersections)
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
	var vind []*Pattern
	for size := 2; size <= 4; size++ {
		for _, m := range pattern.GenerateAllVertexInduced(size) {
			vind = append(vind, pattern.VertexInduced(m))
		}
	}
	q, err := Prepare(vind...)
	must(t, err)
	for round := 0; round < 5; round++ {
		seq, st, err := q.MatchesWithStats(g, WithThreads(8))
		must(t, err)
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
			must(t, err)
			for i, p := range batch {
				if want := ref.CountUnique(g, p); got[i] != want {
					t.Errorf("labels %d/%d: %v counts %d, oracle %d", a, b, p, got[i], want)
				}
			}
		}
	}
}

// TestMorphTelemetryInvariant pins the morphing telemetry to
// independently measured ablation runs: executed work plus savings must
// equal the direct run's work, for trie program steps and for runtime
// adjacency intersections, and the motif-batch savings must clear the
// bar the morphing layer exists for.
func TestMorphTelemetryInvariant(t *testing.T) {
	size := 5
	if testing.Short() {
		size = 4
	}
	g := gen.ErdosRenyi(gen.ERConfig{Vertices: 64, Edges: 140, Seed: 12})
	var vips []*Pattern
	for _, s := range pattern.GenerateAllVertexInduced(size) {
		vips = append(vips, pattern.VertexInduced(s))
	}
	morphed, ms, err1 := CountManyWithStats(g, vips, WithThreads(4))
	direct, ms0, err2 := CountManyWithStats(g, vips, WithThreads(4), WithoutMorphing())
	must(t, errors.Join(err1, err2))
	for i := range vips {
		if morphed[i] != direct[i] {
			t.Fatalf("pattern %d: morphed = %d, direct = %d", i, morphed[i], direct[i])
		}
	}
	if !ms.Morph.Active() {
		t.Fatalf("size-%d motif batch did not morph: %+v", size, ms.Morph)
	}

	// Trie program steps: StepsMorphed/StepsDirect are what the two runs
	// compiled to, and morphed + saved == direct.
	if ms.Morph.StepsMorphed != ms.Share.ProgramSteps {
		t.Errorf("stepsMorphed = %d, executed trie has %d program steps",
			ms.Morph.StepsMorphed, ms.Share.ProgramSteps)
	}
	if ms.Morph.StepsDirect != ms0.Share.ProgramSteps {
		t.Errorf("stepsDirect = %d, ablation trie has %d program steps",
			ms.Morph.StepsDirect, ms0.Share.ProgramSteps)
	}
	stepsSaved := ms0.Share.ProgramSteps - ms.Share.ProgramSteps
	if ms.Morph.StepsMorphed+stepsSaved != ms.Morph.StepsDirect {
		t.Errorf("steps: morphed %d + saved %d != direct %d",
			ms.Morph.StepsMorphed, stepsSaved, ms.Morph.StepsDirect)
	}

	// Core-traversal intersections (Share.Intersections) are what morphing
	// shrinks: anti-edges inflate the pattern core. Counting runs are
	// deterministic, so the ablation pair measures the saving exactly.
	im, id := ms.Share.Intersections, ms0.Share.Intersections
	if im > id {
		t.Fatalf("morphed run did MORE core intersections: %d > %d", im, id)
	}
	ms.Morph.IntersectionsSaved = id - im
	if im+ms.Morph.IntersectionsSaved != id {
		t.Errorf("intersections: morphed %d + saved %d != direct %d",
			im, ms.Morph.IntersectionsSaved, id)
	}
	if !testing.Short() && id*10 < im*13 {
		t.Errorf("5-motif batch saves only %d of %d core intersections, want >= 1.3x", id-im, id)
	}

	// Completion-side intersections may rise under morphing: the relatives
	// complete more matches. MultiStats.Intersections counts them batch-wide,
	// past recovery's re-synthesized rows; on the direct run it is the rows' sum.
	var perSum uint64
	for _, s := range ms0.Per {
		perSum += s.Intersections
	}
	if ms0.Intersections != perSum {
		t.Errorf("direct batch Intersections = %d, Per rows sum to %d", ms0.Intersections, perSum)
	}
	if ms.Intersections == 0 {
		t.Error("morphed batch reports zero completion intersections")
	}
}

// TestMorphBypassesEdgeInduced: anti-edge-free batches run exactly as
// given — no rewrite, no telemetry.
func TestMorphBypassesEdgeInduced(t *testing.T) {
	g := gen.ErdosRenyi(gen.ERConfig{Vertices: 48, Edges: 110, Seed: 11})
	batch := []*Pattern{pattern.Clique(3), pattern.Chain(4), pattern.Star(4)}
	morphed, ms, err := CountManyWithStats(g, batch, WithThreads(4))
	must(t, err)
	if ms.Morph.Active() || ms.Morph.MorphsChosen != 0 {
		t.Errorf("edge-induced batch reports morphing: %+v", ms.Morph)
	}
	direct, err := CountMany(g, batch, WithThreads(4), WithoutMorphing())
	must(t, err)
	for i := range batch {
		if morphed[i] != direct[i] {
			t.Errorf("pattern %v: %d != %d", batch[i], morphed[i], direct[i])
		}
	}
}
