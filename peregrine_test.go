package peregrine

import (
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"testing"

	"peregrine/internal/gen"
	"peregrine/internal/ref"
)

func smallLabeled(t testing.TB) *Graph {
	return gen.ErdosRenyi(gen.ERConfig{Vertices: 60, Edges: 180, Seed: 21, Labels: 3})
}

func smallUnlabeled(t testing.TB) *Graph {
	return gen.ErdosRenyi(gen.ERConfig{Vertices: 60, Edges: 180, Seed: 22})
}

func TestCountAgainstBruteForce(t *testing.T) {
	g := smallUnlabeled(t)
	for name, p := range EvalPatterns() {
		p := p
		if p.Labeled() {
			continue
		}
		t.Run(string(name), func(t *testing.T) {
			want := ref.CountUnique(g, p)
			got, err := Count(g, p, WithThreads(4))
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("Count(%s) = %d, brute force = %d", name, got, want)
			}
		})
	}
}

func TestEvalPatternsValidate(t *testing.T) {
	for name, p := range EvalPatterns() {
		if err := p.Validate(); err != nil {
			t.Errorf("pattern %s invalid: %v", name, err)
		}
	}
	if !NewEvalPattern(P2).Labeled() {
		t.Error("p2 must be labeled")
	}
	if len(NewEvalPattern(P7).AntiVertices()) != 1 {
		t.Error("p7 must contain one anti-vertex")
	}
	if NewEvalPattern(P8).NumAntiEdges() != 1 {
		t.Error("p8 must contain one anti-edge")
	}
}

func TestVertexInducedOptionMatchesTheorem31(t *testing.T) {
	g := smallUnlabeled(t)
	for _, p := range []*Pattern{GenerateCycle(4), GenerateStar(4), GenerateChain(4)} {
		viaOption, err := Count(g, p, VertexInduced(), WithThreads(4))
		if err != nil {
			t.Fatal(err)
		}
		want := ref.CountVertexInduced(g, p)
		if viaOption != want {
			t.Fatalf("vertex-induced count = %d, brute force = %d (pattern %v)", viaOption, want, p)
		}
	}
}

func TestMotifCountsSumToAllConnectedSets(t *testing.T) {
	g := smallUnlabeled(t)
	motifs, err := MotifCounts(g, 3, WithThreads(4))
	if err != nil {
		t.Fatal(err)
	}
	if len(motifs) != 2 {
		t.Fatalf("3-motifs: got %d patterns, want 2 (wedge, triangle)", len(motifs))
	}
	var total uint64
	for _, mc := range motifs {
		want := ref.CountVertexInduced(g, mc.Pattern)
		if mc.Count != want {
			t.Errorf("motif %v count = %d, want %d", mc.Pattern, mc.Count, want)
		}
		total += mc.Count
	}
	if total == 0 {
		t.Fatal("expected nonzero 3-motif count")
	}
}

func TestMotifPatternCounts4(t *testing.T) {
	// There are exactly 6 connected graphs on 4 vertices.
	motifs, err := MotifCounts(smallUnlabeled(t), 4, WithThreads(4))
	if err != nil {
		t.Fatal(err)
	}
	if len(motifs) != 6 {
		t.Fatalf("4-motifs: got %d patterns, want 6", len(motifs))
	}
}

func TestCliqueCountMatchesBruteForce(t *testing.T) {
	g := smallUnlabeled(t)
	for k := 3; k <= 5; k++ {
		got, err := CliqueCount(g, k, WithThreads(4))
		if err != nil {
			t.Fatal(err)
		}
		want := ref.CountUnique(g, GenerateClique(k))
		if got != want {
			t.Fatalf("CliqueCount(%d) = %d, want %d", k, got, want)
		}
	}
}

func TestCliqueExistence(t *testing.T) {
	g := gen.ErdosRenyi(gen.ERConfig{Vertices: 200, Edges: 2500, Seed: 30})
	ok, err := CliqueExists(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("triangle should exist in a dense random graph")
	}
	ok, err = CliqueExists(g, 14)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("14-clique should not exist at this density")
	}
}

func TestGlobalClusteringCoefficient(t *testing.T) {
	// A triangle has clustering coefficient exactly 1.
	tri := GraphFromEdges([][2]uint32{{0, 1}, {1, 2}, {2, 0}})
	cc, err := GlobalClusteringCoefficient(tri)
	if err != nil {
		t.Fatal(err)
	}
	if cc != 1 {
		t.Fatalf("triangle clustering coefficient = %v, want 1", cc)
	}
	// A star has no triangles: coefficient 0.
	star := GraphFromEdges([][2]uint32{{0, 1}, {0, 2}, {0, 3}})
	cc, err = GlobalClusteringCoefficient(star)
	if err != nil {
		t.Fatal(err)
	}
	if cc != 0 {
		t.Fatalf("star clustering coefficient = %v, want 0", cc)
	}

	g := smallUnlabeled(t)
	exact, err := GlobalClusteringCoefficient(g)
	if err != nil {
		t.Fatal(err)
	}
	above, err := GlobalClusteringCoefficientExceeds(g, exact/2)
	if err != nil {
		t.Fatal(err)
	}
	if exact > 0 && !above {
		t.Fatalf("coefficient %v should exceed %v", exact, exact/2)
	}
	above, err = GlobalClusteringCoefficientExceeds(g, exact*2+0.01)
	if err != nil {
		t.Fatal(err)
	}
	if above {
		t.Fatalf("coefficient %v should not exceed %v", exact, exact*2+0.01)
	}
}

func TestCountManyAndEdgeCount(t *testing.T) {
	g := smallUnlabeled(t)
	ec, err := EdgeCount(g)
	if err != nil {
		t.Fatal(err)
	}
	if ec != g.NumEdges() {
		t.Fatalf("EdgeCount = %d, NumEdges = %d", ec, g.NumEdges())
	}
	counts, err := CountMany(g, []*Pattern{GenerateClique(3), GenerateStar(3)})
	if err != nil {
		t.Fatal(err)
	}
	if len(counts) != 2 {
		t.Fatalf("CountMany returned %d results", len(counts))
	}
}

func TestWithoutSymmetryBreakingCountsAutomorphisms(t *testing.T) {
	g := smallUnlabeled(t)
	p := GenerateClique(3)
	unique, err := Count(g, p, WithThreads(2))
	if err != nil {
		t.Fatal(err)
	}
	all, err := Count(g, p, WithThreads(2), WithoutSymmetryBreaking())
	if err != nil {
		t.Fatal(err)
	}
	if all != unique*6 {
		t.Fatalf("PRG-U triangle count = %d, want 6×%d", all, unique)
	}
}

func TestLabeledMotifCounts(t *testing.T) {
	g := smallLabeled(t)
	counts, err := LabeledMotifCounts(g, 3, WithThreads(4))
	if err != nil {
		t.Fatal(err)
	}
	if len(counts) == 0 {
		t.Fatal("expected labeled 3-motifs")
	}
	// Sum over labelings must equal the unlabeled motif counts.
	var labeledTotal uint64
	for _, mc := range counts {
		labeledTotal += mc.Count
	}
	unlabeled, err := MotifCounts(g, 3, WithThreads(4))
	if err != nil {
		t.Fatal(err)
	}
	var unlabeledTotal uint64
	for _, mc := range unlabeled {
		unlabeledTotal += mc.Count
	}
	if labeledTotal != unlabeledTotal {
		t.Fatalf("labeled motif total %d != unlabeled total %d", labeledTotal, unlabeledTotal)
	}
}

func TestPlanForExposesStructure(t *testing.T) {
	pl, err := PlanFor(NewEvalPattern(P1))
	if err != nil {
		t.Fatal(err)
	}
	if len(pl.Core) == 0 || len(pl.Orders) == 0 {
		t.Fatalf("plan missing core/orders: %+v", pl)
	}
}

// Open must classify formats correctly and report pre-load metadata
// for the binary.
func TestOpenStatAndFormats(t *testing.T) {
	g := StandardDataset(MicoLite, 1)
	dir := t.TempDir()
	txt, pgr := filepath.Join(dir, "g.txt"), filepath.Join(dir, "g.pgr")
	must(t, SaveGraph(txt, g))
	must(t, SaveGraph(pgr, g))

	bsrc, err := Open(pgr)
	must(t, err)
	st, err := bsrc.Stat()
	must(t, err)
	if st.Vertices != g.NumVertices() || st.Edges != g.NumEdges() || st.Labels != g.NumLabels() {
		t.Fatalf("binary Stat = %+v, want %d/%d/%d", st, g.NumVertices(), g.NumEdges(), g.NumLabels())
	}
	if st.Bytes != g.Bytes() {
		t.Fatalf("binary source predicts %d resident bytes, the graph holds %d", st.Bytes, g.Bytes())
	}

	esrc, err := Open(txt)
	must(t, err)
	if _, err := esrc.Stat(); !errors.Is(err, ErrNoStat) {
		t.Fatalf("edge-list Stat error = %v, want ErrNoStat", err)
	}

	if _, err := Open(filepath.Join(dir, "missing.txt")); err == nil {
		t.Fatal("Open of a missing path succeeded")
	}
	if _, err := Open(txt, WithFormat("bogus")); err == nil {
		t.Fatal("Open with unknown format succeeded")
	}
	// Forcing the format skips sniffing.
	fsrc, err := Open(pgr, WithFormat(FormatBinary))
	must(t, err)
	lg, err := fsrc.Load()
	must(t, err)
	defer lg.Close()
	if lg.NumEdges() != g.NumEdges() {
		t.Fatalf("forced-format load: %v, want %v", lg, g)
	}
}

// WithPlanCache isolates compilation: queries through a private cache
// must not touch the process-wide one.
func TestWithPlanCacheIsolation(t *testing.T) {
	pc := NewPlanCache(8)
	g := GraphFromEdges([][2]uint32{{0, 1}, {1, 2}, {2, 0}, {2, 3}})
	// A pattern shape unlikely to be cached globally by other tests.
	p := MustParsePattern("0-1 1-2 2-3 3-0 0-2 [0:901] [1:902] [2:903] [3:904]")
	gh0, gm0 := PlanCacheStats()
	_, err1 := Count(g, p, WithPlanCache(pc))
	_, err2 := Count(g, p, WithPlanCache(pc))
	must(t, errors.Join(err1, err2))
	hits, misses := pc.Stats()
	if misses != 1 || hits != 1 {
		t.Fatalf("private cache hits/misses = %d/%d, want 1/1", hits, misses)
	}
	if pc.Len() != 1 {
		t.Fatalf("private cache Len = %d, want 1", pc.Len())
	}
	gh1, gm1 := PlanCacheStats()
	if gh1 != gh0 || gm1 != gm0 {
		t.Fatalf("process-wide cache stats moved: %d/%d -> %d/%d", gh0, gm0, gh1, gm1)
	}
}

// TestShardedMatchesAndFSMAgree compares the entry points that enumerate
// instead of counting on a sharded copy and the graph in memory: the
// match set of a pattern and the frequent patterns of FSM.
func TestShardedMatchesAndFSMAgree(t *testing.T) {
	g := matrixGraph("er-48-l3")
	enumerate := func(g *Graph) (matches []string, frequent map[string]int) {
		var mu sync.Mutex
		_, err := ForEachMatch(g, MustParsePattern("0-1 1-2 2-0"), func(_ *Ctx, m *Match) {
			mu.Lock()
			matches = append(matches, fmt.Sprint(m.Mapping))
			mu.Unlock()
		}, WithThreads(4))
		must(t, err)
		sort.Strings(matches)
		res, err := FSM(g, 2, 3, WithThreads(4))
		must(t, err)
		frequent = make(map[string]int)
		for _, f := range res.Frequent {
			frequent[f.Pattern.CanonicalCode()] = f.Support
		}
		return matches, frequent
	}
	wantM, wantF := enumerate(g)
	gotM, gotF := enumerate(shardedCopy(t, g, 6))
	if len(wantM) == 0 || len(wantF) == 0 || !reflect.DeepEqual(gotM, wantM) || !reflect.DeepEqual(gotF, wantF) {
		t.Errorf("sharded: %d matches, frequent %v; in memory: %d matches, frequent %v", len(gotM), gotF, len(wantM), wantF)
	}
}

// TestShardedConcurrentQueries runs concurrent queries over one sharded
// graph — the -race check of the shared fragment set.
func TestShardedConcurrentQueries(t *testing.T) {
	g := gen.ErdosRenyi(gen.ERConfig{Vertices: 96, Edges: 300, Seed: 7})
	sg := shardedCopy(t, g, 8)
	tri := MustParsePattern("0-1 1-2 2-0")
	want, err := Count(g, tri, WithThreads(2))
	must(t, err)
	var wg sync.WaitGroup
	errs := make(chan error, 6)
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				if got, err := Count(sg, tri, WithThreads(2)); err != nil || got != want {
					errs <- fmt.Errorf("concurrent sharded count %d (%v), want %d", got, err, want)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
