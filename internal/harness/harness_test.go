package harness

import (
	"fmt"
	"testing"
	"time"

	"peregrine"
	"peregrine/internal/gen"
	"peregrine/internal/graph"
	"peregrine/internal/ref"
)

// The harness tests run the cheapest experiments end-to-end and assert
// structural properties of the rows: systems agree on counts, failures
// are marked, the paper's qualitative orderings hold, and the PRG cells
// are the library.

func testCfg() Config {
	return Config{Scale: 1, Budget: 1_000_000, Deadline: 5 * time.Second}
}

func TestFig1RowsConsistent(t *testing.T) {
	rows := Fig1(testCfg(), false)
	if len(rows) != 4 {
		t.Fatalf("fig1b rows = %d, want 4", len(rows))
	}
	counts := make(map[string]uint64)
	explored := make(map[string]float64)
	for _, r := range rows {
		if r.Failed != "" {
			continue
		}
		counts[r.System] = r.Count
		explored[r.System] = r.Metrics["explored"]
	}
	// Every system that finished must agree on the answer.
	for sys, c := range counts {
		if c != counts["PRG"] {
			t.Errorf("%s count %d != PRG count %d", sys, c, counts["PRG"])
		}
	}
	// The Figure 1 shape: pattern-oblivious systems explore far more
	// than Peregrine, and RStream explores the most.
	if explored["ABQ"] <= 10*explored["PRG"] {
		t.Errorf("ABQ explored %.0f, expected ≫ PRG %.0f", explored["ABQ"], explored["PRG"])
	}
	if explored["RS"] <= explored["ABQ"] {
		t.Errorf("RS explored %.0f, expected > ABQ %.0f", explored["RS"], explored["ABQ"])
	}
	// Peregrine performs no canonicality or isomorphism checks.
	for _, r := range rows {
		if r.System == "PRG" {
			if r.Metrics["canonicality"] != 0 || r.Metrics["isomorphism"] != 0 {
				t.Error("PRG must perform zero canonicality/isomorphism checks")
			}
		}
	}
}

func TestTable5RowsConsistent(t *testing.T) {
	rows := Table5(testCfg())
	byKey := make(map[string]map[string]uint64)
	for _, r := range rows {
		k := r.Dataset + "|" + r.App
		if byKey[k] == nil {
			byKey[k] = make(map[string]uint64)
		}
		byKey[k][r.System] = r.Count
	}
	for k, systems := range byKey {
		if systems["PRG"] != systems["GM"] {
			t.Errorf("%s: PRG=%d GM=%d", k, systems["PRG"], systems["GM"])
		}
	}
}

func TestTable6RowsBounded(t *testing.T) {
	cfg := testCfg()
	cfg.Deadline = 2 * time.Second
	start := time.Now()
	rows := Table6(cfg)
	if len(rows) != 12 {
		t.Fatalf("table6 rows = %d, want 12", len(rows))
	}
	// 12 cells, each bounded by ~2s: the whole table must respect the
	// deadline budget (generous multiplier for scheduling noise).
	if elapsed := time.Since(start); elapsed > 60*time.Second {
		t.Fatalf("table6 took %v despite 2s per-cell deadline", elapsed)
	}
	for _, r := range rows {
		if r.App == "anti-vertex p7" && r.Failed == "" && r.Count == 0 && r.Dataset != "patents" {
			t.Logf("note: %s has zero maximal triangles", r.Dataset)
		}
	}
}

// app pairs what a user of the library would call for one application
// of the tables with the brute-force oracle's answer.
type app struct{ lib, ref func(g *graph.Graph) uint64 }

// prgApps is the motif, clique and p1–p8 applications by cell name.
func prgApps() map[string]app {
	apps := make(map[string]app)
	for _, size := range []int{3, 4} {
		apps[fmt.Sprintf("%d-motifs", size)] = app{
			func(g *graph.Graph) (n uint64) {
				for _, mc := range must(peregrine.MotifCounts(g, size)) {
					n += mc.Count
				}
				return n
			},
			func(g *graph.Graph) (n uint64) {
				for _, m := range peregrine.GenerateAllVertexInduced(size) {
					n += ref.CountVertexInduced(g, m)
				}
				return n
			},
		}
	}
	for _, k := range []int{3, 4, 5} {
		apps[fmt.Sprintf("%d-cliques", k)] = app{
			func(g *graph.Graph) uint64 { return must(peregrine.CliqueCount(g, k)) },
			func(g *graph.Graph) uint64 { return ref.CountUnique(g, peregrine.GenerateClique(k)) },
		}
	}
	for _, name := range []peregrine.EvalPattern{peregrine.P1, peregrine.P2, peregrine.P3, peregrine.P4, peregrine.P5, peregrine.P6} {
		p := peregrine.NewEvalPattern(name)
		apps["match "+string(name)] = app{
			func(g *graph.Graph) uint64 { return must(peregrine.Count(g, p, peregrine.VertexInduced())) },
			func(g *graph.Graph) uint64 { return ref.CountVertexInduced(g, p) },
		}
	}
	for name, p := range map[string]*peregrine.Pattern{
		"anti-vertex p7": peregrine.NewEvalPattern(peregrine.P7),
		"anti-edge p8":   peregrine.NewEvalPattern(peregrine.P8),
	} {
		apps[name] = app{
			func(g *graph.Graph) uint64 { return must(peregrine.Count(g, p)) },
			func(g *graph.Graph) uint64 { return ref.CountUnique(g, p) },
		}
	}
	return apps
}

// TestTablesAreTheLibrary pins what the PRG rows are: on the patents
// and mico stand-ins every motif, clique and p1–p8 cell of Tables 3, 4
// and 6 reports what the corresponding peregrine call returns, and on a
// graph small enough for it, what the brute-force oracle returns. (Of
// the full-size cells mico's p3–p5 are left out: seconds each per run,
// minutes under the race detector, and the same programs as patents'.)
func TestTablesAreTheLibrary(t *testing.T) {
	apps := prgApps()
	slowOnMico := map[string]bool{"match p3": true, "match p4": true, "match p5": true}
	cellsOf := func(cfg Config) []cell {
		var out []cell
		seen := make(map[string]bool)
		for _, c := range append(append(table3Cells(cfg), table4Cells(cfg)...), table6Cells(cfg)...) {
			_, known := apps[c.app]
			wanted := c.ds == "patents" || c.ds == "mico" && !slowOnMico[c.app]
			if key := c.app + "|" + c.ds; known && wanted && c.system == "PRG" && !seen[key] {
				seen[key] = true
				out = append(out, c)
			}
		}
		return out
	}

	cfg := testCfg()
	rows := measure("t", cellsOf(cfg))
	if want := 2*len(apps) - len(slowOnMico); len(rows) != want {
		t.Fatalf("%d PRG cells selected, want %d", len(rows), want)
	}
	for _, r := range rows {
		g := BenchDataset(r.Dataset, 1)
		if r.App == "match p2" { // the one labeled pattern runs on the labeled variant
			g = BenchDataset(labeledVariant(r.Dataset), 1)
		}
		if want := apps[r.App].lib(g); r.Count != want || r.Failed != "" {
			t.Errorf("%s on %s: row reports %d %q, the library %d", r.App, r.Dataset, r.Count, r.Failed, want)
		}
	}

	// Labels 0..4 so the labeled p2 (labels 1..4) has something to match.
	small := gen.ErdosRenyi(gen.ERConfig{Vertices: 64, Edges: 220, Seed: 21, Labels: 5})
	cfg.data = func(string) *graph.Graph { return small }
	for _, r := range measure("t", cellsOf(cfg)) {
		if r.Dataset != "patents" {
			continue // every dataset name is the same small graph
		}
		if want := apps[r.App].ref(small); r.Count != want || r.Failed != "" {
			t.Errorf("%s on the 64-vertex graph: row reports %d %q, the oracle %d", r.App, r.Count, r.Failed, want)
		}
	}
}

// TestFig10ComparesLikeWithLike checks the symmetry-breaking ablation
// through one counting mode: with neither bar cut short, PRG is the
// 4-motif census and PRG-U counts every match once per automorphism of
// its motif, exactly.
func TestFig10ComparesLikeWithLike(t *testing.T) {
	cfg := testCfg()
	cfg.Deadline = time.Minute
	var cells []cell
	for _, c := range fig10Cells(cfg) {
		if c.ds == "patents" && c.app == "4-motifs" {
			cells = append(cells, c)
		}
	}
	counts := make(map[string]uint64)
	for _, r := range measure("fig10", cells) {
		if r.Failed != "" {
			t.Skipf("%s hit the limit", r.System)
		}
		counts[r.System] = r.Count
	}
	var census, unbroken uint64
	for _, mc := range must(peregrine.MotifCounts(BenchDataset("patents", 1), 4)) {
		census += mc.Count
		unbroken += uint64(len(mc.Pattern.Automorphisms())) * mc.Count
	}
	if len(counts) != 2 || counts["PRG"] != census || counts["PRG-U"] != unbroken {
		t.Errorf("fig10 patents 4-motifs = %v, want PRG %d and PRG-U Σ|Aut|·count = %d", counts, census, unbroken)
	}
}

// BenchmarkPaper times every experiment of the paper's evaluation, one
// sub-benchmark each: `go test -run '^$' -bench 'Paper/fig1b$'
// -benchtime=1x ./internal/harness`. Tables 3 and 4 take minutes.
func BenchmarkPaper(b *testing.B) {
	cfg := Default()
	for _, e := range Experiments {
		b.Run(e.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e.Run(cfg)
			}
		})
	}
}

// meanDegree returns g's mean vertex degree.
func meanDegree(g *graph.Graph) float64 {
	mean, _ := g.DegreeMoments()
	return mean
}

func TestBenchDatasetsShaped(t *testing.T) {
	mico := BenchDataset("mico", 1)
	orkut := BenchDataset("orkut", 1)
	patents := BenchDataset("patents", 1)
	friendster := BenchDataset("friendster", 1)
	if !mico.Labeled() || orkut.Labeled() {
		t.Error("mico labeled, orkut unlabeled — as in the paper")
	}
	if !(meanDegree(orkut) > meanDegree(mico)) {
		t.Errorf("orkut (%.1f) must be denser than mico (%.1f)", meanDegree(orkut), meanDegree(mico))
	}
	if !(meanDegree(patents) < meanDegree(mico)) {
		t.Errorf("patents (%.1f) must be sparser than mico (%.1f)", meanDegree(patents), meanDegree(mico))
	}
	if friendster.NumVertices() <= orkut.NumVertices() {
		t.Error("friendster must be the largest dataset")
	}
	defer func() {
		if recover() == nil {
			t.Error("unknown dataset must panic")
		}
	}()
	BenchDataset("nope", 1)
}

func TestRowString(t *testing.T) {
	r := Row{Experiment: "t", App: "a", Dataset: "d", System: "s", Seconds: 1.5, Count: 7}
	if r.String() == "" {
		t.Fatal("empty row string")
	}
	r.Failed = "oom"
	if got := r.String(); got == "" {
		t.Fatal("empty failed row string")
	}
}
