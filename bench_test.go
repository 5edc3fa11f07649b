package peregrine

// Benchmark harness: one testing.B benchmark per paper table and figure
// (DESIGN.md §4). Benchmarks run representative cells at benchmark scale
// through internal/harness, the same machinery cmd/tables uses for the
// full row sets — run `go run ./cmd/tables -table all` to regenerate
// every row of every table, and `go test -bench=.` for the quick
// per-experiment timings recorded in EXPERIMENTS.md.

import (
	"fmt"
	"testing"
	"time"

	"peregrine/internal/baseline"
	"peregrine/internal/core"
	"peregrine/internal/fsm"
	"peregrine/internal/gen"
	"peregrine/internal/harness"
	"peregrine/internal/pattern"
	"peregrine/internal/plan"
	"peregrine/internal/profile"
)

func benchCfg(b *testing.B) harness.Config {
	b.Helper()
	cfg := harness.Default()
	cfg.Budget = 2_000_000
	return cfg
}

// --- Figure 1: profiling pattern-oblivious exploration -------------------

// BenchmarkFig1bCliqueProfiling measures 4-clique counting per system on
// the patents stand-in; the interesting output is the explored/checks
// counters, reported as custom metrics.
func BenchmarkFig1bCliqueProfiling(b *testing.B) {
	cfg := benchCfg(b)
	g := harness.BenchDataset("patents", cfg.Scale)
	b.Run("PRG", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			st, err := core.Run(g, pattern.Clique(4), nil, core.Options{})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(st.CoreMatches), "explored/op")
		}
	})
	b.Run("ABQ", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, m := baseline.CliqueCountBFS(g, 4)
			b.ReportMetric(float64(m.Explored), "explored/op")
			b.ReportMetric(float64(m.CanonicalityChecks), "canon/op")
		}
	})
	b.Run("FCL", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, m := baseline.CliqueCountDFS(g, 4, 0)
			b.ReportMetric(float64(m.Explored), "explored/op")
		}
	})
	b.Run("RS", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, m := baseline.CliqueCountRStream(g, 4)
			b.ReportMetric(float64(m.Explored), "explored/op")
		}
	})
}

// BenchmarkFig1cMotifProfiling measures 3-motif counting per system with
// isomorphism-check accounting.
func BenchmarkFig1cMotifProfiling(b *testing.B) {
	cfg := benchCfg(b)
	g := harness.BenchDataset("patents", cfg.Scale)
	b.Run("PRG", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, m := range pattern.GenerateAllVertexInduced(3) {
				if _, err := core.Count(g, pattern.VertexInduced(m), core.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("ABQ", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, m := baseline.MotifCountsBFS(g, 3)
			b.ReportMetric(float64(m.IsomorphismChecks), "iso/op")
		}
	})
	b.Run("FCL", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, m := baseline.MotifCountsDFS(g, 3, 0)
			b.ReportMetric(float64(m.IsomorphismChecks), "iso/op")
		}
	})
	b.Run("RS", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, m := baseline.MotifCountsRStream(g, 3)
			b.ReportMetric(float64(m.Explored), "explored/op")
		}
	})
}

// --- Table 3: Peregrine vs breadth-first systems --------------------------

func BenchmarkTable3Motifs(b *testing.B) {
	cfg := benchCfg(b)
	for _, ds := range []string{"mico", "patents"} {
		g := harness.BenchDataset(ds, cfg.Scale)
		for _, size := range []int{3, 4} {
			b.Run(fmt.Sprintf("%s/%d-motifs/PRG", ds, size), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					for _, m := range pattern.GenerateAllVertexInduced(size) {
						if _, err := core.Count(g, pattern.VertexInduced(m), core.Options{}); err != nil {
							b.Fatal(err)
						}
					}
				}
			})
		}
		b.Run(fmt.Sprintf("%s/3-motifs/ABQ", ds), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				baseline.MotifCountsBFS(g, 3)
			}
		})
		b.Run(fmt.Sprintf("%s/3-motifs/RS", ds), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				baseline.MotifCountsRStream(g, 3)
			}
		})
	}
}

func BenchmarkTable3Cliques(b *testing.B) {
	cfg := benchCfg(b)
	for _, ds := range []string{"mico", "patents"} {
		g := harness.BenchDataset(ds, cfg.Scale)
		for _, k := range []int{3, 4, 5} {
			b.Run(fmt.Sprintf("%s/%d-cliques/PRG", ds, k), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := core.Count(g, pattern.Clique(k), core.Options{}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
		b.Run(fmt.Sprintf("%s/4-cliques/ABQ", ds), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				baseline.CliqueCountBFS(g, 4)
			}
		})
		b.Run(fmt.Sprintf("%s/4-cliques/RS", ds), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				baseline.CliqueCountRStream(g, 4)
			}
		})
	}
}

func BenchmarkTable3FSM(b *testing.B) {
	cfg := benchCfg(b)
	g := harness.BenchDataset("mico", cfg.Scale)
	for _, tau := range []int{12, 16} {
		b.Run(fmt.Sprintf("mico/tau=%d/PRG", tau), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := fsm.Mine(g, 3, tau, core.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("mico/tau=%d/ABQ", tau), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				baseline.FSMBFSBudget(g, 3, tau, 2_000_000)
			}
		})
	}
}

// --- Table 4: Peregrine vs depth-first Fractal -----------------------------

func BenchmarkTable4PatternMatching(b *testing.B) {
	cfg := benchCfg(b)
	for _, ds := range []string{"mico", "patents"} {
		g := harness.BenchDataset(ds, cfg.Scale)
		for _, pname := range []string{"p1", "p3", "p4", "p5", "p6"} {
			p := mustEval(pname)
			vind := pattern.VertexInduced(p)
			b.Run(fmt.Sprintf("%s/%s/PRG", ds, pname), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := core.Count(g, vind, core.Options{}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
		p1 := mustEval("p1")
		b.Run(fmt.Sprintf("%s/p1/FCL", ds), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				baseline.PatternCountDFS(g, p1, 0)
			}
		})
	}
}

func mustEval(name string) *pattern.Pattern {
	switch name {
	case "p1":
		return pattern.MustParse("0-1 1-2 2-3 3-0 0-2")
	case "p3":
		return pattern.MustParse("0-1 1-2 2-3 3-0 0-4")
	case "p4":
		return pattern.MustParse("0-1 1-2 2-3 3-4 4-0 1-4")
	case "p5":
		return pattern.MustParse("0-1 1-2 2-0 2-3 3-4 4-2")
	case "p6":
		p := pattern.Clique(5)
		p.RemoveEdge(3, 4)
		return p
	}
	panic("unknown " + name)
}

// --- Table 5: Peregrine vs G-Miner ------------------------------------------

func BenchmarkTable5GMiner(b *testing.B) {
	cfg := benchCfg(b)
	for _, ds := range []string{"mico", "orkut"} {
		g := harness.BenchDataset(ds, cfg.Scale)
		b.Run(ds+"/3-cliques/PRG", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Count(g, pattern.Clique(3), core.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(ds+"/3-cliques/GM", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				baseline.GMinerTriangles(g, 0)
			}
		})
		lg := harness.BenchDataset(map[string]string{"mico": "mico-p2", "orkut": "orkut-labeled"}[ds], cfg.Scale)
		p2 := pattern.MustParse("0-1 1-2 2-0 2-3 [0:1] [1:2] [2:3] [3:4]")
		b.Run(ds+"/p2/PRG", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Count(lg, p2, core.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(ds+"/p2/GM", func(b *testing.B) {
			idx := baseline.BuildGMinerIndex(lg)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				baseline.GMinerMatchP2(lg, idx, p2, 0)
			}
		})
	}
}

// --- Table 6: structural constraints and existence queries ------------------

func BenchmarkTable6Constraints(b *testing.B) {
	cfg := benchCfg(b)
	p7 := NewEvalPattern(P7)
	p8 := NewEvalPattern(P8)
	for _, ds := range []string{"mico", "patents", "orkut"} {
		g := harness.BenchDataset(ds, cfg.Scale)
		b.Run(ds+"/p7-antivertex", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Count(g, p7, core.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(ds+"/p8-antiedge", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Count(g, p8, core.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(ds+"/exists-14clique", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				// Deadline-bounded: ruling a 14-clique out on the dense
				// stand-ins is combinatorially explosive (EXPERIMENTS.md,
				// Table 6).
				st, err := core.Run(g, pattern.Clique(14), func(ctx *core.Ctx, m *core.Match) {
					ctx.Stop()
				}, core.Options{Deadline: 5 * time.Second})
				if err != nil {
					b.Fatal(err)
				}
				_ = st
			}
		})
	}
}

// --- Figure 10: symmetry-breaking ablation -----------------------------------

func BenchmarkFig10SymmetryBreaking(b *testing.B) {
	cfg := benchCfg(b)
	g := harness.BenchDataset("patents", cfg.Scale)
	motifs := pattern.GenerateAllVertexInduced(4)
	b.Run("4-motifs/PRG", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, m := range motifs {
				if _, err := core.Count(g, pattern.VertexInduced(m), core.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("4-motifs/PRG-U", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, m := range motifs {
				if _, err := core.Count(g, pattern.VertexInduced(m), core.Options{NoSymmetryBreaking: true}); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	lg := harness.BenchDataset("mico", cfg.Scale)
	b.Run("fsm/PRG", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := fsm.Mine(lg, 2, 20, core.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("fsm/PRG-U", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := fsm.Mine(lg, 2, 20, core.Options{NoSymmetryBreaking: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Figure 11: execution-time breakdown --------------------------------------

func BenchmarkFig11Breakdown(b *testing.B) {
	cfg := benchCfg(b)
	g := harness.BenchDataset("mico", cfg.Scale)
	motifs := pattern.GenerateAllVertexInduced(4)
	for i := 0; i < b.N; i++ {
		bd := &profile.Breakdown{}
		for _, m := range motifs {
			if _, err := core.Run(g, pattern.VertexInduced(m), nil, core.Options{Breakdown: bd}); err != nil {
				b.Fatal(err)
			}
		}
		for stage, ratio := range bd.Ratios() {
			b.ReportMetric(ratio, stage+"-ratio")
		}
	}
}

// --- Figure 12: scalability -----------------------------------------------------

func BenchmarkFig12Scalability(b *testing.B) {
	cfg := benchCfg(b)
	g := harness.BenchDataset("orkut", cfg.Scale)
	p := pattern.VertexInduced(mustEval("p1"))
	for _, threads := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("threads=%d", threads), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Count(g, p, core.Options{Threads: threads}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Figure 13: peak memory -------------------------------------------------------

func BenchmarkFig13Memory(b *testing.B) {
	cfg := benchCfg(b)
	g := harness.BenchDataset("patents", cfg.Scale)
	b.Run("4-cliques/PRG", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.Count(g, pattern.Clique(4), core.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("4-cliques/ABQ", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, m := baseline.CliqueCountBFS(g, 4)
			b.ReportMetric(float64(m.PeakStoredBytes), "peakB/op")
		}
	})
	b.Run("4-cliques/RS", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, m := baseline.CliqueCountRStream(g, 4)
			b.ReportMetric(float64(m.PeakStoredBytes), "peakB/op")
		}
	})
}

// --- Engine micro-benchmarks (ablations called out in DESIGN.md) ----------------

// BenchmarkAblationPlanGeneration measures exploration-plan cost; the
// paper reports "often in less than half a millisecond".
func BenchmarkAblationPlanGeneration(b *testing.B) {
	pats := map[string]*pattern.Pattern{
		"triangle":  pattern.Clique(3),
		"diamond":   mustEval("p1"),
		"5-house":   mustEval("p4"),
		"14-clique": pattern.Clique(14),
	}
	for name, p := range pats {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.PlanFor(p, core.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationEarlyTermination compares full counting against an
// existence query answered by the first match (§5.3).
func BenchmarkAblationEarlyTermination(b *testing.B) {
	cfg := benchCfg(b)
	g := harness.BenchDataset("orkut", cfg.Scale)
	b.Run("count-all-triangles", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.Count(g, pattern.Clique(3), core.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("exists-triangle", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.Exists(g, pattern.Clique(3), core.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationDegreeOrderedTasks isolates §5.2: processing start
// vertices from the high-degree end versus low-degree end is the paper's
// dynamic load-balancing choice. Both orders produce identical counts;
// the timing difference on a skewed graph shows the scheduling effect.
func BenchmarkAblationDegreeOrderedTasks(b *testing.B) {
	cfg := benchCfg(b)
	g := harness.BenchDataset("orkut", cfg.Scale)
	p := pattern.Clique(4)
	b.Run("engine-default", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.Count(g, p, core.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Prepared-query API: batched execution and plan caching -------------------

// BenchmarkPreparedVsSerialMotifs compares the prepared multi-pattern
// CountEach — all patterns matched over a single task scan via
// matching-order union — against the serial per-pattern loop the old
// CountMany ran, on the motif workload (all 4-vertex patterns). The
// tasks/op metric makes the traversal sharing visible: the batched path
// scans the vertex set once, the serial loop once per pattern.
func BenchmarkPreparedVsSerialMotifs(b *testing.B) {
	cfg := benchCfg(b)
	g := harness.BenchDataset("patents", cfg.Scale)
	motifs := pattern.GenerateAllVertexInduced(4)
	vind := make([]*Pattern, len(motifs))
	for i, m := range motifs {
		vind[i] = pattern.VertexInduced(m)
	}
	b.Run("serial-loop", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var tasks uint64
			for _, p := range vind {
				_, st, err := CountWithStats(g, p)
				if err != nil {
					b.Fatal(err)
				}
				tasks += st.Tasks
			}
			b.ReportMetric(float64(tasks), "tasks/op")
		}
	})
	b.Run("prepared-CountEach", func(b *testing.B) {
		q, err := Prepare(vind...)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_, ms, err := q.CountEachWithStats(g)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(ms.Tasks), "tasks/op")
		}
	})
}

// BenchmarkSharedVsUnshared isolates cross-pattern traversal sharing:
// each batch runs through the shared-prefix trie versus as independent
// per-order chains (WithoutSharing — the pre-sharing engine's work).
// Morphing is off in both modes so the motif batches execute the
// vertex-induced patterns as given (BenchmarkMorphedVsDirect measures
// the rewrite layer).
// The intersections/op metric is the adjacency candidate-set
// computations performed; sharing keeps it well below the unshared
// figure (~3-4x fewer on motif batches, ~2.7x on the clique batch),
// while tasks/op shows the single shared scan either way. Motif
// counting is completion-dominated, so its wall time moves little; the
// clique batch is all core, so there the saved intersections are
// wall-clock (~25% on patents).
func BenchmarkSharedVsUnshared(b *testing.B) {
	cfg := benchCfg(b)
	s := uint32(cfg.Scale)
	motifGraph := gen.ErdosRenyi(gen.ERConfig{Vertices: 512 * s, Edges: 2000 * uint64(s), Seed: 5})
	batches := []struct {
		name string
		g    *Graph
		pats []*Pattern
	}{
		{"4-motifs", motifGraph, nil},
		{"5-motifs", motifGraph, nil},
		{"cliques-3-6", harness.BenchDataset("patents", cfg.Scale), []*Pattern{
			pattern.Clique(3), pattern.Clique(4), pattern.Clique(5), pattern.Clique(6),
		}},
	}
	for i, size := range []int{4, 5} {
		motifs := pattern.GenerateAllVertexInduced(size)
		for _, m := range motifs {
			batches[i].pats = append(batches[i].pats, pattern.VertexInduced(m))
		}
	}
	for _, batch := range batches {
		q, err := Prepare(batch.pats...)
		if err != nil {
			b.Fatal(err)
		}
		for _, mode := range []struct {
			name string
			opts []Option
		}{
			{"shared", []Option{WithoutMorphing()}},
			{"unshared", []Option{WithoutSharing(), WithoutMorphing()}},
		} {
			b.Run(fmt.Sprintf("%s/%s", batch.name, mode.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					_, ms, err := q.CountEachWithStats(batch.g, mode.opts...)
					if err != nil {
						b.Fatal(err)
					}
					b.ReportMetric(float64(ms.Share.Intersections), "intersections/op")
					b.ReportMetric(float64(ms.Share.IntersectionsSaved), "saved/op")
					b.ReportMetric(float64(ms.Tasks), "tasks/op")
				}
			})
		}
	}
}

// BenchmarkMorphedVsDirect isolates the pattern-morphing layer: full
// vertex-induced motif batches counted through the rewrite
// (morph-then-share) versus as given (WithoutMorphing — same share
// trie, original anti-edge patterns). Anti-edges inflate pattern cores,
// so the direct batches grind through far more core-traversal adjacency
// intersections (intersections/op: ~1.3x more on 4-motifs, ~7x on
// 5-motifs); morphing trades them for completion-side intersections
// over already-narrowed candidate lists (compl-ix/op, which RISES under
// morphing — the trade is visible, the wall-clock still wins ~2-3x).
// Both modes scan the graph once (tasks/op).
func BenchmarkMorphedVsDirect(b *testing.B) {
	cfg := benchCfg(b)
	s := uint32(cfg.Scale)
	g := gen.ErdosRenyi(gen.ERConfig{Vertices: 512 * s, Edges: 2000 * uint64(s), Seed: 5})
	for _, size := range []int{4, 5} {
		var pats []*Pattern
		for _, m := range pattern.GenerateAllVertexInduced(size) {
			pats = append(pats, pattern.VertexInduced(m))
		}
		q, err := Prepare(pats...)
		if err != nil {
			b.Fatal(err)
		}
		for _, mode := range []struct {
			name string
			opts []Option
		}{
			{"morphed", nil},
			{"direct", []Option{WithoutMorphing()}},
		} {
			b.Run(fmt.Sprintf("%d-motifs/%s", size, mode.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					_, ms, err := q.CountEachWithStats(g, mode.opts...)
					if err != nil {
						b.Fatal(err)
					}
					if mode.opts == nil && !ms.Morph.Active() {
						b.Fatal("morphed mode did not morph")
					}
					b.ReportMetric(float64(ms.Share.Intersections), "intersections/op")
					b.ReportMetric(float64(ms.Intersections), "compl-ix/op")
					b.ReportMetric(float64(ms.Tasks), "tasks/op")
				}
			})
		}
	}
}

// BenchmarkCountVsEnumerate isolates count mode's last-level aggregate:
// the same executed plans over the same graph with cb == nil (the last
// completion level contributes its size) versus a callback that does
// nothing (every match is walked). The batches are the benchmark's two
// library workloads: the morphed vertex-induced 4- and 5-motifs on a
// flat graph, and triangle + 4-clique on a power-law one. matches/s is
// the same count either way, so it compares directly.
func BenchmarkCountVsEnumerate(b *testing.B) {
	var motifs []*plan.Plan
	for _, size := range []int{4, 5} {
		for _, m := range pattern.GenerateAllVertexInduced(size) {
			pl, err := plan.New(pattern.VertexInduced(m), plan.Options{})
			if err != nil {
				b.Fatal(err)
			}
			motifs = append(motifs, pl)
		}
	}
	mp := plan.MorphBatch(motifs, plan.NewCache(), plan.Options{})
	if mp == nil {
		b.Fatal("motif batch did not morph")
	}
	var cliques []*plan.Plan
	for _, k := range []int{3, 4} {
		pl, err := plan.New(pattern.Clique(k), plan.Options{})
		if err != nil {
			b.Fatal(err)
		}
		cliques = append(cliques, pl)
	}
	for _, batch := range []struct {
		name string
		g    *Graph
		pls  []*plan.Plan
	}{
		{"motifs-4-5", gen.ErdosRenyi(gen.ERConfig{Vertices: 512, Edges: 2560, MaxDegree: 100, Seed: 1}), mp.Exec},
		{"cliques-3-4", gen.RMAT(gen.RMATConfig{Vertices: 4096, Edges: 50000, Seed: 1}), cliques},
	} {
		for _, mode := range []struct {
			name string
			cb   core.PlanCallback
		}{
			{"count", nil},
			{"enumerate", func(*core.Ctx, int, *core.Match) {}},
		} {
			b.Run(batch.name+"/"+mode.name, func(b *testing.B) {
				var matches uint64
				for i := 0; i < b.N; i++ {
					ms := core.RunPlans(batch.g, batch.pls, mode.cb, core.Options{})
					matches += ms.Matches()
				}
				b.ReportMetric(float64(matches)/b.Elapsed().Seconds(), "matches/s")
			})
		}
	}
}

// BenchmarkPlanCache isolates the compile-once claim: a cache hit is a
// canonicalization plus a map lookup, a miss pays full pattern analysis
// (symmetry breaking, core extraction, matching orders).
func BenchmarkPlanCache(b *testing.B) {
	p := mustEval("p4") // the 5-vertex house: non-trivial symmetries and core
	b.Run("hit", func(b *testing.B) {
		c := plan.NewCache()
		if _, err := c.Get(p, plan.Options{}); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := c.Get(p, plan.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("miss", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c := plan.NewCache()
			if _, err := c.Get(p, plan.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
