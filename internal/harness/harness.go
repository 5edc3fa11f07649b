// Package harness is the one encoding of the paper's evaluation (§6):
// the experiments that regenerate every table and figure, the dataset
// stand-ins at benchmark scale, the baseline-system configurations, and
// structured result rows. cmd/tables prints the Experiments list and
// BenchmarkPaper times it; see README "Reproducing the paper's tables".
//
// Every PRG cell is a call of the public peregrine API — the programs of
// the paper's Figure 4 as a user would write them — so the tables time
// the system the library is. One rule decides a cell's options. Cells
// that compare systems (Figure 1, Tables 3–6, Figures 12 and 13) run the
// library's defaults. Cells that isolate one mechanism (Figure 10 and
// with it Table 1's PRG-U row, Figure 11, load balance, and Figure 1's
// "explored" column, which reads CoreMatches — a figure recovered rows
// do not carry) hold everything else equal with the library's ablation
// options: WithoutMorphing on both bars, count mode on both bars,
// WithDeadline and Stats.Stopped for "limit".
package harness

import (
	"fmt"
	"os"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"peregrine"
	"peregrine/internal/baseline"
	"peregrine/internal/gen"
	"peregrine/internal/graph"
)

// Config controls experiment scale and parallelism.
type Config struct {
	// Scale multiplies dataset sizes. 1 is the benchmark default: every
	// cell completes in seconds on a laptop. The PEREGRINE_SCALE
	// environment variable overrides it.
	Scale int
	// Threads for the pattern-aware engine and parallel baselines; 0
	// means GOMAXPROCS.
	Threads int
	// Budget caps baseline resource usage: BFS/RStream abort with "oom"
	// and DFS with "limit" beyond it, reproducing the paper's —/× cells
	// without exhausting the machine. Expressed in stored embeddings /
	// tuples (BFS, RStream) and explored embeddings (DFS).
	Budget int
	// Deadline bounds the PRG cells whose search can explode — Figure
	// 10's 4-motif bars and Table 6; runs that exceed it report "limit",
	// like the paper's PRG-U-on-Orkut 4-motifs, which "did not finish ...
	// within 5 hours". Zero means no deadline.
	Deadline time.Duration

	// data, when set, replaces BenchDataset: the package's tests run the
	// tables' cells on graphs small enough for the brute-force oracle.
	data func(name string) *graph.Graph
}

// graph returns the named dataset stand-in at the configured scale.
func (c Config) graph(name string) *graph.Graph {
	if c.data != nil {
		return c.data(name)
	}
	return BenchDataset(name, c.Scale)
}

// Default returns the standard configuration, honoring PEREGRINE_SCALE.
func Default() Config {
	cfg := Config{Scale: 1, Budget: 4_000_000, Deadline: 20 * time.Second}
	if s := os.Getenv("PEREGRINE_SCALE"); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v > 0 {
			cfg.Scale = v
		}
	}
	return cfg
}

// Experiments lists every table and figure of §6 in the paper's order;
// Table 1, which summarizes the others, comes last.
var Experiments = []struct {
	Name string
	Run  func(Config) []Row
}{
	{"fig1b", func(c Config) []Row { return Fig1(c, false) }},
	{"fig1c", func(c Config) []Row { return Fig1(c, true) }},
	{"3", Table3},
	{"4", Table4},
	{"5", Table5},
	{"6", Table6},
	{"fig10", Fig10},
	{"fig11", Fig11},
	{"fig12a", Fig12a},
	{"fig12b", Fig12b},
	{"fig13", Fig13},
	{"loadbalance", LoadBalanceRows},
	{"1", Table1},
}

// Row is one measured cell of a table or figure.
type Row struct {
	Experiment string // "table3", "fig1b", ...
	App        string // "4-cliques", "3-motifs", "fsm τ=20", "match p1", ...
	Dataset    string
	System     string // "PRG", "PRG-U", "ABQ", "FCL", "RS", "GM"
	Seconds    float64
	Count      uint64
	Failed     string             // "", "oom", or "limit" (the paper's — and ×)
	Metrics    map[string]float64 // experiment-specific extras
}

// String renders the row for terminal tables.
func (r Row) String() string {
	cell := fmt.Sprintf("%8.3fs", r.Seconds)
	if r.Failed != "" {
		cell = fmt.Sprintf("%9s", "("+r.Failed+")")
	}
	return fmt.Sprintf("%-8s %-14s %-16s %-6s %s count=%d", r.Experiment, r.Dataset, r.App, r.System, cell, r.Count)
}

// Datasets used by the experiments. Sizes are tuned so that the
// pattern-aware engine finishes every cell in well under a second at
// scale 1 and the baselines either finish in seconds or hit the budget —
// preserving the paper's relative-density ordering
// (patents flat/sparse < mico < orkut dense; friendster large/sparse).
func BenchDataset(name string, scale int) *graph.Graph {
	s := uint32(scale)
	switch name {
	case "mico":
		return gen.RMAT(gen.RMATConfig{Vertices: 1024 * s, Edges: 9000 * uint64(s), Seed: 1, Labels: 29})
	case "patents":
		// Patents is nearly degree-flat but clustered; a low-skew RMAT
		// keeps cliques present (plain ER has none).
		return gen.RMAT(gen.RMATConfig{Vertices: 2048 * s, Edges: 11000 * uint64(s), A: 0.45, B: 0.22, C: 0.22, Seed: 2})
	case "patents-labeled":
		return gen.RMAT(gen.RMATConfig{Vertices: 2048 * s, Edges: 11000 * uint64(s), A: 0.45, B: 0.22, C: 0.22, Seed: 2, Labels: 37})
	case "orkut":
		return gen.RMAT(gen.RMATConfig{Vertices: 1024 * s, Edges: 24000 * uint64(s), Seed: 3})
	case "orkut-labeled":
		// Synthetic labels 1-6 with uniform probability, as §6.1 does for
		// p2 matching on unlabeled graphs.
		return gen.RMAT(gen.RMATConfig{Vertices: 1024 * s, Edges: 24000 * uint64(s), Seed: 3, Labels: 6})
	case "mico-p2":
		return gen.RMAT(gen.RMATConfig{Vertices: 1024 * s, Edges: 9000 * uint64(s), Seed: 1, Labels: 6})
	case "friendster":
		return gen.RMAT(gen.RMATConfig{Vertices: 4096 * s, Edges: 40000 * uint64(s), Seed: 4})
	case "friendster-labeled":
		return gen.RMAT(gen.RMATConfig{Vertices: 4096 * s, Edges: 40000 * uint64(s), Seed: 4, Labels: 6})
	default:
		panic("harness: unknown dataset " + name)
	}
}

func timeIt(f func()) float64 {
	t0 := time.Now()
	f()
	return time.Since(t0).Seconds()
}

// cell is one cell of a comparative table — a system running an
// application on a dataset — not yet run: run returns the cell's count
// and, for a run that hit its budget or deadline, why.
type cell struct {
	app, ds, system string
	run             func() (count uint64, failed string)
}

// measure runs and times each cell.
func measure(exp string, cells []cell) []Row {
	rows := make([]Row, len(cells))
	for i, c := range cells {
		r := Row{Experiment: exp, App: c.app, Dataset: c.ds, System: c.system}
		r.Seconds = timeIt(func() { r.Count, r.Failed = c.run() })
		rows[i] = r
	}
	return rows
}

// prg returns the options of a PRG cell: the configured thread count
// plus the cell's own. Clipped, so cells that append to a shared option
// list each get their own copy.
func (c Config) prg(extra ...peregrine.Option) []peregrine.Option {
	return slices.Clip(append([]peregrine.Option{peregrine.WithThreads(c.Threads)}, extra...))
}

// must unwraps a library call; the harness only issues valid queries.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// limit renders a PRG run's Stopped flag as a Row.Failed value.
func limit(stopped bool) string {
	if stopped {
		return "limit"
	}
	return ""
}

// The PRG side of the tables: the paper's Figure 4 programs, each one
// call of the public API. They return a cell's (count, failed).

// prgMotifCensus counts all motifs of a size (Figure 4e).
func prgMotifCensus(g *graph.Graph, size int, opts []peregrine.Option) (uint64, string) {
	counts, ms, err := peregrine.MotifCountsWithStats(g, size, opts...)
	if err != nil {
		panic(err)
	}
	var t uint64
	for _, mc := range counts {
		t += mc.Count
	}
	return t, limit(ms.Stopped)
}

// prgCliques counts k-cliques (Figure 4d).
func prgCliques(g *graph.Graph, k int, opts []peregrine.Option) (uint64, string) {
	return must(peregrine.CliqueCount(g, k, opts...)), ""
}

// prgMatch counts one of the Figure 9 patterns.
func prgMatch(g *graph.Graph, name peregrine.EvalPattern, opts []peregrine.Option) (uint64, string) {
	_, st, err := peregrine.CountWithStats(g, peregrine.NewEvalPattern(name), opts...)
	if err != nil {
		panic(err)
	}
	return st.Matches, limit(st.Stopped)
}

// prgMine mines the frequent 3-edge patterns (Figure 4a).
func prgMine(g *graph.Graph, tau int, opts []peregrine.Option) *peregrine.FSMResult {
	return must(peregrine.FSM(g, 3, tau, opts...))
}

// --- Figure 1b / 1c: profiling pattern-oblivious systems ---------------

// Fig1 profiles 4-clique counting (fig1b) or 3-motif counting (fig1c) on
// the patents stand-in, reporting for each system the total matches
// explored, canonicality checks, and isomorphism checks, plus the result
// size — the paper's core motivation numbers.
func Fig1(cfg Config, motifs bool) []Row {
	g := cfg.graph("patents")
	exp, app := "fig1b", "4-cliques"
	if motifs {
		exp, app = "fig1c", "3-motifs"
	}
	var rows []Row
	add := func(system string, secs float64, count uint64, m baseline.Metrics) {
		rows = append(rows, Row{
			Experiment: exp, App: app, Dataset: "patents", System: system,
			Seconds: secs, Count: count, Failed: failReason(m),
			Metrics: map[string]float64{
				"explored":     float64(m.Explored),
				"canonicality": float64(m.CanonicalityChecks),
				"isomorphism":  float64(m.IsomorphismChecks),
			},
		})
	}

	if motifs {
		var rsCounts, bfsCounts, dfsCounts map[string]uint64
		var rsM, bfsM, dfsM baseline.Metrics
		rsSec := timeIt(func() { rsCounts, rsM = baseline.MotifCountsRStream(g, 3) })
		add("RS", rsSec, total(rsCounts), rsM)
		bfsSec := timeIt(func() { bfsCounts, bfsM = baseline.MotifCountsBFS(g, 3) })
		add("ABQ", bfsSec, total(bfsCounts), bfsM)
		dfsSec := timeIt(func() { dfsCounts, dfsM = baseline.MotifCountsDFS(g, 3, cfg.Threads) })
		add("FCL", dfsSec, total(dfsCounts), dfsM)
	} else {
		var rsN, bfsN, dfsN uint64
		var rsM, bfsM, dfsM baseline.Metrics
		rsSec := timeIt(func() { rsN, rsM = baseline.CliqueCountRStream(g, 4) })
		add("RS", rsSec, rsN, rsM)
		bfsSec := timeIt(func() { bfsN, bfsM = baseline.CliqueCountBFS(g, 4) })
		add("ABQ", bfsSec, bfsN, bfsM)
		dfsSec := timeIt(func() { dfsN, dfsM = baseline.CliqueCountDFS(g, 4, cfg.Threads) })
		add("FCL", dfsSec, dfsN, dfsM)
	}

	// Peregrine for reference: pattern-aware exploration generates only
	// matching subgraphs and performs zero canonicality/isomorphism
	// checks during exploration. The explored column is the patterns'
	// own core matches, so the run is un-morphed.
	var per []peregrine.Stats
	prgSec := timeIt(func() {
		opts := cfg.prg(peregrine.WithoutMorphing())
		if motifs {
			_, ms, err := peregrine.MotifCountsWithStats(g, 3, opts...)
			if err != nil {
				panic(err)
			}
			per = ms.Per
		} else {
			_, st, err := peregrine.CountWithStats(g, peregrine.GenerateClique(4), opts...)
			if err != nil {
				panic(err)
			}
			per = []peregrine.Stats{st}
		}
	})
	var count, explored uint64
	for _, st := range per {
		count += st.Matches
		explored += st.CoreMatches
	}
	rows = append(rows, Row{
		Experiment: exp, App: app, Dataset: "patents", System: "PRG",
		Seconds: prgSec, Count: count,
		Metrics: map[string]float64{
			"explored":     float64(explored), // partial matches: core matches only
			"canonicality": 0,
			"isomorphism":  0,
		},
	})
	return rows
}

func total(m map[string]uint64) uint64 {
	var t uint64
	for _, v := range m {
		t += v
	}
	return t
}

// --- Table 3: Peregrine vs breadth-first systems (Arabesque, RStream) --

// Table3 runs motif counting, clique counting, and FSM for Peregrine,
// the Arabesque-style BFS system, and the RStream-style join system.
func Table3(cfg Config) []Row { return measure("table3", table3Cells(cfg)) }

func table3Cells(cfg Config) []cell {
	var cells []cell
	for _, ds := range []string{"mico", "patents", "orkut"} {
		g := cfg.graph(ds)
		for _, size := range []int{3, 4} {
			app := fmt.Sprintf("%d-motifs", size)
			cells = append(cells,
				cell{app, ds, "PRG", func() (uint64, string) { return prgMotifCensus(g, size, cfg.prg()) }},
				cell{app, ds, "ABQ", func() (uint64, string) {
					counts := make(map[string]uint64)
					m := baseline.BFS(g, baseline.BFSOptions{
						Size: size, Classify: true, MaxStored: cfg.Budget,
						Visit: func(_ []uint32, code string) { counts[code]++ },
					})
					return total(counts), failReason(m)
				}},
				cell{app, ds, "RS", func() (uint64, string) {
					counts := make(map[string]uint64)
					m := baseline.RStream(g, baseline.RStreamOptions{
						Size: size, Classify: true, MaxRows: cfg.Budget,
						Visit: func(_ []uint32, code string) { counts[code]++ },
					})
					return total(counts), failReason(m)
				}})
		}
		for _, k := range []int{3, 4, 5} {
			app := fmt.Sprintf("%d-cliques", k)
			cells = append(cells,
				cell{app, ds, "PRG", func() (uint64, string) { return prgCliques(g, k, cfg.prg()) }},
				cell{app, ds, "ABQ", func() (n uint64, failed string) {
					m := baseline.BFS(g, baseline.BFSOptions{
						Size: k, Filter: cliqueFilter(g), MaxStored: cfg.Budget,
						Visit: func([]uint32, string) { n++ },
					})
					return n, failReason(m)
				}},
				cell{app, ds, "RS", func() (n uint64, failed string) {
					m := baseline.RStream(g, baseline.RStreamOptions{
						Size: k, CliqueFilter: true, MaxRows: cfg.Budget,
						Visit: func([]uint32, string) { n++ },
					})
					return n, failReason(m)
				}})
		}
	}
	// FSM with a support sweep on the labeled datasets (the paper's
	// 2K/3K/4K-FSM on Mico, 20K..23K-FSM on Patents, scaled to our
	// dataset sizes).
	for _, ds := range []string{"mico", "patents-labeled"} {
		g := cfg.graph(ds)
		for _, tau := range fsmSupports(ds, cfg) {
			app := fmt.Sprintf("fsm τ=%d", tau)
			cells = append(cells,
				cell{app, ds, "PRG", func() (uint64, string) {
					return uint64(len(prgMine(g, tau, cfg.prg()).Frequent)), ""
				}},
				cell{app, ds, "ABQ", func() (uint64, string) {
					n, m := baseline.FSMBFSBudget(g, 3, tau, cfg.Budget)
					return uint64(n), failReason(m)
				}})
		}
	}
	return cells
}

// fsmSupports picks the support sweep per dataset. The stand-ins' MNI
// distributions fall off quickly (at scale 1, mico keeps ~all 411
// single-edge labelings at tau=3 and none at tau=20), so the sweep spans
// the transition — the paper's low-support regime where pattern-oblivious
// FSM collapses sits at the bottom of the range.
func fsmSupports(ds string, cfg Config) []int {
	if ds == "mico" {
		return []int{8 * cfg.Scale, 12 * cfg.Scale, 16 * cfg.Scale}
	}
	return []int{8 * cfg.Scale, 12 * cfg.Scale}
}

func cliqueFilter(g *graph.Graph) func([]uint32) bool {
	return func(emb []uint32) bool {
		last := emb[len(emb)-1]
		for _, v := range emb[:len(emb)-1] {
			if !g.HasEdge(v, last) {
				return false
			}
		}
		return true
	}
}

func failReason(m baseline.Metrics) string {
	if m.Aborted {
		return m.AbortReason
	}
	return ""
}

// --- Table 4: Peregrine vs depth-first Fractal --------------------------

// Table4 runs the Table 3 workloads plus pattern matching p1–p6 against
// the Fractal-style DFS system.
func Table4(cfg Config) []Row { return measure("table4", table4Cells(cfg)) }

func table4Cells(cfg Config) []cell {
	var cells []cell
	for _, ds := range []string{"mico", "patents", "orkut"} {
		g := cfg.graph(ds)
		for _, size := range []int{3, 4} {
			app := fmt.Sprintf("%d-motifs", size)
			cells = append(cells,
				cell{app, ds, "PRG", func() (uint64, string) { return prgMotifCensus(g, size, cfg.prg()) }},
				cell{app, ds, "FCL", func() (uint64, string) {
					counts, m := dfsCensus(g, size, cfg, "")
					return total(counts), failReason(m)
				}})
		}
		for _, k := range []int{3, 4, 5} {
			app := fmt.Sprintf("%d-cliques", k)
			cells = append(cells,
				cell{app, ds, "PRG", func() (uint64, string) { return prgCliques(g, k, cfg.prg()) }},
				cell{app, ds, "FCL", func() (uint64, string) {
					m := baseline.DFS(g, baseline.DFSOptions{
						Size: k, Threads: cfg.Threads, Filter: cliqueFilter(g), MaxExplored: uint64(cfg.Budget),
						Visit: func([]uint32, string) {},
					})
					return m.Results, failReason(m)
				}})
		}
		// Pattern matching p1–p6, vertex-induced semantics for both
		// systems: Fractal's census classifies connected vertex sets.
		for _, name := range []peregrine.EvalPattern{peregrine.P1, peregrine.P2, peregrine.P3, peregrine.P4, peregrine.P5, peregrine.P6} {
			p := peregrine.NewEvalPattern(name)
			gg := g
			if p.Labeled() {
				gg = cfg.graph(labeledVariant(ds))
			}
			app := "match " + string(name)
			cells = append(cells,
				cell{app, ds, "PRG", func() (uint64, string) {
					return prgMatch(gg, name, cfg.prg(peregrine.VertexInduced()))
				}},
				cell{app, ds, "FCL", func() (uint64, string) {
					counts, m := dfsCensus(gg, p.N(), cfg, p.CanonicalCode())
					return total(counts), failReason(m)
				}})
		}
	}
	return cells
}

func labeledVariant(ds string) string {
	switch ds {
	case "mico":
		return "mico-p2"
	case "patents":
		return "patents-labeled"
	case "orkut":
		return "orkut-labeled"
	case "friendster":
		return "friendster-labeled"
	}
	return ds
}

// dfsCensus is the Fractal-style system's one program: classify every
// connected vertex set of the size, within the budget, and tally the
// classes — all of them, or just the one named.
func dfsCensus(g *graph.Graph, size int, cfg Config, only string) (map[string]uint64, baseline.Metrics) {
	var mu sync.Mutex
	counts := make(map[string]uint64)
	m := baseline.DFS(g, baseline.DFSOptions{
		Size: size, Threads: cfg.Threads, Classify: true, MaxExplored: uint64(cfg.Budget),
		Visit: func(_ []uint32, code string) {
			if only == "" || code == only {
				mu.Lock()
				counts[code]++
				mu.Unlock()
			}
		},
	})
	return counts, m
}

// --- Table 5: Peregrine vs G-Miner --------------------------------------

// Table5 runs 3-clique counting and labeled p2 matching against the
// G-Miner-style task system.
func Table5(cfg Config) []Row { return measure("table5", table5Cells(cfg)) }

func table5Cells(cfg Config) []cell {
	var cells []cell
	for _, ds := range []string{"mico", "patents", "orkut", "friendster"} {
		g, lg := cfg.graph(ds), cfg.graph(labeledVariant(ds))
		cells = append(cells,
			cell{"3-cliques", ds, "PRG", func() (uint64, string) { return prgCliques(g, 3, cfg.prg()) }},
			cell{"3-cliques", ds, "GM", func() (uint64, string) {
				n, _ := baseline.GMinerTriangles(g, cfg.Threads)
				return n, ""
			}},
			cell{"match p2", ds, "PRG", func() (uint64, string) { return prgMatch(lg, peregrine.P2, cfg.prg()) }},
			cell{"match p2", ds, "GM", func() (uint64, string) {
				n, _ := baseline.GMinerMatchP2(lg, baseline.BuildGMinerIndex(lg), peregrine.NewEvalPattern(peregrine.P2), cfg.Threads)
				return n, ""
			}})
	}
	return cells
}

// --- Table 6: structural constraints and existence queries --------------

// Table6 runs the anti-vertex pattern p7, the anti-edge pattern p8, and
// the 14-clique existence query on every dataset. Cells are bounded by
// cfg.Deadline: an exhaustive search that rules a 14-clique *out* can be
// combinatorially explosive on dense synthetic graphs, so runs cut short
// report "limit".
func Table6(cfg Config) []Row { return measure("table6", table6Cells(cfg)) }

func table6Cells(cfg Config) []cell {
	var cells []cell
	opts := cfg.prg(peregrine.WithDeadline(cfg.Deadline))
	for _, ds := range []string{"mico", "patents", "orkut", "friendster"} {
		g := cfg.graph(ds)
		cells = append(cells,
			cell{"anti-vertex p7", ds, "PRG", func() (uint64, string) { return prgMatch(g, peregrine.P7, opts) }},
			cell{"anti-edge p8", ds, "PRG", func() (uint64, string) { return prgMatch(g, peregrine.P8, opts) }},
			// The paper's existence program (Figure 4f): stop at the first
			// match. Written over ForEachMatch because the cell also needs
			// Stats.Stopped, which the boolean CliqueExists does not return.
			cell{"exists 14-clique", ds, "PRG", func() (uint64, string) {
				var found atomic.Bool
				st := must(peregrine.ForEachMatch(g, peregrine.GenerateClique(14), func(ctx *peregrine.Ctx, _ *peregrine.Match) {
					found.Store(true)
					ctx.Stop()
				}, opts...))
				if found.Load() {
					return 1, ""
				}
				// Stopped without a match: the deadline hit before the
				// search space was exhausted.
				return 0, limit(st.Stopped)
			}})
	}
	return cells
}

// SortRows orders rows for stable printing.
func SortRows(rows []Row) {
	sort.SliceStable(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		if a.Dataset != b.Dataset {
			return a.Dataset < b.Dataset
		}
		if a.App != b.App {
			return a.App < b.App
		}
		return a.System < b.System
	})
}
