package harness

import (
	"fmt"
	"runtime"
	"time"

	"peregrine"
	"peregrine/internal/baseline"
	"peregrine/internal/profile"
)

// --- Figure 10: symmetry-breaking ablation (PRG vs PRG-U) ---------------

// Fig10 runs 4-motif counting and the FSM support sweep with and without
// symmetry breaking. PRG-U models systems that are not fully
// pattern-aware (AutoMine): it enumerates every automorphic variant of
// every match. The two bars of a cell differ in that one option only:
// both count un-morphed (PRG-U cannot morph), in count mode, and the
// motif bars under the same deadline.
func Fig10(cfg Config) []Row { return measure("fig10", fig10Cells(cfg)) }

func fig10Cells(cfg Config) []cell {
	var cells []cell
	bars := []struct {
		system string
		opts   []peregrine.Option
	}{
		{"PRG", cfg.prg()},
		{"PRG-U", cfg.prg(peregrine.WithoutSymmetryBreaking())},
	}
	for _, ds := range []string{"mico", "patents", "orkut"} {
		g := cfg.graph(ds)
		for _, bar := range bars {
			cells = append(cells, cell{"4-motifs", ds, bar.system, func() (uint64, string) {
				return prgMotifCensus(g, 4, append(bar.opts, peregrine.WithoutMorphing(), peregrine.WithDeadline(cfg.Deadline)))
			}})
		}
	}
	// FSM: PRG-U pays redundant domain writes per automorphic match. The
	// unbroken engine still reports exact supports because domains are
	// idempotent sets.
	for _, ds := range []string{"mico", "patents-labeled"} {
		g := cfg.graph(ds)
		for _, tau := range fsmSupports(ds, cfg) {
			for _, bar := range bars {
				cells = append(cells, cell{fmt.Sprintf("fsm τ=%d", tau), ds, bar.system, func() (uint64, string) {
					return uint64(len(prgMine(g, tau, bar.opts).Frequent)), ""
				}})
			}
		}
	}
	return cells
}

// --- Figure 11: execution-time breakdown --------------------------------

// Fig11 measures the PO / Core / Non-Core / Other time split during
// 4-motif counting, un-morphed: the stages are those of the motifs' own
// plans.
func Fig11(cfg Config) []Row {
	var rows []Row
	for _, ds := range []string{"mico", "orkut"} {
		g := cfg.graph(ds)
		bd := &peregrine.Breakdown{}
		secs := timeIt(func() {
			prgMotifCensus(g, 4, cfg.prg(peregrine.WithBreakdown(bd), peregrine.WithoutMorphing()))
		})
		metrics := make(map[string]float64)
		for stage, ratio := range bd.Ratios() {
			metrics[stage] = ratio
		}
		rows = append(rows, Row{Experiment: "fig11", App: "4-motifs", Dataset: ds,
			System: "PRG", Seconds: secs, Metrics: metrics})
	}
	return rows
}

// --- Figure 12: scalability and utilization -----------------------------

// Fig12a measures speedup matching p1 on the orkut stand-in across
// thread counts.
func Fig12a(cfg Config) []Row {
	g := cfg.graph("orkut")
	maxThreads := runtime.GOMAXPROCS(0)
	counts := []int{1, 2, 4}
	for t := 8; t <= maxThreads; t *= 2 {
		counts = append(counts, t)
	}
	if counts[len(counts)-1] != maxThreads && maxThreads > 4 {
		counts = append(counts, maxThreads)
	}
	var rows []Row
	var base float64
	for _, t := range counts {
		// Repeat and take the best of 3 to stabilize small-scale timing.
		best := -1.0
		for rep := 0; rep < 3; rep++ {
			secs := timeIt(func() {
				prgMatch(g, peregrine.P1, []peregrine.Option{peregrine.WithThreads(t), peregrine.VertexInduced()})
			})
			if best < 0 || secs < best {
				best = secs
			}
		}
		if t == 1 {
			base = best
		}
		rows = append(rows, Row{
			Experiment: "fig12a", App: "match p1", Dataset: "orkut",
			System: fmt.Sprintf("%d threads", t), Seconds: best,
			Metrics: map[string]float64{"threads": float64(t), "speedup": base / best},
		})
	}
	return rows
}

// Fig12b samples runtime statistics while matching p1: goroutine count
// (CPU-utilization proxy) and allocation rate (bandwidth proxy).
func Fig12b(cfg Config) []Row {
	g := cfg.graph("orkut")
	samples := profile.SampleCPU(2*time.Millisecond, func() { prgMatch(g, peregrine.P1, cfg.prg(peregrine.VertexInduced())) })
	rows := make([]Row, 0, len(samples))
	for i, s := range samples {
		rows = append(rows, Row{
			Experiment: "fig12b", App: "match p1", Dataset: "orkut", System: "PRG",
			Seconds: s.Elapsed.Seconds(),
			Metrics: map[string]float64{
				"sample":     float64(i),
				"goroutines": float64(s.Goroutines),
				"heapMB":     float64(s.HeapAlloc) / (1 << 20),
				"allocMBps":  s.AllocRate / (1 << 20),
			},
		})
	}
	return rows
}

// --- Figure 13: peak memory usage ----------------------------------------

// Fig13 compares peak memory across systems for k-cliques, k-motifs, and
// FSM. Peregrine's peak is measured with a heap sampler (it holds no
// intermediate matches); baselines report their materialized embedding
// bytes, which dominate their footprint.
func Fig13(cfg Config) []Row {
	var rows []Row
	add := func(app, ds, system string, bytes uint64, failed string) {
		rows = append(rows, Row{Experiment: "fig13", App: app, Dataset: ds, System: system,
			Failed: failed, Metrics: map[string]float64{"peakMB": float64(bytes) / (1 << 20)}})
	}
	for _, ds := range []string{"mico", "patents"} {
		g := cfg.graph(ds)
		for _, k := range []int{3, 4, 5} {
			app := fmt.Sprintf("%d-cliques", k)
			add(app, ds, "PRG", measurePeak(func() { prgCliques(g, k, cfg.prg()) }), "")
			m := baseline.BFS(g, baseline.BFSOptions{Size: k, Filter: cliqueFilter(g), MaxStored: cfg.Budget})
			add(app, ds, "ABQ", m.PeakStoredBytes, failReason(m))
			md := baseline.DFS(g, baseline.DFSOptions{Size: k, Threads: cfg.Threads, Filter: cliqueFilter(g), MaxExplored: uint64(cfg.Budget)})
			add(app, ds, "FCL", md.PeakStoredBytes, failReason(md))
			mr := baseline.RStream(g, baseline.RStreamOptions{Size: k, CliqueFilter: true, MaxRows: cfg.Budget})
			add(app, ds, "RS", mr.PeakStoredBytes, failReason(mr))
		}
		for _, size := range []int{3, 4} {
			app := fmt.Sprintf("%d-motifs", size)
			add(app, ds, "PRG", measurePeak(func() { prgMotifCensus(g, size, cfg.prg()) }), "")
			m := baseline.BFS(g, baseline.BFSOptions{Size: size, Classify: true, MaxStored: cfg.Budget})
			add(app, ds, "ABQ", m.PeakStoredBytes, failReason(m))
			md := baseline.DFS(g, baseline.DFSOptions{Size: size, Threads: cfg.Threads, Classify: true, MaxExplored: uint64(cfg.Budget)})
			add(app, ds, "FCL", md.PeakStoredBytes, failReason(md))
			mr := baseline.RStream(g, baseline.RStreamOptions{Size: size, Classify: true, MaxRows: cfg.Budget})
			add(app, ds, "RS", mr.PeakStoredBytes, failReason(mr))
		}
	}
	// FSM memory: Peregrine's row is a heap peak like the others, with
	// the peak of its MNI domain bitmaps beside it (domainMB); the BFS
	// baseline holds embedding levels too.
	for _, ds := range []string{"mico", "patents-labeled"} {
		g := cfg.graph(ds)
		tau := fsmSupports(ds, cfg)[0]
		app := fmt.Sprintf("fsm τ=%d", tau)
		var res *peregrine.FSMResult
		add(app, ds, "PRG", measurePeak(func() { res = prgMine(g, tau, cfg.prg()) }), "")
		rows[len(rows)-1].Metrics["domainMB"] = float64(res.DomainBytes) / (1 << 20)
		_, m := baseline.FSMBFS(g, 3, tau)
		add(app, ds, "ABQ", m.PeakStoredBytes, failReason(m))
	}
	return rows
}

func measurePeak(f func()) uint64 {
	runtime.GC()
	s := profile.StartMemSampler(500 * time.Microsecond)
	f()
	s.Stop()
	return s.PeakAboveBaseline()
}

// --- §6.7: load balance ---------------------------------------------------

// LoadBalanceRows measures the spread between worker finish times while
// matching p1 on each dataset (the paper reports at most 71 ms). The
// spread is p1's own plan's, so the run is un-morphed.
func LoadBalanceRows(cfg Config) []Row {
	var rows []Row
	threads := cfg.Threads
	if threads <= 0 {
		threads = runtime.GOMAXPROCS(0)
	}
	for _, ds := range []string{"mico", "patents", "orkut", "friendster"} {
		g := cfg.graph(ds)
		lb := peregrine.NewLoadBalance(threads)
		secs := timeIt(func() {
			prgMatch(g, peregrine.P1, []peregrine.Option{
				peregrine.WithThreads(threads), peregrine.VertexInduced(), peregrine.WithLoadBalance(lb), peregrine.WithoutMorphing(),
			})
		})
		rows = append(rows, Row{
			Experiment: "loadbalance", App: "match p1", Dataset: ds, System: "PRG",
			Seconds: secs,
			Metrics: map[string]float64{
				"spreadMs": float64(lb.Spread().Microseconds()) / 1000,
				"threads":  float64(threads),
			},
		})
	}
	return rows
}

// Table1 derives the paper's headline speedup summary from the
// comparative tables and Figure 10: the min and max PRG speedup against
// each other system, over the cells both finished.
func Table1(cfg Config) []Row {
	type bounds struct{ lo, hi float64 }
	acc := map[string]*bounds{}
	for _, rows := range [][]Row{Table3(cfg), Table4(cfg), Table5(cfg), Fig10(cfg)} {
		// Index PRG times by (app, dataset).
		prg := map[string]float64{}
		for _, r := range rows {
			if r.System == "PRG" && r.Failed == "" {
				prg[r.App+"|"+r.Dataset] = r.Seconds
			}
		}
		for _, r := range rows {
			p, ok := prg[r.App+"|"+r.Dataset]
			if r.System == "PRG" || r.Failed != "" || !ok || p <= 0 {
				continue
			}
			sp := r.Seconds / p
			b, ok := acc[r.System]
			if !ok {
				b = &bounds{lo: sp, hi: sp}
				acc[r.System] = b
			}
			b.lo, b.hi = min(b.lo, sp), max(b.hi, sp)
		}
	}
	var rows []Row
	for sys, b := range acc {
		rows = append(rows, Row{
			Experiment: "table1", App: "speedup range", System: sys,
			Metrics: map[string]float64{"min": b.lo, "max": b.hi},
		})
	}
	SortRows(rows)
	return rows
}
