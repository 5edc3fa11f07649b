package peregrine

// Pipeline benchmarks: what batching, sharing, morphing, count mode and
// the plan cache each buy, on the library's own entry points. The
// paper's tables and figures are internal/harness's BenchmarkPaper
// (`go run ./cmd/tables` prints the same rows).

import (
	"fmt"
	"testing"
	"time"

	"peregrine/internal/core"
	"peregrine/internal/gen"
	"peregrine/internal/pattern"
	"peregrine/internal/plan"
)

// benchPatents is the tables' patents stand-in at scale 1
// (harness.BenchDataset, which this package cannot import).
func benchPatents() *Graph {
	return gen.RMAT(gen.RMATConfig{Vertices: 2048, Edges: 11000, A: 0.45, B: 0.22, C: 0.22, Seed: 2})
}

// --- Prepared-query API: batched execution and plan caching -------------------

// BenchmarkPreparedVsSerialMotifs compares the prepared multi-pattern
// CountEach — all patterns matched over a single task scan via
// matching-order union — against the serial per-pattern loop the old
// CountMany ran, on the motif workload (all 4-vertex patterns). The
// tasks/op metric makes the traversal sharing visible: the batched path
// scans the vertex set once, the serial loop once per pattern.
func BenchmarkPreparedVsSerialMotifs(b *testing.B) {
	g := benchPatents()
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
// the rewrite layer) — except in 5-motifs-decomposed, which morphs, so
// that its executed set runs many plans through a vertex cut and shares
// their component walks (the component table) or, unshared, walks each
// instance.
// The intersections/op metric is the adjacency candidate-set
// computations performed; sharing keeps it well below the unshared
// figure (~3-4x fewer on motif batches, ~2.7x on the clique batch),
// while tasks/op shows the single shared scan either way. saved/op is
// what sharing spared, trie nodes and component walks together, and
// shared-visits/op how many trie nodes and component walks served more
// than one reader. Motif counting is completion-dominated, so its wall
// time moves little; the clique batch is all core, so there the saved
// intersections are wall-clock (~25% on patents).
func BenchmarkSharedVsUnshared(b *testing.B) {
	motifGraph := gen.ErdosRenyi(gen.ERConfig{Vertices: 512, Edges: 2000, Seed: 5})
	batches := []struct {
		name  string
		g     *Graph
		pats  []*Pattern
		morph bool
	}{
		{"4-motifs", motifGraph, nil, false},
		{"5-motifs", motifGraph, nil, false},
		{"5-motifs-decomposed", motifGraph, nil, true},
		{"cliques-3-6", benchPatents(), []*Pattern{
			pattern.Clique(3), pattern.Clique(4), pattern.Clique(5), pattern.Clique(6),
		}, false},
	}
	for i, size := range []int{4, 5, 5} {
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
			{"shared", nil},
			{"unshared", []Option{WithoutSharing()}},
		} {
			opts := mode.opts
			if !batch.morph {
				opts = append(opts, WithoutMorphing())
			}
			b.Run(fmt.Sprintf("%s/%s", batch.name, mode.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					_, ms, err := q.CountEachWithStats(batch.g, opts...)
					if err != nil {
						b.Fatal(err)
					}
					if batch.morph && ms.Morph.Decomposed == 0 {
						b.Fatal("nothing decomposed")
					}
					b.ReportMetric(float64(ms.Share.Intersections), "intersections/op")
					b.ReportMetric(float64(ms.Share.IntersectionsSaved), "saved/op")
					b.ReportMetric(float64(ms.Share.SharedNodeVisits), "shared-visits/op")
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
	g := gen.ErdosRenyi(gen.ERConfig{Vertices: 512, Edges: 2000, Seed: 5})
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

// BenchmarkMorphChoice holds the cost model's choices against the
// ablation: each case counts its vertex-induced batch as the planner
// chooses and WithoutMorphing, and reports chosen/direct — below 1 where
// the rewrite pays, 1 where the planner runs the batch as given, above 1
// where it chose wrong. The cases are coord_sharded's 15 pairs of
// 4-motifs on its Erdős–Rényi graph and Table 4's p1, p4, p5 and p6 on
// the mico stand-in (harness.BenchDataset("mico", 1)).
func BenchmarkMorphChoice(b *testing.B) {
	er := gen.ErdosRenyi(gen.ERConfig{Vertices: 4096, Edges: 20480, MaxDegree: 100, Seed: 1})
	mico := gen.RMAT(gen.RMATConfig{Vertices: 1024, Edges: 9000, Seed: 1, Labels: 29})
	type batch struct {
		name string
		g    *Graph
		pats []*Pattern
	}
	var batches []batch
	motifs := pattern.GenerateAllVertexInduced(4)
	for i := range motifs {
		for j := i + 1; j < len(motifs); j++ {
			batches = append(batches, batch{"er/" + motifs[i].String() + "+" + motifs[j].String(), er, []*Pattern{motifs[i], motifs[j]}})
		}
	}
	for _, name := range []EvalPattern{P1, P4, P5, P6} {
		batches = append(batches, batch{"mico/" + string(name), mico, []*Pattern{NewEvalPattern(name)}})
	}
	for _, bt := range batches {
		q, err := PrepareWith([]Option{VertexInduced()}, bt.pats...)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(bt.name, func(b *testing.B) {
			var chosen, direct time.Duration
			modes := []struct {
				spent *time.Duration
				opts  []Option
			}{{&chosen, nil}, {&direct, []Option{WithoutMorphing()}}}
			for _, mode := range modes { // compile both executed sets first
				if _, err := q.CountEach(bt.g, mode.opts...); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, mode := range modes {
					start := time.Now()
					if _, err := q.CountEach(bt.g, mode.opts...); err != nil {
						b.Fatal(err)
					}
					*mode.spent += time.Since(start)
				}
			}
			b.ReportMetric(float64(chosen)/float64(direct), "chosen/direct")
		})
	}
}

// BenchmarkCountVsEnumerate isolates count mode's aggregates: the same
// executed plans over the same graph with cb == nil (the last completion
// level, or a plan's Tail, contributes a number) versus a callback that
// does nothing (every match is walked). The batches are the benchmark's
// two library workloads — the morphed vertex-induced 4- and 5-motifs on
// a flat graph, and triangle + 4-clique on a power-law one — plus
// "tails", the executed motif relatives whose Tail has two steps (the
// 4-path, the tailed triangle, the diamond …), which count mode sizes
// from one set per class, and "cliques-3-5", whose 5-clique completes
// from a slot built from the 4-clique's, itself built from the
// triangle's (plan.Slot chains).
// matches/s is the same count either way, so it compares directly.
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
	var tails []*plan.Plan
	for _, pl := range mp.Exec {
		if pl.Tail != nil && len(pl.NonCore)-pl.Tail.Start == 2 {
			tails = append(tails, pl)
		}
	}
	if len(tails) == 0 {
		b.Fatal("no executed plan has a two-step tail")
	}
	var cliques []*plan.Plan
	for _, k := range []int{3, 4, 5} {
		pl, err := plan.New(pattern.Clique(k), plan.Options{})
		if err != nil {
			b.Fatal(err)
		}
		cliques = append(cliques, pl)
	}
	rmat := gen.RMAT(gen.RMATConfig{Vertices: 4096, Edges: 50000, Seed: 1})
	for _, batch := range []struct {
		name string
		g    *Graph
		pls  []*plan.Plan
	}{
		{"motifs-4-5", gen.ErdosRenyi(gen.ERConfig{Vertices: 512, Edges: 2560, MaxDegree: 100, Seed: 1}), mp.Exec},
		{"tails", gen.ErdosRenyi(gen.ERConfig{Vertices: 512, Edges: 2560, MaxDegree: 100, Seed: 1}), tails},
		{"cliques-3-4", rmat, cliques[:2]},
		{"cliques-3-5", rmat, cliques},
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

// BenchmarkCliqueVsOrientedLoop holds the engine against a hand-written
// loop on clique_skew's op: the triangle and the 4-clique counted on
// RMAT 4096/50,000 (seed 1), one thread. The loop is Pangolin-style
// oriented clique listing over upper lists N⁺(v) = {u ∈ N(v) : u > v},
// taken once before the timing: mark N⁺(v); for u ∈ N⁺(v), S is N⁺(u)
// through those marks; mark S; for w ∈ S, count N⁺(w) through S's
// marks. After one untimed round, each iteration times both,
// alternating which runs first; the metrics are the fastest of each and
// engine/loop, their ratio. The counts must agree.
func BenchmarkCliqueVsOrientedLoop(b *testing.B) {
	g := gen.RMAT(gen.RMATConfig{Vertices: 4096, Edges: 50000, Seed: 1})
	ps := []*Pattern{pattern.Clique(3), pattern.Clique(4)}
	n := g.NumVertices()
	up := make([][]uint32, n)
	for v := range n {
		adj := g.Adj(v)
		i := 0
		for i < len(adj) && adj[i] <= v {
			i++
		}
		up[v] = adj[i:]
	}
	marks := func() []uint64 { return make([]uint64, (n+63)/64) }
	nv, ns := marks(), marks()
	set := func(m []uint64, s []uint32, on bool) {
		for _, x := range s {
			if on {
				m[x>>6] |= 1 << (x & 63)
			} else {
				m[x>>6] &^= 1 << (x & 63)
			}
		}
	}
	hit := func(m []uint64, x uint32) bool { return m[x>>6]>>(x&63)&1 == 1 }
	var sbuf []uint32
	loop := func() (k3, k4 uint64) {
		for v := range n {
			set(nv, up[v], true)
			for _, u := range up[v] {
				sbuf = sbuf[:0]
				for _, w := range up[u] {
					if hit(nv, w) {
						sbuf = append(sbuf, w)
					}
				}
				k3 += uint64(len(sbuf))
				set(ns, sbuf, true)
				for _, w := range sbuf {
					for _, x := range up[w] {
						if hit(ns, x) {
							k4++
						}
					}
				}
				set(ns, sbuf, false)
			}
			set(nv, up[v], false)
		}
		return k3, k4
	}
	timed := func(f func()) time.Duration {
		start := time.Now()
		f()
		return time.Since(start)
	}
	var counts []uint64
	var k3, k4 uint64
	runEngine := func() {
		var err error
		if counts, err = CountMany(g, ps, WithThreads(1)); err != nil {
			b.Fatal(err)
		}
	}
	runLoop := func() { k3, k4 = loop() }
	check := func() {
		if counts[0] != k3 || counts[1] != k4 {
			b.Fatalf("engine counts %v, oriented loop %d and %d", counts, k3, k4)
		}
	}
	// One untimed round first, so that one timed iteration (CI's
	// -benchtime=1x) reads warm caches like every later one.
	runEngine()
	runLoop()
	check()
	b.ResetTimer()
	var engine, oriented time.Duration
	for i := 0; i < b.N; i++ {
		var te, tl time.Duration
		if i%2 == 0 {
			te, tl = timed(runEngine), timed(runLoop)
		} else {
			tl, te = timed(runLoop), timed(runEngine)
		}
		check()
		if i == 0 || te < engine {
			engine = te
		}
		if i == 0 || tl < oriented {
			oriented = tl
		}
	}
	b.ReportMetric(float64(engine.Microseconds())/1e3, "engine_ms")
	b.ReportMetric(float64(oriented.Microseconds())/1e3, "loop_ms")
	b.ReportMetric(float64(engine)/float64(oriented), "engine/loop")
}

// BenchmarkPlanCache isolates the compile-once claim: a cache hit is a
// canonicalization plus a map lookup, a miss pays full pattern analysis
// (symmetry breaking, core extraction, matching orders).
func BenchmarkPlanCache(b *testing.B) {
	p := NewEvalPattern(P4) // the 5-vertex house: non-trivial symmetries and core
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

// BenchmarkFSM mines the frequent patterns of two stand-ins:
//   - mico (harness.BenchDataset("mico", 1)) to 3 edges at support 12,
//     a Table 3 and Figure 10 cell;
//   - mico-p2 (the same graph with 6 labels) to 2 edges at support 40,
//     where few labelings gather many images, so tallies turn dense.
//
// Each finishes in a fraction of a second. FSM's time is the match
// callback's tally (one map lookup and a set insert per regular vertex
// per match) and the fold after each chunk of queries, so a per-match
// cost there shows up here, in time and allocs/op, and nowhere else in
// the smoke. frequent/op and domain-bytes/op are answers, fixed for the
// graph.
func BenchmarkFSM(b *testing.B) {
	for _, c := range []struct {
		name           string
		labels         int
		edges, support int
	}{{"mico", 29, 3, 12}, {"mico-p2", 6, 2, 40}} {
		g := gen.RMAT(gen.RMATConfig{Vertices: 1024, Edges: 9000, Seed: 1, Labels: c.labels})
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r, err := FSM(g, c.edges, c.support)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(len(r.Frequent)), "frequent/op")
				b.ReportMetric(float64(r.DomainBytes), "domain-bytes/op")
			}
		})
	}
}

// BenchmarkLabeledMotifCounts counts the labeled 3-motifs of the mico
// stand-in. It shares FSM's label discovery, so its time is the same
// per-match tally, here a counter per (motif, labels) key, and one
// canonicalization per key; classes/op is an answer, fixed for the graph.
func BenchmarkLabeledMotifCounts(b *testing.B) {
	mico := gen.RMAT(gen.RMATConfig{Vertices: 1024, Edges: 9000, Seed: 1, Labels: 29})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		counts, err := LabeledMotifCounts(mico, 3)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(counts)), "classes/op")
	}
}
