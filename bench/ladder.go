package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"time"

	"peregrine"
	"peregrine/internal/bitset"
	"peregrine/internal/graph"
	"peregrine/internal/pattern"
	"peregrine/internal/plan"
	"peregrine/internal/profile"
	"peregrine/internal/server"
)

const (
	hubBitsetDeg = 64 // the layout sweep's hub threshold
	layoutOps    = 5  // count ops per layout of the sweep
	microReps    = 5  // repetitions of each single-call timing
)

// ladder is the traced pass. It brings up the whole stack on the
// workload's graph and replays one fixed sample of the workload's ops —
// the first w.sample of its request list, from w.clients callers — at
// every rung, so that a module's cost is the difference between two
// rungs on identical inputs. Every call into a module is a span;
// counters come from what the public APIs already return. Nothing here
// feeds an end-to-end metric.
func ladder(cfg config, threads int) (*report, error) {
	w := cfg.w
	tr := newTracer()
	p, err := prepare(cfg, tr, threads)
	if err != nil {
		return nil, err
	}
	defer p.r.e.close()
	start := time.Now()
	l := &ladderRun{
		w: w, e: p.r.e, tr: tr, plain: *p.r, traced: *p.r,
		rep:    &report{Workload: w.name, Pass: "layers", Seed: cfg.seed, Clients: w.clients, OracleS: p.oracle.Seconds()},
		sample: p.ops[:cfg.shrink(w.sample)],
	}
	l.traced.tr = tr
	for _, o := range l.sample {
		if o.kind == server.KindCount {
			l.counts = append(l.counts, o)
		}
	}
	for i, o := range l.counts {
		o.partner = l.counts[(i+1)%len(l.counts)]
	}
	for _, module := range []func() error{l.graph, l.bitset, l.patternAndPlan, l.core, l.peregrine, l.server, l.coord} {
		if err := module(); err != nil {
			return nil, err
		}
	}
	l.traceOverhead()

	rep := l.rep
	rep.MeasuredS = time.Since(start).Seconds()
	sort.Slice(rep.Metrics, func(i, j int) bool { return rep.Metrics[i].Name < rep.Metrics[j].Name })
	if err := tr.write(filepath.Join(cfg.outDir, w.name+".trace.json")); err != nil {
		return nil, err
	}
	for name, v := range selfMSByName(tr.spans) {
		rep.SelfMS = append(rep.SelfMS, metric{name, v, "ms"})
	}
	sort.Slice(rep.SelfMS, func(i, j int) bool { return rep.SelfMS[i].Name < rep.SelfMS[j].Name })
	return rep, nil
}

// ladderRun is one traced pass: the sample, the runners that replay it,
// and the replays a later module subtracts from.
type ladderRun struct {
	w   *workload
	e   *env
	tr  *tracer
	rep *report

	plain, traced runner // the same runner with spans off and on

	sample []*op // the first w.sample ops of the request list
	counts []*op // its count ops: the only kind the coordinator and the batch entry points take
	// exec is the sample as the plan layer executes it: each count op's
	// plans replaced by its morphed batch, with the recovery that maps
	// the executed counts back. Where nothing morphs it is the sample.
	exec   []*op
	morphs bool

	// Replays that a later module subtracts from, by rung.
	atCoreDirect, atPeregrine, atHandler, atHTTP, atCoord loopResult
}

// warm runs two ops at a rung untimed and untraced: lazy loads,
// connections, caches.
func (l *ladderRun) warm(r runner, at rung, ops []*op) {
	r.tr = nil
	r.loop(at, ops, l.w.clients, min(len(ops), 2), 0)
	l.tr.resetJobs()
}

// run drives ops at a rung from the workload's client count and folds
// failures into the report.
func (l *ladderRun) run(r runner, at rung, ops []*op) loopResult {
	res := r.loop(at, ops, l.w.clients, len(ops), 0)
	l.rep.Attempted += len(res.samples)
	l.rep.Failed += res.failed
	if res.firstErr != nil && l.rep.FirstErr == "" {
		l.rep.FirstErr = fmt.Sprintf("%v rung: %v", at, res.firstErr)
	}
	return res
}

func (l *ladderRun) replay(r runner, at rung, ops []*op) loopResult {
	l.warm(r, at, ops)
	return l.run(r, at, ops)
}

// graph: storage and layout, outside any op.
func (l *ladderRun) graph() error {
	rep, g := l.rep, l.e.g
	rep.add("graph.gen_s", l.e.genTime.Seconds(), "s")
	tmp := filepath.Join(l.e.dir, "micro")
	var err error
	rep.add("graph.save_pgr_ms", medianOf(timeN(microReps, func() { err = firstErr(err, graph.SaveBinary(tmp+".pgr", g)) }), ms), "ms")
	rep.add("graph.load_pgr_ms", medianOf(timeN(microReps, func() {
		loaded, lerr := graph.LoadBinary(tmp + ".pgr")
		if err = firstErr(err, lerr); lerr == nil {
			_ = loaded.Close()
		}
	}), ms), "ms")
	err = firstErr(err, graph.SaveEdgeList(tmp+".txt", g))
	rep.add("graph.load_edgelist_ms", medianOf(timeN(microReps, func() {
		_, lerr := graph.LoadEdgeList(tmp + ".txt")
		err = firstErr(err, lerr)
	}), ms), "ms")
	if err != nil {
		return err
	}
	st, err := os.Stat(tmp + ".pgr")
	if err != nil {
		return err
	}
	rep.add("graph.bytes_per_edge", ratio(float64(st.Size()), float64(g.NumEdges())), "B")

	var desc *graph.Graph
	rep.add("graph.renumber_ms", medianOf(timeN(microReps, func() {
		var rerr error
		desc, rerr = graph.RenumberDescending(g)
		err = firstErr(err, rerr)
	}), ms), "ms")
	if err != nil {
		return err
	}
	descHub, err := graph.RenumberDescending(g)
	if err != nil {
		return err
	}
	plain := descHub.Bytes()
	rep.add("graph.hub_bitset_build_ms", medianOf(timeN(microReps, func() { descHub.BuildHubBitsets(hubBitsetDeg) }), ms), "ms")
	rep.add("graph.hub_bitset_mb", float64(descHub.Bytes()-plain)/1e6, "MB")

	frags, err := filepath.Glob(filepath.Join(l.e.dir, "*.shard*.pgr"))
	if err != nil {
		return err
	}
	var fragLoads []time.Duration
	for _, f := range frags {
		fragLoads = append(fragLoads, timeN(microReps, func() {
			_, lerr := graph.LoadFragment(f)
			err = firstErr(err, lerr)
		})...)
	}
	if err != nil {
		return err
	}
	rep.add("graph.fragment_load_ms_p50", medianOf(fragLoads, ms), "ms")

	// The layout sweep: the same count ops on the graph as generated,
	// renumbered hubs-first, and renumbered with hub bitsets.
	ops := l.counts[:min(len(l.counts), layoutOps)]
	for _, layout := range []struct {
		name string
		g    *graph.Graph
	}{{"flat", g}, {"desc", desc}, {"desc_hub", descHub}} {
		e := *l.e
		e.g = layout.g
		r := l.plain
		r.e = &e
		rep.add("graph.layout_"+layout.name+"_op_ms", median(l.replay(r, rungPeregrine, ops).sorted()), "ms")
	}
	return nil
}

// patternAndPlan: per-pattern and per-batch costs of the plan layer,
// and the sample as that layer would execute it.
func (l *ladderRun) patternAndPlan() error {
	rep := l.rep
	var texts []string
	var pats []*pattern.Pattern
	seen := make(map[string]bool)
	for _, o := range l.sample {
		for i, text := range o.texts {
			if !seen[text] {
				seen[text] = true
				texts = append(texts, text)
				pats = append(pats, o.pats[i])
			}
		}
	}
	var parse, canon, planNew, cacheHit []float64
	cache := plan.NewCache()
	for i, text := range texts {
		parse = append(parse, medianOf(timeN(microReps, func() { _, _ = pattern.Parse(text) }), us))
		canon = append(canon, medianOf(timeN(microReps, func() { pats[i].CanonicalForm() }), us))
		planNew = append(planNew, medianOf(timeN(microReps, func() { _, _ = plan.New(pats[i], plan.Options{}) }), us))
		_, _ = cache.Get(pats[i], plan.Options{})
		cacheHit = append(cacheHit, medianOf(timeN(microReps, func() { _, _ = cache.Get(pats[i], plan.Options{}) }), ns))
	}
	rep.add("pattern.parse_us_p50", median(parse), "us")
	rep.add("pattern.canonical_us_p50", median(canon), "us")
	rep.add("plan.new_us_p50", median(planNew), "us")
	rep.add("plan.cache_hit_ns_p50", median(cacheHit), "ns")

	l.exec = make([]*op, len(l.sample))
	var morphBatch, recover, trieBuild, trieNodes, progSteps []float64
	for i, o := range l.sample {
		l.exec[i] = o
		if o.kind != server.KindCount {
			continue
		}
		var mp *plan.MorphPlan
		morphBatch = append(morphBatch, medianOf(timeN(microReps, func() { mp = plan.MorphBatch(o.plans, cache, plan.Options{}) }), us))
		plans := o.plans
		if mp != nil {
			l.morphs = true
			plans = mp.Exec
			eo := *o
			eo.plans, eo.recover = mp.Exec, mp.Recover
			l.exec[i] = &eo
			fake := make([]uint64, len(mp.Exec))
			recover = append(recover, medianOf(timeN(microReps, func() { mp.Recover(fake) }), us))
		}
		var trie *plan.ShareTrie
		trieBuild = append(trieBuild, medianOf(timeN(microReps, func() { trie = plan.BuildShareTrie(plans) }), us))
		trieNodes = append(trieNodes, float64(trie.Nodes))
		progSteps = append(progSteps, float64(trie.ProgramSteps))
	}
	rep.add("plan.morph_batch_us_p50", median(morphBatch), "us")
	rep.add("plan.recover_us_p50", median(recover), "us")
	rep.add("plan.trie_build_us_p50", median(trieBuild), "us")
	rep.add("plan.trie_nodes", mean(trieNodes), "count")
	rep.add("plan.program_steps", mean(progSteps), "count")
	return nil
}

// core: the engine alone — on the plans as given (core.direct), on the
// plans the plan layer executes, and on those again with the Figure 11
// recorders attached.
func (l *ladderRun) core() error {
	rep := l.rep
	direct := l.traced
	direct.label = "core.direct"
	l.atCoreDirect = l.replay(direct, rungCore, l.sample)
	exec := l.atCoreDirect
	if l.morphs {
		exec = l.replay(l.traced, rungCore, l.exec)
	}
	prof := l.plain
	prof.breakdown = new(profile.Breakdown)
	profiled := l.replay(prof, rungCore, l.exec)

	var ct counters
	var engine time.Duration
	var shared, saved, imbalance []float64
	for _, s := range exec.samples {
		ct.add(s.wk)
		engine += s.wk.ms.MatchTime
		shared = append(shared, float64(s.wk.ms.Share.SharedNodeVisits))
		saved = append(saved, float64(s.wk.ms.Share.IntersectionsSaved))
	}
	for _, s := range profiled.samples {
		imbalance = append(imbalance, s.wk.imbalance)
	}
	n := float64(len(exec.samples))
	rep.Counters = ct
	rep.add("core.run_ms_p50", median(exec.sorted()), "ms")
	rep.add("core.intersections_per_op", float64(ct.Intersections)/n, "count")
	rep.add("core.intersections_per_s", ratio(float64(ct.Intersections), engine.Seconds()), "1/s")
	rep.add("core.matches_per_s", ratio(float64(ct.Matches), engine.Seconds()), "1/s")
	rep.add("core.tasks_per_op", float64(ct.Tasks)/n, "count")
	rep.add("core.shared_node_visits_per_op", mean(shared), "count")
	rep.add("core.intersections_saved_per_op", mean(saved), "count")
	stages := prof.breakdown.Ratios()
	rep.add("core.stage_po_share", stages[profile.StagePO.String()], "ratio")
	rep.add("core.stage_core_share", stages[profile.StageCore.String()], "ratio")
	rep.add("core.stage_noncore_share", stages[profile.StageNonCore.String()], "ratio")
	rep.add("core.stage_other_share", stages[profile.StageOther.String()], "ratio")
	rep.add("core.load_imbalance", median(imbalance), "ratio")
	rep.add("core.breakdown_overhead_ratio", ratio(median(profiled.sorted()), median(exec.sorted())), "ratio")
	return nil
}

// peregrine: the plan cache, morphing and the trie on top of the
// engine, through each of the package's counting entry points.
func (l *ladderRun) peregrine() error {
	rep := l.rep
	l.warm(l.traced, rungPeregrine, l.sample)
	hits0, misses0 := peregrine.PlanCacheStats()
	l.atPeregrine = l.run(l.traced, rungPeregrine, l.sample)
	hits1, misses1 := peregrine.PlanCacheStats()
	var replaced, stepsDirect, stepsMorphed []float64
	for _, s := range l.atPeregrine.samples {
		if l.sample[s.idx].kind == server.KindCount {
			replaced = append(replaced, float64(s.wk.ms.Morph.PatternsReplaced))
			stepsDirect = append(stepsDirect, float64(s.wk.ms.Morph.StepsDirect))
			stepsMorphed = append(stepsMorphed, float64(s.wk.ms.Morph.StepsMorphed))
		}
	}
	rep.add("plan.cache_hit_ratio", ratio(float64(hits1-hits0), float64(hits1-hits0+misses1-misses0)), "ratio")
	rep.add("plan.morph_patterns_replaced", mean(replaced), "count")
	rep.add("plan.morph_steps_direct", mean(stepsDirect), "count")
	rep.add("plan.morph_steps_morphed", mean(stepsMorphed), "count")
	rep.add("plan.net_ms", median(l.atPeregrine.sorted())-median(l.atCoreDirect.sorted()), "ms")
	rep.add("peregrine.countmany_ms_p50", median(kindMS(l.atPeregrine, l.sample, server.KindCount)), "ms")
	prepared := l.traced
	prepared.label, prepared.entry = "peregrine.prepared", entryPrepared
	rep.add("peregrine.counteach_prepared_ms_p50", median(l.replay(prepared, rungPeregrine, l.counts).sorted()), "ms")
	merged := l.traced
	merged.label, merged.entry = "peregrine.merged", entryMerged
	rep.add("peregrine.merged_ms_p50", median(l.replay(merged, rungPeregrine, l.counts).sorted()), "ms")
	return nil
}

// server: dispatch without a socket, then over the socket.
func (l *ladderRun) server() error {
	rep := l.rep
	l.atHandler = l.replay(l.traced, rungHandler, l.sample)
	l.warm(l.traced, rungHTTP, l.sample)
	before := l.e.whole.srv.Stats()
	l.atHTTP = l.run(l.traced, rungHTTP, l.sample)
	after := l.e.whole.srv.Stats()
	l.tr.linkJobs(rungHTTP.String()+".call", func(op int) string { return l.sample[op].key() })
	var queue, exec, bytes []float64
	for _, s := range l.atHTTP.samples {
		bytes = append(bytes, float64(s.wk.bytes))
		if s.wk.rs != nil && s.wk.rs.Coalescing != nil {
			queue = append(queue, float64(s.wk.rs.Coalescing.QueueMicros)/1e3)
			exec = append(exec, float64(s.wk.rs.Coalescing.ExecMicros)/1e3)
		}
	}
	admitted := float64(after.CoalesceRequests - before.CoalesceRequests)
	hits := float64(after.PlanCacheHits - before.PlanCacheHits)
	misses := float64(after.PlanCacheMisses - before.PlanCacheMisses)
	rep.add("server.handler_self_ms", median(l.atHandler.sorted())-median(l.atPeregrine.sorted()), "ms")
	rep.add("server.http_self_ms", median(l.atHTTP.sorted())-median(l.atHandler.sorted()), "ms")
	rep.add("server.coalesce_batches_per_request", ratio(float64(after.CoalesceBatches-before.CoalesceBatches), admitted), "ratio")
	rep.add("server.coalesce_traversals_saved_ratio", ratio(float64(after.CoalesceTraversalsSaved-before.CoalesceTraversalsSaved), admitted), "ratio")
	rep.add("server.coalesce_queue_ms_p50", median(queue), "ms")
	rep.add("server.exec_ms_p50", median(exec), "ms")
	rep.add("server.plan_cache_hit_ratio", ratio(hits, hits+misses), "ratio")
	rep.add("server.count_ms_p50", median(kindMS(l.atHTTP, l.sample, server.KindCount)), "ms")
	rep.add("server.exists_ms_p50", median(kindMS(l.atHTTP, l.sample, server.KindExists)), "ms")
	rep.add("server.matches_ms_p50", median(kindMS(l.atHTTP, l.sample, server.KindMatches)), "ms")
	rep.add("server.response_bytes_per_op", mean(bytes), "B")
	return nil
}

// coord: fan-out and merge, and the sharded nodes beneath. The
// single-node figure fan-out is compared with is the count ops alone,
// over HTTP, on the unsharded graph.
func (l *ladderRun) coord() error {
	rep := l.rep
	single := l.traced
	single.label = "server.http.counts"
	httpCounts := l.replay(single, rungHTTP, l.counts)
	l.warm(l.traced, rungCoord, l.counts)
	var nodes0, nodes1 server.ServerStats
	for _, nd := range l.e.shards {
		nodes0 = sumStats(nodes0, nd.srv.Stats())
	}
	l.atCoord = l.run(l.traced, rungCoord, l.counts)
	for _, nd := range l.e.shards {
		nodes1 = sumStats(nodes1, nd.srv.Stats())
	}
	jobs := l.tr.linkJobs(rungCoord.String()+".call", func(op int) string { return l.counts[op].key() })
	var nJobs int
	var slowest, meanJob, straggler, nodeInter []float64
	for _, durs := range jobs {
		nJobs += len(durs)
		var xs []float64
		for _, d := range durs {
			xs = append(xs, float64(d)/1e6)
		}
		slowest = append(slowest, slices.Max(xs))
		meanJob = append(meanJob, mean(xs))
		straggler = append(straggler, ratio(slices.Max(xs), mean(xs)))
	}
	for _, s := range l.atCoord.samples {
		if s.wk.rs != nil && s.wk.rs.Sharing != nil {
			nodeInter = append(nodeInter, float64(s.wk.rs.Sharing.Intersections))
		}
	}
	failovers, err := coordFailovers(l.e)
	if err != nil {
		return err
	}
	n := float64(len(l.atCoord.samples))
	rep.add("coord.fanout_self_ms", median(l.atCoord.sorted())-median(httpCounts.sorted()), "ms")
	rep.add("coord.shard_jobs_per_request", float64(nJobs)/n, "count")
	rep.add("coord.slowest_shard_ms_p50", median(slowest), "ms")
	rep.add("coord.mean_shard_ms_p50", median(meanJob), "ms")
	rep.add("coord.straggler_ratio", median(straggler), "ratio")
	rep.add("coord.failovers", failovers, "count")
	rep.add("coord.morph_runs", float64(nodes1.MorphRuns-nodes0.MorphRuns), "count")
	rep.add("coord.node_intersections_per_op", mean(nodeInter), "count")
	rep.add("graph.shard_loads_per_op", float64(nodes1.ShardLoads-nodes0.ShardLoads)/n, "count")
	rep.add("graph.shard_evictions_per_op", float64(nodes1.ShardEvictions-nodes0.ShardEvictions)/n, "count")
	return nil
}

// traceOverhead is what tracing itself costs at the measured rung: the
// same ops again with spans off. It compares wall time over the whole
// list, not the median op: with two clients an op's latency depends on
// which op it overlaps, and that pairing differs between replays.
func (l *ladderRun) traceOverhead() {
	measured, ops := l.atPeregrine, l.sample
	switch l.w.rung {
	case rungHTTP:
		measured = l.atHTTP
	case rungCoord:
		measured, ops = l.atCoord, l.counts
	}
	untraced := l.replay(l.plain, l.w.rung, ops)
	l.rep.add("trace_overhead_ratio", ratio(measured.wall.Seconds(), untraced.wall.Seconds()), "ratio")
}

func firstErr(a, b error) error {
	if a != nil {
		return a
	}
	return b
}

// kindMS is the latencies of the ops of one kind in a replay of ops.
func kindMS(res loopResult, ops []*op, kind string) []float64 {
	var out []float64
	for _, s := range res.samples {
		if ops[s.idx].kind == kind {
			out = append(out, s.ms)
		}
	}
	return out
}

// sumStats adds the counters of b that the ladder reads into a.
func sumStats(a, b server.ServerStats) server.ServerStats {
	a.MorphRuns += b.MorphRuns
	a.ShardLoads += b.ShardLoads
	a.ShardEvictions += b.ShardEvictions
	return a
}

// coordFailovers reads the failover total from the coordinator's own
// GET /v1/coord.
func coordFailovers(e *env) (float64, error) {
	rec := httptest.NewRecorder()
	e.coord.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/coord", nil))
	var view struct {
		Shards []struct {
			Failovers uint64 `json:"failovers"`
		} `json:"shards"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &view); err != nil {
		return 0, fmt.Errorf("GET /v1/coord: %w", err)
	}
	var total uint64
	for _, sh := range view.Shards {
		total += sh.Failovers
	}
	return float64(total), nil
}

// bitset times the hub kernels on adjacency lists taken from the
// workload's graph: the hubs are its top 1% of vertices by degree, the
// leaves a band of vertices around the median degree. The bitmaps are
// the ones BuildHubBitsets makes, so they are built as the engine
// builds them.
func (l *ladderRun) bitset() error {
	rep, g := l.rep, l.e.g
	// A private copy, because BuildHubBitsets changes the graph it is
	// given. Renumbered hubs-first, its vertices are in degree order:
	// the hubs are a prefix of the ids and the median sits at n/2.
	hg, err := graph.RenumberDescending(g)
	if err != nil {
		return err
	}
	n := hg.NumVertices()
	minDeg := max(hg.Degree(max(n/100, 2)-1), 1)
	buildNS := medianOf(timeN(microReps, func() { hg.BuildHubBitsets(minDeg) }), ns)
	var hubs []*bitset.Bitmap
	var ints, bytes float64
	for v := uint32(0); v < n && hg.HubBits(v) != nil; v++ {
		hubs = append(hubs, hg.HubBits(v))
		ints += float64(hg.Degree(v))
		bytes += float64(hg.HubBits(v).SizeBytes())
	}
	rep.add("bitset.build_ns_per_int", ratio(buildNS, ints), "ns")
	rep.add("bitset.bytes_per_int", ratio(bytes, ints), "B")

	band := min(n/4, 32)
	dst := make([]uint32, 0, hg.MaxDegree())
	const rounds = 200
	var filtered, anded float64
	t0 := time.Now()
	for r := 0; r < rounds; r++ {
		for _, hub := range hubs {
			for leaf := n/2 - band; leaf < n/2+band; leaf++ {
				dst = hub.FilterSortedInto(dst[:0], hg.Adj(leaf))
				filtered += float64(hg.Degree(leaf))
			}
		}
	}
	filterS := time.Since(t0).Seconds()
	t0 = time.Now()
	for r := 0; r < rounds; r++ {
		for i, hub := range hubs {
			other := (i + 1) % len(hubs)
			dst = hub.AndSortedInto(dst[:0], hubs[other])
			anded += float64(hg.Degree(uint32(i)) + hg.Degree(uint32(other)))
		}
	}
	andS := time.Since(t0).Seconds()
	rep.add("bitset.filter_ints_per_s", ratio(filtered, filterS), "1/s")
	rep.add("bitset.and_ints_per_s", ratio(anded, andS), "1/s")
	return nil
}
