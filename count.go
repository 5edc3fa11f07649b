package peregrine

import (
	"peregrine/internal/core"
	"peregrine/internal/plan"
)

// countBatch is the only code in this package that counts: every
// counting entry point (Count, CountMany, PreparedQuery.Count/CountEach,
// CountEachMerged, MotifCounts and their WithStats forms) is a shape
// adapter over it. It counts every pattern of every query in ONE
// traversal of g and returns, per query, the Stats rows in that query's
// own pattern order, plus the MultiStats of the shared execution (Per
// holds one row per unique plan). A single PreparedQuery is the
// one-query case. The stages, in order:
//
//	resolve  each query's patterns to cached plans under its own options
//	dedup    plans by identity across the batch — isomorphic patterns,
//	         in any vertex numbering, are one *plan.Plan in the cache
//	rewrite  plan.MorphBatch, behind the one morph gate, priced for g's
//	         shape: its size, degree moments and label count
//	execute  core.RunPlans: one task scan through the share trie
//	recover  the requested counts from the executed ones (exact, linear)
//	demux    unique-plan rows back out to each query's pattern order
//
// The first three are PlanCount and the last two CountPlan.Finish, so
// the execute stage between them can also run somewhere else (see
// CountPlan).
//
// Run options (threads, task range, context) and the plan cache morph
// relatives compile through are the first query's: a batch is one
// execution, so its members share them.
func countBatch(g *Graph, queries []*PreparedQuery, opts []Option) ([][]Stats, MultiStats, error) {
	m1, m2 := g.DegreeMoments()
	shape := plan.Shape{Vertices: g.NumVertices(), MeanDeg: m1, MeanSqDeg: m2, Labels: g.NumLabels(), MaxDeg: g.MaxDegree()}
	cp, err := planCount(queries, opts, shape)
	if err != nil || cp == nil {
		return nil, MultiStats{}, err
	}
	per, ms := cp.Finish(core.RunPlans(g, cp.exec, nil, cp.cfg.opts))
	return per, ms, nil
}

// CountPlan is the plan half of a counting execution: the pattern set
// to execute in place of the one requested, and what Finish needs to
// turn the executed set's counts back into the requested ones. Between
// the two halves the executed set may run anywhere, in any number of
// disjoint task ranges: recovery is a linear map over counts and ranged
// counts of one pattern sum exactly (WithTaskRange), so recovering the
// per-pattern sums once equals recovering a whole-graph run. A
// coordinator does exactly that — rewrite once above its range fan-out,
// execute by range on the nodes, sum, recover once at the merge.
type CountPlan struct {
	cfg  config
	exec []*plan.Plan    // what to execute: the deduplicated plans, or their morph rewrite
	mp   *plan.MorphPlan // nil when the batch executes as given
	slot [][]int         // slot[q][p]: unique-plan index serving that pattern
}

// PlanCount runs countBatch's planning stages — resolve, dedup,
// rewrite — over queries and returns the plan, or nil for no queries.
// With no graph at hand it prices the rewrite for the cost model's
// sparse default (plan.Shape's zero value): Poisson degrees of mean 8 on
// 2²⁰ vertices. A coordinator, which never loads the graphs it fans out
// over, plans this way.
func PlanCount(queries []*PreparedQuery, opts ...Option) (*CountPlan, error) {
	return planCount(queries, opts, plan.Shape{})
}

// planCount is PlanCount pricing the rewrite for a graph of shape s.
func planCount(queries []*PreparedQuery, opts []Option, s plan.Shape) (*CountPlan, error) {
	if len(queries) == 0 {
		return nil, nil
	}
	cp := &CountPlan{slot: make([][]int, len(queries))}
	noSym := false
	idx := make(map[*plan.Plan]int)
	var plans []*plan.Plan
	for qi, q := range queries {
		c := q.buildConfig(opts)
		pps, err := q.resolve(c)
		if err != nil {
			return nil, err
		}
		if qi == 0 {
			cp.cfg = c
		}
		noSym = noSym || c.opts.NoSymmetryBreaking
		cp.slot[qi] = make([]int, len(pps))
		for pi := range pps {
			p := pps[pi].plan
			j, ok := idx[p]
			if !ok {
				j = len(plans)
				idx[p] = j
				plans = append(plans, p)
			}
			cp.slot[qi][pi] = j
		}
	}
	cfg := cp.cfg

	// The morph gate — the only one. Counting batches with anti-edge
	// patterns execute cheaper anti-edge-free relatives and recover the
	// requested counts algebraically, unless the caller ablated morphing,
	// or a member runs without symmetry breaking (its counts are
	// per-automorphism enumerations the recovery weights do not cover), or
	// the run scans a task sub-range: a pattern and its relatives can have
	// different cores, so one vertex set roots at different tasks and the
	// algebra only balances over the whole task space (see WithTaskRange).
	// Recovery is a linear map applied after execution, which is why it is
	// a stage here rather than a property of each entry point — and why a
	// coordinator does hoist rewrite/recover above its range fan-out.
	cp.exec = plans
	if !cfg.noMorph && !noSym && !cfg.taskRanged() {
		if cp.mp = plan.MorphBatch(plans, cfg.cache(), plan.Options{Shape: s}); cp.mp != nil {
			cp.exec = cp.mp.Exec
		}
	}
	return cp, nil
}

// Executed returns the patterns to execute, in the row order Finish
// expects. They carry every constraint as written — anti-edges, labels —
// so they run edge-induced, whatever the request's semantics were.
func (cp *CountPlan) Executed() []*Pattern {
	out := make([]*Pattern, len(cp.exec))
	for i, pl := range cp.exec {
		out[i] = pl.Pat
	}
	return out
}

// Rewritten reports whether morphing replaced the requested set: when
// it did not, Executed is the requested patterns less duplicates and
// Finish only demultiplexes.
func (cp *CountPlan) Rewritten() bool { return cp.mp != nil }

// Finish runs countBatch's closing stages — recover, demux — over the
// statistics of an execution of Executed (executed.Per holds one row
// per executed pattern; rows summed over disjoint task ranges count as
// one run). It returns, per query, the Stats rows in that query's own
// pattern order, and the execution's MultiStats with Per reshaped to
// one row per unique requested plan.
func (cp *CountPlan) Finish(executed MultiStats) ([][]Stats, MultiStats) {
	ms := executed
	if cp.mp != nil {
		ms = recoverCounts(ms, cp.mp)
	}
	per := make([][]Stats, len(cp.slot))
	for qi := range cp.slot {
		per[qi] = make([]Stats, len(cp.slot[qi]))
		for pi, j := range cp.slot[qi] {
			// A copy per requesting pattern: patterns sharing a plan each
			// get the full row (their matches ARE that plan's).
			per[qi][pi] = ms.Per[j]
		}
	}
	return per, ms
}

// recoverCounts rewrites a morphed execution's statistics onto the
// requested batch shape: executed counts are folded through the
// recovery relations, and Per rows line up with the plans the batch
// asked for. Plans that ran directly keep their exact traversal
// figures; replaced ones carry the recovered count with the batch-wide
// run figures (their traversal work happened under the executed
// relatives).
func recoverCounts(ms MultiStats, mp *plan.MorphPlan) MultiStats {
	counts := mp.RecoverWide(matchCounts(ms.Per), ms.MatchesHi)
	per := make([]Stats, len(mp.Recov))
	for i := range mp.Recov {
		if d := mp.Recov[i].Direct; d >= 0 {
			per[i] = ms.Per[d]
		} else {
			per[i] = Stats{
				Matches:   counts[i],
				Stopped:   ms.Stopped,
				MatchTime: ms.MatchTime,
				Threads:   int32(ms.Threads),
			}
		}
	}
	ms.Per, ms.MatchesHi = per, nil
	ms.Morph = mp.Stats
	return ms
}

// matchCounts projects Stats rows onto their match counts.
func matchCounts(per []Stats) []uint64 {
	counts := make([]uint64, len(per))
	for i := range per {
		counts[i] = per[i].Matches
	}
	return counts
}

// CountEachMerged executes every query of queries in a single batched
// traversal of g — the engine-side half of request coalescing — and
// returns, for each query, the per-pattern Stats rows in that query's
// own pattern order (per[i][j] describes queries[i]'s j-th pattern).
// Patterns that are isomorphic across queries — or within one — are
// matched once, so N queries asking overlapping pattern sets cost one
// traversal of the deduplicated union rather than N traversals.
//
// The returned MultiStats describes the merged execution: Per holds
// one row per unique plan (len(ms.Per) is the deduplicated plan
// count), and Tasks/Share/Morph/MatchTime cover the single shared
// traversal. Queries prepared under different plan-affecting options
// mix freely; each resolves to the plans its own preparation implies,
// and only genuinely identical plans merge.
func CountEachMerged(g *Graph, queries []*PreparedQuery, opts ...Option) ([][]Stats, MultiStats, error) {
	return countBatch(g, queries, opts)
}
