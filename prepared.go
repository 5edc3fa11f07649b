package peregrine

// Prepared queries: the compile-once execution path. A pattern is
// analyzed exactly once — symmetry breaking, core extraction, matching
// orders — and the resulting plan is cached process-wide, keyed by the
// pattern's canonical form, so isomorphic patterns in any vertex
// numbering share one plan. A PreparedQuery over several patterns
// executes them in a single pass over the data graph (one task scan,
// see core.RunPlans) instead of one traversal per pattern, and can
// stream matches through a range-over-func iterator instead of
// buffering them.

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"sync/atomic"

	"peregrine/internal/core"
	"peregrine/internal/plan"
)

// defaultPlanCache memoizes exploration plans for the whole process:
// every entry point — one-shot Count/ForEachMatch calls as much as
// PreparedQuery — compiles through it, so repeated queries for the
// same pattern shape never re-run pattern analysis.
var defaultPlanCache = plan.NewCache()

// PlanCacheStats reports the cumulative hit and miss counts of the
// process-wide plan cache.
func PlanCacheStats() (hits, misses uint64) { return defaultPlanCache.Stats() }

// PlanCacheLen returns the number of distinct pattern shapes cached.
func PlanCacheLen() int { return defaultPlanCache.Len() }

// MultiStats summarizes one batched multi-pattern execution. Its Share
// field reports cross-pattern traversal sharing: patterns whose
// matching orders induce identical ordered-view prefixes are explored
// through shared trie nodes, and Share quantifies the adjacency
// intersections that merging avoided.
type MultiStats = core.MultiStats

// ShareStats quantifies cross-pattern traversal sharing in a batched
// execution (see MultiStats.Share).
type ShareStats = core.ShareStats

// MorphStats quantifies pattern morphing in a batched counting
// execution (see MultiStats.Morph): how many edge-add/edge-remove
// relatives were considered and chosen, how many requested patterns
// were replaced by algebraic recovery relations, and the pattern-side
// trie program steps of the batch as given versus as executed.
type MorphStats = core.MorphStats

// matchStreamBuffer decouples engine workers from a Matches consumer.
// Workers block once it fills — backpressure, not buffering: memory
// stays flat no matter how many matches the pattern has.
const matchStreamBuffer = 64

// preparedPattern is one compiled pattern: the caller's pattern, its
// (possibly shared) cached plan, and the vertex translation from the
// caller's numbering to the plan's when they differ.
type preparedPattern struct {
	pat   *Pattern
	plan  *plan.Plan
	remap []int // caller vertex -> plan vertex; nil when identical
}

// PreparedQuery is a set of patterns compiled for repeated execution —
// the paper's "analyze once, match cheaply" made first-class. Prepare
// it once, then run Count, CountEach, Exists, ForEach, or Matches
// against any number of graphs; all patterns are matched in a single
// graph traversal per call.
//
// A PreparedQuery is immutable and safe for concurrent use.
type PreparedQuery struct {
	orig     []*Pattern
	compiled []preparedPattern
	// Plan-affecting options baked into compiled; executions under the
	// same options reuse it directly, others recompile through the cache.
	vertexInduced bool
	noSym         bool
	// planCache is the cache the query was prepared in (WithPlanCache);
	// nil means the process-wide default. Recompiles go back to it.
	planCache *plan.Cache
	// cuts marks an executed set with decomposed rows (PrepareExecuted):
	// it only counts, as prepared.
	cuts bool
}

// Prepare compiles patterns into a reusable query. Plans come from the
// process-wide cache, so preparing a pattern isomorphic to one seen
// before — in any vertex numbering — reuses its analysis. To prepare
// for execution under plan-affecting options (VertexInduced,
// WithoutSymmetryBreaking), use PrepareWith.
func Prepare(patterns ...*Pattern) (*PreparedQuery, error) {
	return PrepareWith(nil, patterns...)
}

// PrepareWith is Prepare under specific execution options: the plans
// are compiled for opts' plan-affecting settings, and those settings
// become the query's execution defaults — a query prepared with
// WithoutSymmetryBreaking (or VertexInduced) runs that way without the
// option being re-passed to every call.
func PrepareWith(opts []Option, patterns ...*Pattern) (*PreparedQuery, error) {
	if len(patterns) == 0 {
		return nil, fmt.Errorf("peregrine: Prepare requires at least one pattern")
	}
	c := buildConfig(opts)
	orig := append([]*Pattern(nil), patterns...)
	compiled, err := compilePatterns(orig, c)
	if err != nil {
		return nil, err
	}
	return &PreparedQuery{
		orig:          orig,
		compiled:      compiled,
		vertexInduced: c.vertexInduced,
		noSym:         c.opts.NoSymmetryBreaking,
		planCache:     c.planCache,
	}, nil
}

// compilePatterns resolves each pattern to a cached plan under c's
// plan-affecting options (vertex-induced conversion, symmetry
// breaking).
func compilePatterns(ps []*Pattern, c config) ([]preparedPattern, error) {
	out := make([]preparedPattern, len(ps))
	for i, p := range ps {
		pp, err := compilePattern(p, c)
		if err != nil {
			return nil, fmt.Errorf("peregrine: pattern %d (%v): %w", i, p, err)
		}
		out[i] = pp
	}
	return out, nil
}

// compilePattern resolves one pattern as compilePatterns does.
func compilePattern(p *Pattern, c config) (preparedPattern, error) {
	eff := c.pattern(p)
	cached, err := c.cache().Get(eff, c.planOptions())
	if err != nil {
		return preparedPattern{}, err
	}
	return preparedPattern{pat: eff, plan: cached.Plan, remap: cached.Remap}, nil
}

// CutError is PrepareExecuted's refusal of a cut that is not a
// decomposition of its row's pattern: a vertex named twice or out of
// range, more than three vertices, a three-vertex cut whose walked
// vertex is not adjacent to the task's, components the cut does not
// leave small, or one a walk could not start or scatter from.
type CutError = plan.CutError

// PrepareExecuted prepares, where it runs, an executed set a CountPlan
// planned elsewhere: Executed's patterns, and Cuts' vertex lists (nil,
// or one entry per pattern, empty for a row counted as given). A row with
// a cut is its pattern's decomposed plan, built by plan.NewCut from the
// pattern as given, whose vertices the cut names — never through the plan
// cache, whose entry is the direct plan of the canonical spelling — and
// counts V: its low 64 bits in Stats.Matches, its high 64 in
// MultiStats.MatchesHi. The other rows compile as PrepareWith's do. A cut
// that is not a decomposition of its pattern fails with an error wrapping
// a *CutError.
//
// The rows must be distinct plans, so that a count's MultiStats rows are
// indexed like them. The query only counts, under the options it was
// prepared with, and a count never rewrites it: summed over disjoint task
// ranges, its rows are what CountPlan.Finish takes.
func PrepareExecuted(opts []Option, patterns []*Pattern, cuts [][]int) (*PreparedQuery, error) {
	if cuts == nil || len(patterns) == 0 {
		return PrepareWith(opts, patterns...)
	}
	if len(cuts) != len(patterns) {
		return nil, fmt.Errorf("peregrine: %d cuts for %d patterns", len(cuts), len(patterns))
	}
	c := buildConfig(opts)
	q := &PreparedQuery{
		orig:          append([]*Pattern(nil), patterns...),
		compiled:      make([]preparedPattern, len(patterns)),
		vertexInduced: c.vertexInduced,
		noSym:         c.opts.NoSymmetryBreaking,
		planCache:     c.planCache,
	}
	seen := make(map[*plan.Plan]bool)
	for i, p := range q.orig {
		pp := &q.compiled[i]
		var err error
		if verts := cuts[i]; len(verts) > 0 {
			eff := c.pattern(p)
			var pl *plan.Plan
			pl, err = plan.NewCut(eff, verts)
			*pp = preparedPattern{pat: eff, plan: pl}
			q.cuts = true
		} else {
			*pp, err = compilePattern(p, c)
		}
		if err != nil {
			return nil, fmt.Errorf("peregrine: pattern %d (%v): %w", i, p, err)
		}
		if seen[pp.plan] {
			return nil, fmt.Errorf("peregrine: pattern %d (%v) repeats an earlier row", i, pp.pat)
		}
		seen[pp.plan] = true
	}
	return q, nil
}

// CutsFit returns an error when a decomposed row of q (PrepareExecuted)
// could overflow its 128-bit tally of V on g, as plan.CutFits bounds it:
// the planner that chose the cut priced another graph. A count of q on g
// returns the same error.
func (q *PreparedQuery) CutsFit(g *Graph) error {
	if !q.cuts {
		return nil
	}
	s := ShapeOf(g)
	for _, pp := range q.compiled {
		if pp.plan.Cut != nil && !plan.CutFits(pp.pat.N(), s) {
			return fmt.Errorf("peregrine: the decomposed count of %v could overflow 128 bits on a graph of %d vertices and largest degree %d",
				pp.pat, s.Vertices, s.MaxDeg)
		}
	}
	return nil
}

// buildConfig resolves per-call options over the query's prepare-time
// defaults: PrepareWith's plan-affecting settings hold unless a call
// adds to them (options only opt in, so merging is a logical or).
func (q *PreparedQuery) buildConfig(opts []Option) config {
	c := buildConfig(opts)
	c.vertexInduced = c.vertexInduced || q.vertexInduced
	c.opts.NoSymmetryBreaking = c.opts.NoSymmetryBreaking || q.noSym
	if c.planCache == nil {
		c.planCache = q.planCache
	}
	return c
}

// resolve returns the compiled form matching c. Executions under the
// options the query was prepared with reuse the plans compiled at
// Prepare time; options that change the plan (VertexInduced,
// WithoutSymmetryBreaking) recompile through the cache, which
// amortizes to a lookup.
func (q *PreparedQuery) resolve(c config) ([]preparedPattern, error) {
	if c.vertexInduced == q.vertexInduced && c.opts.NoSymmetryBreaking == q.noSym {
		return q.compiled, nil
	}
	if q.cuts {
		return nil, errCutsOptions
	}
	return compilePatterns(q.orig, c)
}

// An executed set with decomposed rows only counts, as prepared.
var (
	errCutsEnumerate = errors.New("peregrine: a decomposed row counts tuples through its cut and delivers no matches")
	errCutsOptions   = errors.New("peregrine: an executed set with decomposed rows runs under the options it was prepared with")
)

// Patterns returns the prepared patterns in query order.
func (q *PreparedQuery) Patterns() []*Pattern {
	return append([]*Pattern(nil), q.orig...)
}

func plansOf(pps []preparedPattern) []*plan.Plan {
	out := make([]*plan.Plan, len(pps))
	for i := range pps {
		out[i] = pps[i].plan
	}
	return out
}

// remapInto translates a plan-numbered mapping into caller numbering:
// dst[v] = src[remap[v]].
func remapInto(dst, src []uint32, remap []int) {
	for v := range dst {
		dst[v] = src[remap[v]]
	}
}

// adaptCallback wraps a user callback so every delivered Match carries
// the caller's pattern instance and the caller's vertex numbering,
// regardless of which cached plan produced it. Per-thread Match and
// mapping buffers keep the hot path allocation-free; like the engine's
// own Mapping, buffers are reused between invocations.
func adaptCallback(pps []preparedPattern, threads int, f func(ctx *Ctx, pat int, m *Match)) core.PlanCallback {
	if f == nil {
		return nil
	}
	direct := true
	for i := range pps {
		if pps[i].remap != nil || pps[i].pat != pps[i].plan.Pat {
			direct = false
			break
		}
	}
	if direct {
		return func(ctx *core.Ctx, pat int, m *core.Match) { f(ctx, pat, m) }
	}
	if threads <= 0 {
		threads = defaultThreads()
	}
	bufs := make([][]Match, threads) // [thread][pattern], filled lazily
	return func(ctx *core.Ctx, pat int, m *core.Match) {
		tms := bufs[ctx.Thread]
		if tms == nil {
			tms = make([]Match, len(pps))
			bufs[ctx.Thread] = tms
		}
		pp := &pps[pat]
		out := &tms[pat]
		out.Pattern = pp.pat
		if pp.remap == nil {
			out.Mapping = m.Mapping
		} else {
			if out.Mapping == nil {
				out.Mapping = make([]uint32, len(pp.remap))
			}
			remapInto(out.Mapping, m.Mapping, pp.remap)
		}
		f(ctx, pat, out)
	}
}

// ForEach finds every match of every prepared pattern in one pass over
// g and invokes f with the index of the matched pattern. Like
// MatchFunc, f runs concurrently on worker threads and the Match's
// Mapping is reused between invocations.
func (q *PreparedQuery) ForEach(g *Graph, f func(ctx *Ctx, pat int, m *Match), opts ...Option) (MultiStats, error) {
	if q.cuts {
		return MultiStats{}, errCutsEnumerate
	}
	c := q.buildConfig(opts)
	pps, err := q.resolve(c)
	if err != nil {
		return MultiStats{}, err
	}
	return core.RunPlans(g, plansOf(pps), adaptCallback(pps, c.opts.Threads, f), c.opts), nil
}

// CountEach returns per-pattern match counts, in pattern order, from a
// single traversal of g.
func (q *PreparedQuery) CountEach(g *Graph, opts ...Option) ([]uint64, error) {
	counts, _, err := q.CountEachWithStats(g, opts...)
	return counts, err
}

// CountEachWithStats is CountEach along with the batched execution
// statistics (per-pattern rows plus the shared traversal figures).
//
// Counting is where pattern morphing applies: patterns with anti-edges
// may be rewritten into cheaper edge-induced relatives whose counts
// recover the requested ones exactly (see countBatch), morphing first
// and then sharing what remains through the trie. The returned counts
// are always the requested patterns'; MultiStats.Morph reports the
// rewriting and WithoutMorphing disables it. Entry points that deliver
// real embeddings (ForEach, Exists, Matches) never morph.
func (q *PreparedQuery) CountEachWithStats(g *Graph, opts ...Option) ([]uint64, MultiStats, error) {
	per, ms, err := countBatch(g, []*PreparedQuery{q}, opts)
	if err != nil {
		return nil, ms, err
	}
	ms.Per = per[0] // one row per requested pattern, duplicates included
	return matchCounts(ms.Per), ms, nil
}

// Count returns the total number of matches across all prepared
// patterns from a single traversal of g. Like CountEach, counting may
// execute morphed relatives of the prepared patterns and recover the
// requested counts algebraically.
func (q *PreparedQuery) Count(g *Graph, opts ...Option) (uint64, error) {
	counts, err := q.CountEach(g, opts...)
	var total uint64
	for _, n := range counts {
		total += n
	}
	return total, err
}

// Exists reports whether any prepared pattern has at least one match in
// g, stopping the exploration at the first match (§5.3).
func (q *PreparedQuery) Exists(g *Graph, opts ...Option) (bool, error) {
	found := new(atomic.Bool)
	_, err := q.ForEach(g, func(ctx *Ctx, pat int, m *Match) {
		found.Store(true)
		ctx.Stop()
	}, opts...)
	return found.Load(), err
}

// Matches returns an iterator streaming every match of every prepared
// pattern in g as (pattern index, match) pairs. Matches are delivered
// as the engine finds them — the full match set is never materialized —
// and each yielded Match owns its Mapping, so it may be retained.
//
// Breaking out of the range stops the engine's workers, exactly like
// Ctx.Stop: the iterator cancels the run and waits for it to unwind
// before returning. WithContext and WithDeadline bound the stream the
// same way they bound other executions — but a bound that fires ends
// the range indistinguishably from a complete enumeration; use
// MatchesWithStats to tell the two apart.
func (q *PreparedQuery) Matches(g *Graph, opts ...Option) (iter.Seq2[int, Match], error) {
	seq, _, err := q.MatchesWithStats(g, opts...)
	return seq, err
}

// MatchesWithStats is Matches plus the execution statistics: st is
// zero while the range runs and is populated when it ends — whether
// the enumeration completed, the consumer broke out, or a deadline or
// context fired — so checking st.Stopped afterwards distinguishes a
// truncated stream from a complete one (bufio.Scanner.Err-style).
func (q *PreparedQuery) MatchesWithStats(g *Graph, opts ...Option) (iter.Seq2[int, Match], *MultiStats, error) {
	if q.cuts {
		return nil, nil, errCutsEnumerate
	}
	c := q.buildConfig(opts)
	pps, err := q.resolve(c)
	if err != nil {
		return nil, nil, err
	}
	plans := plansOf(pps)
	base := c.opts.Context
	if base == nil {
		base = context.Background()
	}
	stats := new(MultiStats)
	seq := func(yield func(int, Match) bool) {
		ctx, cancel := context.WithCancel(base)
		defer cancel()
		runOpts := c.opts
		runOpts.Context = ctx

		type item struct {
			pat int
			m   Match
		}
		ch := make(chan item, matchStreamBuffer)
		go func() {
			defer close(ch)
			ms := core.RunPlans(g, plans, func(cc *core.Ctx, pat int, m *core.Match) {
				pp := &pps[pat]
				mapping := make([]uint32, len(m.Mapping))
				if pp.remap == nil {
					copy(mapping, m.Mapping)
				} else {
					remapInto(mapping, m.Mapping, pp.remap)
				}
				select {
				case ch <- item{pat: pat, m: Match{Pattern: pp.pat, Mapping: mapping}}:
				case <-ctx.Done():
					cc.Stop()
				}
			}, runOpts)
			// Written before close(ch): draining to the closed channel
			// is the consumer's happens-after edge for reading stats.
			*stats = ms
		}()
		for it := range ch {
			if !yield(it.pat, it.m) {
				// Consumer broke out of the range: stop the workers and
				// drain until the run goroutine closes the channel.
				cancel()
				for range ch {
				}
				return
			}
		}
	}
	return seq, stats, nil
}
