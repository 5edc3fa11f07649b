// Package core implements the pattern-aware matching engine (paper §4
// and §5): the guided exploration of a data graph driven by an
// exploration plan, with no isomorphism or canonicality checks on any
// partial or complete match.
//
// A mining task is a data vertex (§5.1). From each start vertex the
// engine matches the pattern core by recursive traversal of each
// matching order, then completes matches by intersecting (and, for
// anti-edges, subtracting) adjacency lists of the core match, then
// verifies anti-vertex constraints, and finally hands each complete
// match to the user callback. Partial state lives only on the recursion
// stack — the engine never materializes intermediate match sets, which
// is the source of the paper's memory advantage (Figure 13).
//
// Completion slots: before the bounds that name other non-core
// vertices, a non-core vertex's candidate set is a function of the core
// binding alone — the intersection of some core vertices' adjacency
// lists inside an id window set by two of them. The share trie hangs
// each such set, as a plan.Slot, on the node binding the deepest core
// vertex it names, once for every plan and sequence of the batch that
// needs it; a slot over three or more lists is its prefix slot (one list
// fewer, on a node above) intersected with one more list. A thread
// computes a slot on the first read after its node binds, into a buffer
// of its own, and serves it read-only to every completion below until
// the node binds again: binding visit d bumps a per-depth generation
// counter, and a slot is current while its stamp equals its depth's
// counter, so invalidation costs one increment and no loop. Completion
// clips the slot to the full window, non-core bounds included. A step
// without a slot — one core neighbour, or the only reader of a two-list
// set, reading it once per computation — intersects its lists itself.
// For a triangle and a 4-clique this makes the triangle's set and the
// 4-clique's first two lists one slot per edge, and leaves the 4-clique
// one short two-list intersection per triangle.
//
// Count mode: a run with no callback needs how many matches there are,
// never which. Non-core vertices are an independent set, so the last
// one's candidate set is fixed before it is visited and — when the plan
// has no anti-vertex check — each member is exactly one match. Such a
// run adds that level's contribution to Stats.Matches in one step: no
// per-candidate distinctness scan, recursion or match slot update. With
// only an id window and distinctness to satisfy, the contribution is
// the candidate set's size minus the already-assigned vertices in it; a
// label or anti-edge filter on the last vertex still reads the
// candidates but counts them in place.
//
// When the last two completion steps are both unfiltered the same holds
// one level up. The last vertex's set depends on the second-to-last
// vertex only through distinctness and, where the plan orders the two,
// one id bound; so it is computed once per core match with every other
// bound, next to the second-to-last level's own set, and the level pair
// contributes the number of admissible pairs — x below y, y below x or
// merely distinct, neither already assigned — taken from the two sorted
// sets by one ordered merge (countPairsExcluding) instead of one sizing
// of the last level per member of the level above.
//
// A longer unfiltered tail is sized whole when its plan has a plan.Tail:
// three or more steps grouped into classes that share one candidate set,
// with every order between two tail vertices inside a class. At the
// tail's first level a count computes one set per class (its slot, or
// its own intersection, clipped to the class's window), sizes the
// intersection of every class subset the Tail's terms name by one merge,
// subtracts the already-assigned vertices each holds, and evaluates the
// terms — signed products of those sizes over the set partitions of the
// tail, divided by Π (class size)! — in 128-bit arithmetic. No level of
// the tail is walked. A graph whose largest degree could overflow the
// terms walks instead (tailFits). The one- and two-level paths stay: the
// pair path is the only one that handles an order between two levels
// with different sets, which respelled patterns produce. A filter on a
// tail step or an anti-vertex check walks as before.
//
// A decomposed plan (plan.Cut, chosen by plan.MorphBatch for in-process
// counts only) has no core: it runs in the same task scan, after the
// trie, with no symmetry breaking. The task binds the cut's first vertex;
// the second, if any, is bound from its list when the two are adjacent.
// Each component of the pattern less the cut — one or two vertices — is
// counted by a short rooted walk over the set kernels that avoids the
// cut's vertices, its last level sized rather than walked, and the
// components' counts multiply. When the second cut vertex is not adjacent
// to the first, each component's walk binds it on the way instead and
// tallies its counts per candidate in per-thread vertex-indexed arrays,
// reset through a touched list, and the task adds Σ_c Π_i tally_i[c]. The
// sum over tasks is V, in 128 bits (MultiStats.MatchesHi), from which the
// rewrite recovers the pattern's count.
//
// Runs with a callback (Exists, Matches, ForEach, FSM) enumerate.
package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"peregrine/internal/graph"
	"peregrine/internal/pattern"
	"peregrine/internal/plan"
	"peregrine/internal/profile"
)

// NoVertex marks an unmatched mapping slot (anti-vertices never match).
const NoVertex = ^uint32(0)

// Match is one complete match delivered to a callback. Mapping[v] is the
// data vertex (engine id) matched to pattern vertex v, or NoVertex for
// anti-vertices. The Mapping slice is reused between callback
// invocations: callbacks that retain it must copy it.
type Match struct {
	Pattern *pattern.Pattern
	Mapping []uint32
}

// OrigMapping translates the match to original input vertex ids.
func (m *Match) OrigMapping(g *graph.Graph) []uint32 {
	out := make([]uint32, len(m.Mapping))
	for i, v := range m.Mapping {
		if v == NoVertex {
			out[i] = NoVertex
		} else {
			out[i] = g.OrigID(v)
		}
	}
	return out
}

// Ctx is passed to callbacks; it identifies the worker and allows
// stopping the exploration early (§5.3).
type Ctx struct {
	Thread int
	G      *graph.Graph
	stop   *atomic.Bool
}

// Stop requests early termination: all workers observe the flag at their
// next check and unwind (§5.3, existence queries).
func (c *Ctx) Stop() { c.stop.Store(true) }

// Stopped reports whether early termination was requested.
func (c *Ctx) Stopped() bool { return c.stop.Load() }

// Callback processes one match on a worker thread. Implementations must
// be safe for concurrent invocation from multiple workers.
type Callback func(ctx *Ctx, m *Match)

// Options configures a match execution.
type Options struct {
	// Threads is the worker count; 0 means runtime.GOMAXPROCS(0).
	Threads int

	// NoSymmetryBreaking runs the engine without partial orders (the
	// paper's PRG-U configuration): every automorphic variant of every
	// match is enumerated.
	NoSymmetryBreaking bool

	// Breakdown, if non-nil, accumulates the Figure 11 per-stage time
	// split. Enabling it adds timer overhead to the hot path.
	Breakdown *profile.Breakdown

	// LoadBalance, if non-nil, records per-worker busy time and finish
	// times (§6.7).
	LoadBalance *profile.LoadBalance

	// Deadline, when positive, stops the exploration after the given
	// duration as if Ctx.Stop had been called; Stats.Stopped reports
	// whether the run was cut short. Workloads whose exhaustive searches
	// can explode (e.g. ruling out a 14-clique in a dense graph) use this
	// to bound wall time.
	Deadline time.Duration

	// Context, if non-nil, cancels the exploration when done: workers
	// observe the same stop flag Ctx.Stop and Deadline drive, unwind at
	// their next check, and Stats.Stopped reports the truncation. This is
	// how long-running services abort queries whose client went away.
	Context context.Context

	// NoSharing disables cross-pattern traversal sharing: every matching
	// order runs as its own root-to-leaf chain, performing exactly the
	// per-plan work of a serial loop. The sharing ablation — counts are
	// identical either way; only MultiStats.Share differs.
	NoSharing bool

	// TaskLo and TaskHi restrict the scan to mining tasks whose start
	// vertex lies in [TaskLo, TaskHi); TaskHi == 0 means NumVertices.
	// Every enumeration is rooted at exactly one task (its maximum-id
	// core vertex), so counts from disjoint ranges sum to the full-graph
	// count exactly — with or without symmetry breaking. This is the
	// partitioning seam the distributed coordinator (internal/coord)
	// fans out over.
	//
	// Morph recovery is NOT valid under a task range: a pattern and its
	// morphed relatives can have different cores, hence different root
	// tasks for matches on the same vertex set, so the inclusion–
	// exclusion algebra only balances over the whole graph. Callers
	// above the engine disable morphing for ranged executions; the
	// coordinator recovers from the relatives' counts summed over every
	// range, which is the whole graph again.
	TaskLo, TaskHi uint32
}

// Stats summarizes one match execution. In a batched run (RunPlans)
// each plan's Stats is exact for that plan: Tasks counts the start
// vertices on which the plan's matching orders were actually attempted
// (its start-label gate passed), so a label-constrained plan in a batch
// reports only its own share of the scan.
type Stats struct {
	// Matches is the number of complete matches: callback invocations,
	// or, with no callback, the same number reached without visiting the
	// members of the last one or two completion levels, or of a plan's
	// whole Tail (see the package comment).
	//
	// A decomposed plan (plan.Cut) yields no matches: Matches holds the
	// low 64 bits of its tuple count V, which MorphBatch's recovery turns
	// into its pattern's count, and MultiStats.MatchesHi the high 64.
	Matches     uint64
	CoreMatches uint64 // matches of the pattern core
	Tasks       uint64 // start vertices this plan was attempted on
	// Intersections counts the multi-list adjacency intersections this
	// plan performed outside the shared core walk: completion slots it
	// computed, anti-vertex common-neighborhood checks that merged two
	// or more lists, a count-mode Tail's merges of two or more class
	// sets, and a decomposed plan's walk levels that merged two or more
	// lists (single-list candidate sets are zero-copy views, not set
	// computations). A slot is computed once per binding of its trie
	// node and charged to the plan whose completion read it first; every
	// later read, by any plan of the batch, is free — so a plan's figure
	// depends on the batch it ran in, and counting and enumerating runs
	// of one batch report nearly the same total. Together with the
	// batch-level ShareStats.Intersections this makes total
	// set-intersection work attributable — the figure pattern morphing
	// trades against.
	Intersections uint64
	PlanTime      time.Duration // exploration-plan generation time
	MatchTime     time.Duration // wall time of the parallel exploration

	// Threads is the run's worker count, an int32 so that with Stopped it
	// fills one word: a row is 56 bytes, and a count returns — and its
	// callers often keep — one per requested pattern.
	Threads int32
	Stopped bool // true if exploration terminated early
}

// PlanCallback processes one match from a batched multi-plan run; pat
// is the index into the plan slice of the plan that produced it. Like
// Callback, implementations must be safe for concurrent invocation.
type PlanCallback func(ctx *Ctx, pat int, m *Match)

// ShareStats quantifies cross-pattern traversal sharing in one batched
// execution: how much of the batch's core exploration was merged into
// shared trie nodes, and how many adjacency-intersection computations
// that merging avoided relative to running every matching order alone.
// The JSON tags are the wire names of a job result's stats.sharing.
type ShareStats struct {
	// TrieNodes is the number of step nodes in the executed trie;
	// ProgramSteps is the number of steps across all matching orders
	// before merging. TrieNodes < ProgramSteps means prefixes merged.
	TrieNodes    uint64 `json:"trieNodes"`
	ProgramSteps uint64 `json:"programSteps"`

	// SharedNodeVisits counts node expansions whose candidate set served
	// more than one matching order. Intersections counts candidate-set
	// computations performed; IntersectionsSaved counts the computations
	// unshared execution would have performed on top of that.
	SharedNodeVisits   uint64 `json:"sharedNodeVisits"`
	Intersections      uint64 `json:"intersections"`
	IntersectionsSaved uint64 `json:"intersectionsSaved"`
}

// Add folds another part of the same batch (a worker thread's, or
// another task range's) into s: run-time counters sum, while the trie's
// shape is a per-batch constant every part reports alike, so it takes
// the max.
func (s *ShareStats) Add(o ShareStats) {
	s.TrieNodes = max(s.TrieNodes, o.TrieNodes)
	s.ProgramSteps = max(s.ProgramSteps, o.ProgramSteps)
	s.SharedNodeVisits += o.SharedNodeVisits
	s.Intersections += o.Intersections
	s.IntersectionsSaved += o.IntersectionsSaved
}

// MultiStats summarizes one batched execution of several plans over a
// single graph traversal.
type MultiStats struct {
	Per       []Stats       // per-plan stats, exact per plan (see Stats)
	Tasks     uint64        // start vertices processed — once for the whole batch
	Share     ShareStats    // cross-pattern traversal sharing telemetry
	Stopped   bool          // true if exploration terminated early
	MatchTime time.Duration // wall time of the parallel exploration
	Threads   int

	// MatchesHi is indexed like Per when the batch holds a decomposed plan
	// (plan.Cut), and nil otherwise: a decomposed plan's tuple count V can
	// pass 64 bits before its pattern's count does, so its row's Matches
	// holds V's low 64 bits and MatchesHi its high 64; 0 for every other
	// plan. Recovery consumes it (peregrine's CountPlan.Finish drops it).
	MatchesHi []uint64

	// Intersections totals the completion-side adjacency intersections of
	// every plan actually executed. Unlike summing Per (whose rows morph
	// recovery re-synthesizes for the patterns the caller asked about),
	// this always describes the batch's real runtime work.
	Intersections uint64

	// Morph describes the batch rewriting applied above this execution
	// (plan.MorphBatch): zero-valued when the batch ran as given. When
	// Morph.Active(), Per rows describe the patterns the caller asked
	// for — counts are algebraically recovered — and traversal-side
	// figures (CoreMatches, Tasks, Intersections) are attributed to the
	// executed morphed plans, reported per original only when it ran
	// directly.
	Morph plan.MorphStats
}

// MorphStats quantifies pattern-morphing decisions in a batched
// counting execution (see MultiStats.Morph).
type MorphStats = plan.MorphStats

// Matches returns the total match count across all plans.
func (ms *MultiStats) Matches() uint64 {
	var total uint64
	for _, s := range ms.Per {
		total += s.Matches
	}
	return total
}

// RunPlans runs several precomputed plans in one pass over the data
// graph: each start vertex is claimed once from the shared task counter
// and every plan's matching orders are explored from it before the next
// vertex is taken. Beyond the shared task scan, the core traversals
// themselves are shared: all plans' matching orders are merged into a
// prefix trie of canonical exploration steps (plan.BuildShareTrie), and
// each shared node's candidate set is computed once per partial binding
// and reused by every matching order below it. Plans whose matching
// orders induce identical ordered-view prefixes — most of a motif
// batch — diverge only at their first differing step, which is what
// makes batched multi-pattern queries cheaper than a serial loop of
// independent traversals. MultiStats.Share reports the savings;
// Options.NoSharing disables the merge for ablation.
//
// Matches are tagged with the index of the plan that produced them via
// cb's pat argument. The same plan pointer may appear more than once in
// pls; each occurrence is matched and counted independently. A
// decomposed plan (plan.Cut) only counts: it delivers nothing to cb.
func RunPlans(g *graph.Graph, pls []*plan.Plan, cb PlanCallback, opt Options) MultiStats {
	threads := opt.Threads
	if threads <= 0 {
		threads = runtime.GOMAXPROCS(0)
	}
	ms := MultiStats{Per: make([]Stats, len(pls)), Threads: threads}
	for i := range ms.Per {
		// Early returns below ship these snapshots as-is, and callers
		// read Per[i] as a complete Stats.
		ms.Per[i].Threads = int32(threads)
	}
	n := int64(g.NumVertices())
	lo, hi := int64(opt.TaskLo), n
	if opt.TaskHi != 0 && int64(opt.TaskHi) < n {
		hi = int64(opt.TaskHi)
	}
	if hi <= lo || len(pls) == 0 {
		return ms
	}

	start := time.Now()
	var stop atomic.Bool
	if opt.Deadline > 0 {
		timer := time.AfterFunc(opt.Deadline, func() { stop.Store(true) })
		defer timer.Stop()
	}
	if ctx := opt.Context; ctx != nil {
		if ctx.Err() != nil {
			ms.Stopped = true
			for i := range ms.Per {
				ms.Per[i].Stopped = true
			}
			return ms
		}
		watchDone := make(chan struct{})
		defer close(watchDone)
		go func() {
			select {
			case <-ctx.Done():
				stop.Store(true)
			case <-watchDone:
			}
		}()
	}
	// The trie is pattern-side only and cheap to build (microseconds for
	// mining-size batches), so it is rebuilt per run rather than cached.
	var trie *plan.ShareTrie
	if opt.NoSharing {
		trie = plan.BuildUnsharedTrie(pls)
	} else {
		trie = plan.BuildShareTrie(pls)
	}
	ms.Share.TrieNodes = trie.Nodes
	ms.Share.ProgramSteps = trie.ProgramSteps

	// Tasks are handed out hubs-first: ids are degree-ordered, so
	// high-degree (expensive, heavily-pruned) tasks run first to avoid
	// stragglers (§5.2). With Build's ascending order hubs sit at the
	// high end and the scan walks down; on a graph whose ids descend by
	// degree (a .pgr or manifest carrying the desc flag) they sit at the
	// low end and the scan walks up.
	hubsLow := g.DegreeDescending()
	next := new(atomic.Int64)
	if hubsLow {
		next.Store(lo - 1)
	} else {
		next.Store(hi)
	}

	stats := make([][]Stats, threads)
	cuts := make([][]*cutCounter, threads)
	shares := make([]ShareStats, threads)
	tasks := make([]uint64, threads)
	var wg sync.WaitGroup
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			// The thread's trie walker and per-plan completion workers
			// share one stage recorder: they run sequentially within the
			// thread, so stage times attribute correctly across plans.
			tb := opt.Breakdown.Thread()
			mw := newMultiWorker(g, trie, pls, cb, tid, &stop, tb)
			busyStart := time.Now()
			// Accumulate locally: adjacent tasks[] slots share cache
			// lines, and this counter bumps once per claimed vertex.
			var done uint64
			for {
				var i int64
				if hubsLow {
					i = next.Add(1)
					if i >= hi {
						break
					}
				} else {
					i = next.Add(-1)
					if i < lo {
						break
					}
				}
				if stop.Load() {
					break
				}
				mw.runTask(uint32(i))
				done++
			}
			tasks[tid] = done
			tb.Close()
			finish := time.Now()
			opt.LoadBalance.Report(tid, finish.Sub(busyStart), finish)
			stats[tid] = make([]Stats, len(pls))
			for pi, pw := range mw.pws {
				stats[tid][pi] = pw.stats
			}
			shares[tid] = mw.share
			cuts[tid] = mw.cuts
		}(t)
	}
	wg.Wait()

	for tid := range stats {
		ms.Tasks += tasks[tid]
		ms.Share.Add(shares[tid])
		for pi, s := range stats[tid] {
			ms.Per[pi].Matches += s.Matches
			ms.Per[pi].CoreMatches += s.CoreMatches
			ms.Per[pi].Tasks += s.Tasks
			ms.Per[pi].Intersections += s.Intersections
			ms.Intersections += s.Intersections
		}
	}
	// A decomposed plan's V, summed over threads in 128 bits.
	for _, ccs := range cuts {
		for _, cc := range ccs {
			if ms.MatchesHi == nil {
				ms.MatchesHi = make([]uint64, len(pls))
			}
			v, _ := u128{ms.MatchesHi[cc.plan], ms.Per[cc.plan].Matches}.add(cc.v)
			ms.MatchesHi[cc.plan], ms.Per[cc.plan].Matches = v.hi, v.lo
		}
	}
	ms.Stopped = stop.Load()
	ms.MatchTime = time.Since(start)
	for pi := range ms.Per {
		// Per-plan snapshots share the batch-wide traversal figures so
		// each reads as a complete Stats on its own.
		ms.Per[pi].Stopped = ms.Stopped
		ms.Per[pi].MatchTime = ms.MatchTime
		ms.Per[pi].Threads = int32(threads)
	}
	return ms
}

// multiWorker is one thread's trie executor plus the per-plan
// completion workers it feeds; tasks share nothing across threads but
// the atomic task counter and the stop flag (§5.1: "tasks ... are
// independent of each other"). All candidate-set sharing happens inside
// one multiWorker — shared nodes never alias buffers between threads.
type multiWorker struct {
	g    *graph.Graph
	trie *plan.ShareTrie
	ctx  Ctx
	pws  []*worker     // per-plan completion state, indexed like the plan slice
	cuts []*cutCounter // the decomposed plans', run once per task after the trie

	cutScratch *cutScratch // shared by cuts; nil without them

	data    []uint32   // visit index -> data id for the current partial binding
	bufs    [][]uint32 // candidate scratch per trie depth (bufs[d-1] for depth d)
	listArg [][]uint32 // scratch for gathering adjacency list operands
	touched []bool     // per-plan task-attribution flags, reset per task

	// Completion slots (plan.Slot), indexed like trie.Slots. gen[d]
	// advances whenever visit d is bound, so a new binding invalidates
	// every slot on its node without touching them.
	gen   []uint64
	slots []slotState

	share ShareStats
	tb    *profile.ThreadBreakdown
}

func newMultiWorker(g *graph.Graph, trie *plan.ShareTrie, pls []*plan.Plan, cb PlanCallback, tid int, stop *atomic.Bool, tb *profile.ThreadBreakdown) *multiWorker {
	mw := &multiWorker{
		g:       g,
		trie:    trie,
		ctx:     Ctx{Thread: tid, G: g, stop: stop},
		pws:     make([]*worker, len(pls)),
		data:    make([]uint32, trie.MaxCore),
		listArg: make([][]uint32, 0, trie.MaxCore),
		touched: make([]bool, len(pls)),

		gen:   make([]uint64, trie.MaxCore),
		slots: make([]slotState, len(trie.Slots)),
		tb:    tb,
	}
	for id := range mw.slots {
		mw.slots[id].depth = trie.Slots[id].Depth
	}
	if trie.MaxCore > 1 {
		mw.bufs = make([][]uint32, trie.MaxCore-1)
	}
	for pi, pl := range pls {
		var wcb Callback
		if cb != nil {
			pi := pi
			wcb = func(ctx *Ctx, m *Match) { cb(ctx, pi, m) }
		}
		mw.pws[pi] = newWorker(g, pl, wcb, mw, tb)
		if pl.Cut != nil {
			if mw.cutScratch == nil {
				mw.cutScratch = new(cutScratch)
			}
			mw.cuts = append(mw.cuts, &cutCounter{g: g, cut: pl.Cut, plan: pi, st: &mw.pws[pi].stats, sc: mw.cutScratch})
		}
	}
	return mw
}

// runTask explores all matches whose maximum-id core vertex is v (§5.1):
// v binds visit index 0 of every root whose start-label gate admits it,
// and the trie walk matches the remaining core positions downward.
func (mw *multiWorker) runTask(v uint32) {
	vlabel := pattern.Label(mw.g.Label(v))
	for pi := range mw.touched {
		mw.touched[pi] = false
	}
	for _, root := range mw.trie.Roots {
		if root.Step.Label != pattern.Wildcard && root.Step.Label != vlabel {
			continue
		}
		// Exact per-plan task attribution: a plan is charged a task when
		// any of its matching orders is attempted on it, once per task.
		for _, pi := range root.Plans {
			if !mw.touched[pi] {
				mw.touched[pi] = true
				mw.pws[pi].stats.Tasks++
			}
		}
		mw.data[0] = v
		mw.gen[0]++
		for i := range root.Leaves {
			mw.deliver(&root.Leaves[i])
		}
		mw.descend(root)
	}
	if len(mw.cuts) > 0 {
		mw.tb.Enter(profile.StageNonCore)
		for _, cc := range mw.cuts {
			cc.st.Tasks++
			cc.task(v)
		}
	}
}

// descend expands every child of n: the child's candidate set is
// computed once and reused by all child.MOs matching orders in its
// subtree — the cross-pattern sharing the trie exists for.
func (mw *multiWorker) descend(n *plan.ShareNode) {
	for _, child := range n.Children {
		if mw.ctx.stop.Load() {
			return
		}
		st := &child.Step

		mw.tb.Enter(profile.StagePO)
		lo, hi := noLo, noHi
		if st.Lo >= 0 {
			lo = int64(mw.data[st.Lo])
		}
		if st.Hi >= 0 {
			hi = int64(mw.data[st.Hi])
		}
		mw.tb.Enter(profile.StageCore)
		lists := mw.listArg[:0]
		for _, t := range st.Nbr {
			lists = append(lists, mw.g.Adj(mw.data[t]))
		}
		d := child.Depth - 1
		if cap(mw.bufs[d]) == 0 {
			mw.bufs[d] = make([]uint32, 0, 256)
		}
		// cands is read-only below: with one list it aliases graph
		// adjacency storage (see the intersectSetsInto ownership
		// contract), so nothing here may write through it.
		cands := intersectSetsInto(mw.bufs[d], lists, lo, hi)
		if len(lists) > 1 && cap(cands) > cap(mw.bufs[d]) {
			// Keep the grown buffer for future tasks. Single-list results
			// are views into graph storage and must not be adopted.
			mw.bufs[d] = cands[:0:cap(cands)]
		}
		mw.share.Intersections++
		if child.MOs > 1 {
			mw.share.SharedNodeVisits++
			mw.share.IntersectionsSaved += uint64(child.MOs - 1)
		}

		// Candidate filtering and descent are part of matching the core
		// (Figure 11's "Core" stage); deeper levels re-attribute themselves.
		for _, c := range cands {
			if st.Label != pattern.Wildcard && pattern.Label(mw.g.Label(c)) != st.Label {
				continue
			}
			if mw.rejectAnti(c, st.Anti) {
				continue
			}
			mw.data[child.Depth] = c
			mw.gen[child.Depth]++
			if len(child.Leaves) > 0 {
				for i := range child.Leaves {
					mw.deliver(&child.Leaves[i])
				}
				mw.tb.Enter(profile.StageCore)
			}
			mw.descend(child)
			mw.tb.Enter(profile.StageCore)
		}
	}
}

// deliver hands a complete ordered-view binding to the owning plan's
// completion worker: the visit-space binding is translated back to the
// matching order's position space and completed per §4.1.
func (mw *multiWorker) deliver(lf *plan.ShareLeaf) {
	pw := mw.pws[lf.Plan]
	pw.stats.CoreMatches++
	for t, pos := range lf.MO.Visit {
		pw.coreData[pos] = mw.data[t]
	}
	pw.completeCore(lf)
}

// slot returns completion slot id's set for the current binding,
// computing it first if its node has bound since it was last computed.
// The set is read-only: every step naming the slot reads the same
// buffer. Intersections it takes are charged to st.
func (mw *multiWorker) slot(id int, st *Stats) []uint32 {
	if s := &mw.slots[id]; s.gen == mw.gen[s.depth] {
		return s.set
	}
	return mw.fillSlot(id, st)
}

// slotState is one thread's copy of a completion slot: its set as last
// computed, current while gen equals the thread's gen[depth].
type slotState struct {
	gen   uint64
	depth int
	set   []uint32
}

// fillSlot computes slot id: its prefix slot (itself computed on demand)
// or its first operand's list, intersected with the rest inside the
// slot's window.
func (mw *multiWorker) fillSlot(id int, st *Stats) []uint32 {
	sl := &mw.trie.Slots[id]
	var prefix []uint32
	if sl.Prefix >= 0 {
		prefix = mw.slot(sl.Prefix, st) // before the gather: it reuses listArg
	}
	lo, hi := noLo, noHi
	if sl.Step.Lo >= 0 {
		lo = int64(mw.data[sl.Step.Lo])
	}
	if sl.Step.Hi >= 0 {
		hi = int64(mw.data[sl.Step.Hi])
	}
	lists := mw.listArg[:0]
	nbr := sl.Step.Nbr
	if sl.Prefix >= 0 {
		lists = append(lists, prefix)
		nbr = nbr[len(nbr)-1:]
	}
	for _, t := range nbr {
		lists = append(lists, mw.g.Adj(mw.data[t]))
	}
	s := &mw.slots[id]
	if cap(s.set) == 0 {
		s.set = make([]uint32, 0, 256)
	}
	// Two or more lists: the result is slot storage, never a graph view,
	// and a grown buffer is kept for the next computation.
	s.set = intersectSetsInto(s.set, lists, lo, hi)
	s.gen = mw.gen[s.depth]
	st.Intersections++
	return s.set
}

// rejectAnti reports whether candidate c is adjacent to the binding of
// any anti-adjacent visit index (anti-edge enforcement inside the core).
func (mw *multiWorker) rejectAnti(c uint32, anti []int) bool {
	for _, t := range anti {
		if mw.g.HasEdge(c, mw.data[t]) {
			return true
		}
	}
	return false
}

// worker holds one plan's completion state on one thread: once the trie
// walk delivers a core binding, the worker completes non-core vertices,
// verifies anti-vertex constraints, and invokes the callback.
type worker struct {
	g   *graph.Graph
	pl  *plan.Plan
	cb  Callback
	ctx *Ctx         // the owning thread's context, shared across its workers
	mw  *multiWorker // the owning thread's trie walker, which holds the completion slots

	match    []uint32 // pattern vertex -> data id for the current match
	coreData []uint32 // matching-order position -> data id
	assigned []uint32 // data ids matched so far (core + completed non-core)

	// slots is the delivered leaf's slot per NonCore step under the core
	// sequence being completed (plan.ShareLeaf.Slots); a step without
	// one (-1) intersects its lists itself.
	slots []int

	ncBufs  [][]uint32 // scratch per completion depth
	listArg [][]uint32 // scratch for gathering adjacency list operands

	// countLast marks count mode: nobody reads the embeddings (no
	// callback) and a complete assignment is a match without further
	// checks, so the last completion level is aggregated, not walked.
	countLast bool

	// pairTail extends count mode one level up: the last two completion
	// steps are both unfiltered, so the second-to-last level is not
	// walked either — both sets are computed once per core match and the
	// admissible pairs are sized from them (countTail). pairOrder is
	// how the plan orders the two vertices' data ids: +1 when the last
	// must exceed the second-to-last, -1 when it must stay below it, 0
	// when they are only distinct. pairLower and pairUpper are the last
	// step's bounds without the second-to-last vertex — the one bound its
	// set cannot be clipped to before that vertex is chosen.
	pairTail             bool
	pairOrder            int
	pairLower, pairUpper []int

	// tail extends count mode to the plan's Tail, three or more levels
	// sized in closed form from one set per class (sizeTail); nil without
	// one, or when the graph's degrees could overflow its terms.
	tail *tailCounter

	m     Match // reused callback argument
	stats Stats
	tb    *profile.ThreadBreakdown
}

func newWorker(g *graph.Graph, pl *plan.Plan, cb Callback, mw *multiWorker, tb *profile.ThreadBreakdown) *worker {
	n := pl.Pat.N()
	w := &worker{
		g:        g,
		pl:       pl,
		cb:       cb,
		ctx:      &mw.ctx,
		mw:       mw,
		match:    make([]uint32, n),
		coreData: make([]uint32, len(pl.Core)),
		assigned: make([]uint32, 0, n),
		ncBufs:   make([][]uint32, len(pl.NonCore)+1),
		listArg:  make([][]uint32, 0, n),
		tb:       tb,

		countLast: cb == nil && len(pl.Checks) == 0,
	}
	for i := range w.match {
		w.match[i] = NoVertex
	}
	w.m = Match{Pattern: pl.Pat, Mapping: w.match}
	if k := len(pl.NonCore); w.countLast && k >= 2 && pl.NonCore[k-2].Unfiltered() && pl.NonCore[k-1].Unfiltered() {
		w.pairTail = true
		prev, last := pl.NonCore[k-2].V, &pl.NonCore[k-1]
		for _, pv := range last.LowerBound {
			if pv == prev {
				w.pairOrder = 1
			} else {
				w.pairLower = append(w.pairLower, pv)
			}
		}
		for _, pv := range last.UpperBound {
			if pv == prev {
				w.pairOrder = -1
			} else {
				w.pairUpper = append(w.pairUpper, pv)
			}
		}
	}
	if w.countLast && pl.Tail != nil && tailFits(pl.Tail, g.MaxDegree()) {
		w.tail = newTailCounter(pl.Tail)
	}
	return w
}

// completeCore converts the matched ordered view into core matches — one
// per sequence (§4.1: "a match for pMi results in 1 match for pC per
// valid vertex sequence") — and completes each.
func (w *worker) completeCore(lf *plan.ShareLeaf) {
	w.tb.Enter(profile.StageOther) // remapping positions to pattern vertices
	for s, seq := range lf.MO.Seqs {
		if w.ctx.stop.Load() {
			return
		}
		w.slots = lf.Slots[s]
		w.assigned = w.assigned[:0]
		for pos, pv := range seq {
			w.match[pv] = w.coreData[pos]
			w.assigned = append(w.assigned, w.coreData[pos])
		}
		w.completeFrom(0)
		for _, pv := range seq {
			w.match[pv] = NoVertex
		}
	}
}

// completeFrom recursively assigns non-core vertices in plan order.
// Candidates depend only on the core match (non-core vertices are an
// independent set), plus ordering and distinctness constraints against
// earlier assignments.
func (w *worker) completeFrom(i int) {
	if i == len(w.pl.NonCore) {
		w.tb.Enter(profile.StageNonCore) // anti-vertex set intersections
		if w.checkAntiVertices() {
			w.stats.Matches++
			if w.cb != nil {
				w.tb.Enter(profile.StageOther)
				w.cb(w.ctx, &w.m)
			}
		}
		return
	}
	if w.ctx.stop.Load() {
		return
	}
	// Count mode, the whole tail at once: see sizeTail.
	if w.tail != nil && i == w.tail.tl.Start {
		w.stats.Matches += w.sizeTail()
		return
	}
	st := &w.pl.NonCore[i]

	w.tb.Enter(profile.StagePO)
	lo, hi := noLo, noHi
	for _, pv := range st.LowerBound {
		if d := int64(w.match[pv]); d > lo {
			lo = d
		}
	}
	for _, pv := range st.UpperBound {
		if d := int64(w.match[pv]); d < hi {
			hi = d
		}
	}
	if lo+1 >= hi { // both bounds are exclusive
		w.tb.Enter(profile.StageOther)
		return
	}

	w.tb.Enter(profile.StageNonCore)
	// cands is read-only below: a slot's set is shared by every step
	// naming it, and single-list results alias graph adjacency storage
	// (intersectSetsInto ownership contract).
	var cands []uint32
	if id := w.slots[i]; id >= 0 {
		cands = clip(w.mw.slot(id, &w.stats), lo, hi)
	} else {
		lists := w.listArg[:0]
		for _, pv := range st.CoreNbrs {
			lists = append(lists, w.g.Adj(w.match[pv]))
		}
		if cap(w.ncBufs[i]) == 0 {
			w.ncBufs[i] = make([]uint32, 0, 256)
		}
		cands = intersectSetsInto(w.ncBufs[i], lists, lo, hi)
		if len(lists) > 1 {
			w.stats.Intersections++
			if cap(cands) > cap(w.ncBufs[i]) {
				w.ncBufs[i] = cands[:0:cap(cands)]
			}
		}
	}

	// Count mode, two levels at once: the last level's set depends on
	// this level's candidate only through one id bound and distinctness,
	// so neither level is walked — see countTail.
	if w.pairTail && i == len(w.pl.NonCore)-2 {
		w.stats.Matches += w.countTail(cands)
		return
	}

	// Count mode: with no callback and no anti-vertex check, every
	// candidate of the last level is exactly one match, so the level
	// contributes a number and nothing below it needs visiting. With
	// only distinctness left to satisfy that number is the set's size
	// minus the already-assigned vertices in it.
	last := w.countLast && i == len(w.pl.NonCore)-1
	if last && st.Unfiltered() {
		n := len(cands)
		for _, used := range w.assigned {
			if containsSorted(cands, used) {
				n--
			}
		}
		w.stats.Matches += uint64(n)
		return
	}

	// Candidate filtering, distinctness, and anti-edge rejection are all
	// part of completing the match (Figure 11's "Non-Core" stage).
outer:
	for _, c := range cands {
		if st.Label != pattern.Wildcard && pattern.Label(w.g.Label(c)) != st.Label {
			continue
		}
		for _, used := range w.assigned {
			if used == c {
				continue outer
			}
		}
		// Anti-edge enforcement: c must not be adjacent to the match of
		// any anti-adjacent core vertex (§4.2's set difference, applied
		// per candidate with binary search).
		for _, pv := range st.CoreAnti {
			if w.g.HasEdge(c, w.match[pv]) {
				continue outer
			}
		}
		if last {
			w.stats.Matches++ // a filtered last level counts in place
			continue
		}
		w.match[st.V] = c
		w.assigned = append(w.assigned, c)
		w.completeFrom(i + 1)
		w.tb.Enter(profile.StageNonCore)
		w.assigned = w.assigned[:len(w.assigned)-1]
		w.match[st.V] = NoVertex
	}
}

// levelSet computes completion level i's candidate set before the level
// is reached, for the count-mode tails: completeFrom's own
// window-and-intersect steps (kept apart from them so that the
// enumerating path stays the code it was, call-free), with lower and
// upper for the step's bounds — those on vertices already matched. ok
// is false when the id window is empty. The set is read-only: it is a
// slot's set, or lives in level i's ncBufs slot or in graph storage.
func (w *worker) levelSet(i int, lower, upper []int) (cands []uint32, ok bool) {
	w.tb.Enter(profile.StagePO)
	lo, hi := noLo, noHi
	for _, pv := range lower {
		if d := int64(w.match[pv]); d > lo {
			lo = d
		}
	}
	for _, pv := range upper {
		if d := int64(w.match[pv]); d < hi {
			hi = d
		}
	}
	if lo+1 >= hi {
		return nil, false
	}

	w.tb.Enter(profile.StageNonCore)
	if id := w.slots[i]; id >= 0 {
		return clip(w.mw.slot(id, &w.stats), lo, hi), true
	}
	lists := w.listArg[:0]
	for _, pv := range w.pl.NonCore[i].CoreNbrs {
		lists = append(lists, w.g.Adj(w.match[pv]))
	}
	if cap(w.ncBufs[i]) == 0 {
		w.ncBufs[i] = make([]uint32, 0, 256)
	}
	cands = intersectSetsInto(w.ncBufs[i], lists, lo, hi)
	if len(lists) > 1 {
		w.stats.Intersections++
		if cap(cands) > cap(w.ncBufs[i]) {
			w.ncBufs[i] = cands[:0:cap(cands)]
		}
	}
	return cands, true
}

// checkAntiVertices verifies the §4.3 constraint for every anti-vertex:
// no data vertex may simultaneously (a) neighbor every match of the
// anti-vertex's pattern neighbors and (b) avoid being the match of any
// of those neighbors' own pattern neighbors.
func (w *worker) checkAntiVertices() bool {
	for ci := range w.pl.Checks {
		chk := &w.pl.Checks[ci]
		// Intersect adjacency lists of the matched neighbors, smallest
		// first, streaming the exclusion test.
		lists := w.listArg[:0]
		for _, u := range chk.Nbrs {
			lists = append(lists, w.g.Adj(w.match[u]))
		}
		if cap(w.ncBufs[len(w.pl.NonCore)]) == 0 {
			w.ncBufs[len(w.pl.NonCore)] = make([]uint32, 0, 256)
		}
		// common is only iterated, never written: with one list it is a
		// view of that vertex's adjacency (ownership contract).
		common := intersectSetsInto(w.ncBufs[len(w.pl.NonCore)], lists, noLo, noHi)
		if len(lists) > 1 {
			w.stats.Intersections++
		}
	candidates:
		for _, x := range common {
			// x survives term i iff x is not the match of any pattern
			// neighbor of Nbrs[i]; if it survives all terms, the
			// anti-vertex constraint is violated.
			for i := range chk.Nbrs {
				for _, pv := range chk.Exclude[i] {
					if w.match[pv] == x {
						continue candidates // excluded by term i
					}
				}
			}
			return false // violator exists: a data vertex matches the anti-vertex
		}
	}
	return true
}

// String renders stats compactly for logs and tables.
func (s Stats) String() string {
	return fmt.Sprintf("matches=%d core=%d tasks=%d threads=%d plan=%v match=%v stopped=%v",
		s.Matches, s.CoreMatches, s.Tasks, s.Threads, s.PlanTime, s.MatchTime, s.Stopped)
}
