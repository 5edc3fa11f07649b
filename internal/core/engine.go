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
// is the source of the paper's memory advantage (Figure 13). A thread
// explores one task at a time and completes one core match of one plan
// at a time, so its completion state — the match, the level buffers,
// the operand scratch — is per thread, sized for the batch's largest
// plan; a plan keeps only a row per thread: its counters and, in a
// count, how its completion ends.
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
// 4-clique's first two lists one slot per edge; a count reads both the
// triangle's set and the 4-clique's own, one per triangle, only as sizes
// (Count mode, below).
//
// Marked operands: the task vertex v is the maximum-id core vertex, so
// on Build's degree-ascending layout N(v) is the longest list of the
// match, and almost every multi-list step of the task names it — trie
// steps, completion slots, slotless completion levels, anti-vertex
// checks and decomposed plans' walk levels. A thread marks N(v) in a
// bitmap over vertex ids on the task's first such step (taskMarks) and
// computes every step naming it by scanning the shortest other operand
// through the marks, from the window's lower bound up to its upper one,
// where the scan stops: one word load per candidate, where a merge or a
// gallop would walk N(v) again for every binding. A
// slot that is another's prefix keeps its set marked the same way for
// the fills extending it. One rule (markedDriver) picks the path for
// every site: the marks, unless the other operands are so much longer
// than the marked list that galloping it through them costs less —
// intersectSetsInto's own choice, which a hubs-first file's short task
// lists often make. The marks are cleared by walking the list marked,
// never the bitmap, and the sets, hence every count and counter, are the
// ones intersectSetsInto computes. Adjacency stays sorted lists: the
// bitmaps are a thread's scratch, ⌈V/64⌉ words each.
//
// Count mode: a run with no callback needs how many matches there are,
// never which. Non-core vertices are an independent set, so the last
// one's candidate set is fixed before it is visited and — when the plan
// has no anti-vertex check — each member that passes its filters and is
// not already matched is exactly one match. A count completes a plan in
// one of three ways: a one-level completion sized, a Tail sized, or a
// walk whose last level is counted in place, with no recursion or match
// slot update.
//
// A plan whose whole completion is one unfiltered level
// (plan.Plan.SizedAtCore: every k-clique) is sized by one routine,
// sizeCands: the level's set inside its window, less the matched
// vertices in it — only those its step's plan.NonCoreStep.Distinct says
// it may hold — counted, not written (countLevel). Where the trie marks
// a node Sized (plan.ShareNode) it sizes the leaves for all of the
// node's candidates at once: per leaf and sequence, one loop over the
// candidates, each a scan of the candidate's list through the marks of
// the level's one other operand — its prefix slot's set, or N(v). Where
// the window is bounded below only and nothing bound may be taken away
// — every k-clique: x > v — and the layout is Build's, the scan starts
// at the top of the candidate's list and stops at the first id <= v
// (countAbove, scansAbove): the candidate lies below v, so it reads at
// most the candidate's neighbours above itself, and searches nothing.
// Any other level clips the candidate's list to the window, or takes
// markedDriver's gallop where that costs less (countLevel). No candidate
// is bound, no leaf delivered, and the leaf's own slot, which nothing
// else reads, is never materialized: the 4-clique costs one marked scan
// per triangle. Anywhere else it sizes a delivered leaf for its one
// binding, reading a slot shared with other leaves as a size: the
// triangle beside a 4-clique reads the size of the edge's slot, which
// its window, computed once with the slot's, cannot cut (clip's
// endpoint test).
//
// An unfiltered suffix of two or more levels is sized whole when its
// plan has a plan.Tail: steps grouped into classes that share one
// candidate set, with every order between two tail vertices inside a
// class. plan.BreakSymmetries fixes the core first, so a plan.New plan's
// unfiltered suffix is one, up to eight steps of it. At the tail's first
// level a count computes one set per class (its slot, or its own
// intersection, clipped to the class's window), sizes the intersection
// of every class subset the Tail's terms name by one merge, subtracts
// the already-assigned vertices each holds, and evaluates the terms —
// signed products of those sizes over the set partitions of the tail,
// divided by Π (chained class size)! — in 128-bit arithmetic. No level
// of the tail is walked. On a graph whose largest degree could overflow
// the terms a count sizes the longest suffix that fits instead
// (fitTail); two steps always fit. A filter on a tail step or an
// anti-vertex check walks as before, and so does any other completion.
//
// A decomposed plan (plan.Cut, chosen by plan.MorphBatch in-process or
// above a coordinator's fan-out, whose nodes run it by range) has no
// core: it runs in the same task scan, after the trie, with no symmetry
// breaking. The task binds the cut's first vertex;
// the second, if any, is bound from its list when the two are adjacent.
// Each component of the pattern less the cut — one or two vertices — is
// counted by a short rooted walk over the set kernels that avoids the
// cut's vertices, its last level sized rather than walked, and the
// components' counts multiply. When the second cut vertex is not adjacent
// to the first, each component's walk binds it on the way instead and
// tallies its counts per candidate, and the task adds Σ_c Π_i tally_i[c]
// over the shortest tally's candidates. The sum over tasks is V, in 128
// bits (MultiStats.MatchesHi), from which the rewrite recovers the
// pattern's count.
//
// The walks are the entries of the batch's component table
// (plan.ShareTrie.Cuts): one per distinct level program, which every
// component instance of every decomposed plan names. A thread computes
// an entry on its first read after the cut slots it reads are bound and
// serves it to every later read until they are bound again — stamped,
// like completion slots, with a per-slot generation the task (or an
// adjacent cut's loop) bumps. A single-vertex or adjacent cut's entry is
// a count, read lazily, so a plan's product still stops at its first
// zero factor; a scatter's is a per-thread vertex-indexed tally with its
// own touched list, which grows without a branch and empties through
// itself when the entry is next computed.
//
// Runs with a callback (Exists, Matches, ForEach, FSM) enumerate.
package core

import (
	"context"
	"fmt"
	"runtime"
	"slices"
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
	// members of the last completion level: counted in place, or, for a
	// one-level completion or a plan's whole Tail, sized (see the package
	// comment).
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
	// computations). A sized one-level completion of two or more lists
	// that is counted, not written — a slotless one, or a Counted slot —
	// counts as the one intersection it stands for, per core match, as
	// its walk would. A slot is computed once per binding of its trie
	// node and charged to the plan whose completion read it first; every
	// later read, by any plan of the batch, is free — so a plan's figure
	// depends on the batch it ran in, and counting and enumerating runs
	// of one batch report nearly the same total. Together with the
	// batch-level ShareStats.Intersections this makes total
	// set-intersection work attributable — the figure pattern morphing
	// trades against.
	Intersections uint64

	// Threads is the run's worker count, an int32 so that with Stopped it
	// fills one word: a row is 40 bytes, and a count returns — and its
	// callers often keep — one per requested pattern. Run-wide figures,
	// MultiStats.MatchTime among them, live on MultiStats alone.
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
	// more than one matching order, and reads of a decomposed plan's
	// component walk the component table served instead of walking again.
	// Intersections counts the trie's candidate-set computations
	// performed; IntersectionsSaved counts the computations unshared
	// execution would have performed on top of that, plus the merges of
	// the component walks served — unshared, the decomposed plans' own
	// rows (Stats.Intersections) would have held those too.
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
	// plan. Recovery consumes it (peregrine's CountPlan.Finish drops it);
	// a ranged run of a shipped plan hands it to whoever sums the ranges.
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
	// figures (CoreMatches, Intersections) are attributed to the
	// executed morphed plans, reported per original only when it ran
	// directly; a replaced original's Tasks is the batch's.
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
// Each thread runs one walker (multiWorker) that walks the trie and
// completes every plan's core matches with one set of completion state;
// a plan keeps only its row (planRow) per thread, which RunPlans sums.
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
		defer context.AfterFunc(ctx, func() { stop.Store(true) })()
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

	mws := make([]*multiWorker, threads)
	var wg sync.WaitGroup
	for tid := range mws {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// The walker's trie walk and completions share one stage
			// recorder: they run sequentially within the thread, so
			// stage times attribute correctly across plans.
			tb := opt.Breakdown.Thread()
			mw := newMultiWorker(g, trie, pls, cb, tid, &stop, tb)
			mws[tid] = mw
			busyStart := time.Now()
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
				mw.tasks++
			}
			tb.Close()
			finish := time.Now()
			opt.LoadBalance.Report(tid, finish.Sub(busyStart), finish)
		}()
	}
	wg.Wait()

	for _, mw := range mws {
		ms.Tasks += mw.tasks
		ms.Share.Add(mw.share)
		for pi := range mw.rows {
			s := &mw.rows[pi].stats
			ms.Per[pi].Matches += s.Matches
			ms.Per[pi].CoreMatches += s.CoreMatches
			ms.Per[pi].Tasks += s.Tasks
			ms.Per[pi].Intersections += s.Intersections
			ms.Intersections += s.Intersections
		}
		// A decomposed plan's V, summed over threads in 128 bits.
		for _, cc := range mw.cuts {
			if ms.MatchesHi == nil {
				ms.MatchesHi = make([]uint64, len(pls))
			}
			pi := cc.r.pi
			v, _ := u128{ms.MatchesHi[pi], ms.Per[pi].Matches}.add(cc.v)
			ms.MatchesHi[pi], ms.Per[pi].Matches = v.hi, v.lo
		}
	}
	ms.Stopped = stop.Load()
	ms.MatchTime = time.Since(start)
	for pi := range ms.Per {
		// Per-plan snapshots share the batch-wide stop so each reads as a
		// complete Stats on its own.
		ms.Per[pi].Stopped = ms.Stopped
	}
	return ms
}

// multiWorker is one thread's walker: it walks the share trie and
// completes every core match a leaf delivers, whichever plan owns the
// leaf, with one set of completion state sized for the batch's largest
// plan — a thread completes one core match of one plan at a time, so a
// plan keeps only its row (planRow). Tasks share nothing across threads
// but the atomic task counter and the stop flag (§5.1: "tasks ... are
// independent of each other"). All candidate-set sharing happens inside
// one multiWorker — shared nodes never alias buffers between threads.
type multiWorker struct {
	g     *graph.Graph
	trie  *plan.ShareTrie
	cb    PlanCallback // nil in count mode
	ctx   Ctx
	rows  []planRow     // per-plan state, indexed like the plan slice
	cuts  []*cutCounter // the decomposed plans', run once per task after the trie
	cutT  *cutTable     // their component table; nil without them
	tasks uint64        // the tasks this thread claimed

	tm      taskMarks  // the task vertex's list, marked for the multi-list steps naming it
	data    []uint32   // visit index -> data id for the current partial binding
	bufs    [][]uint32 // candidate scratch per trie depth (bufs[d-1] for depth d)
	listArg [][]uint32 // scratch for gathering adjacency list operands, up to a pattern's vertex count
	taken   []uint32   // scratch for the bindings a sized level may hold
	kept    []uint32   // scratch for the bindings a count sizes: a node's past its filters, or one delivered

	// The core match being completed, of one plan at a time.
	match    []uint32 // pattern vertex -> data id; NoVertex where unmatched
	assigned []uint32 // data ids matched so far (core + completed non-core)
	// leafSlots is the delivered leaf's slot per NonCore step under the
	// core sequence being completed (plan.ShareLeaf.Slots); a step
	// without one (-1) intersects its lists itself.
	leafSlots []int
	ncBufs    [][]uint32 // scratch per completion level, then the anti-vertex check's
	m         Match      // reused callback argument

	// Completion slots (plan.Slot), indexed like trie.Slots. gen[d]
	// advances whenever visit d is bound, so a new binding invalidates
	// every slot on its node without touching them.
	gen   []uint64
	slots []slotState

	share ShareStats
	tb    *profile.ThreadBreakdown
}

// planRow is what one plan keeps on one thread: its Stats and, in a
// count, how its completion ends.
type planRow struct {
	pl    *plan.Plan
	pi    int    // the plan's index in the batch, cb's pat argument
	task  uint32 // the last task charged to stats.Tasks, NoVertex before the first
	stats Stats

	// countLast marks count mode: nobody reads the embeddings (no
	// callback) and a complete assignment is a match without further
	// checks, so the last completion level is counted in place, not
	// recursed into.
	countLast bool

	// tail extends count mode to a Tail, two or more levels sized in
	// closed form from one set per class (sizeTail): the plan's, or the
	// longest suffix of it whose terms fit the graph (fitTail); nil
	// without one.
	tail *tailCounter
}

func newMultiWorker(g *graph.Graph, trie *plan.ShareTrie, pls []*plan.Plan, cb PlanCallback, tid int, stop *atomic.Bool, tb *profile.ThreadBreakdown) *multiWorker {
	// An anti-vertex check gathers a list per neighbour of its
	// anti-vertex, which can outnumber the core.
	n, levels := trie.MaxCore, 0
	for _, pl := range pls {
		n, levels = max(n, pl.Pat.N()), max(levels, len(pl.NonCore))
	}
	mw := &multiWorker{
		g:       g,
		trie:    trie,
		cb:      cb,
		ctx:     Ctx{Thread: tid, G: g, stop: stop},
		tm:      taskMarks{g: g, marked: NoVertex},
		rows:    make([]planRow, len(pls)),
		data:    make([]uint32, trie.MaxCore),
		listArg: make([][]uint32, 0, n),

		match:    slices.Repeat([]uint32{NoVertex}, n),
		assigned: make([]uint32, 0, n),
		ncBufs:   make([][]uint32, levels+1),

		bufs:  make([][]uint32, max(trie.MaxCore-1, 0)),
		gen:   make([]uint64, trie.MaxCore),
		slots: make([]slotState, len(trie.Slots)),
		tb:    tb,
	}
	for id, sl := range trie.Slots {
		mw.slots[id].depth = sl.Depth
		if sl.Prefix >= 0 && mw.slots[sl.Prefix].marks == nil {
			mw.slots[sl.Prefix].marks = new(markSet)
		}
	}
	for pi, pl := range pls {
		r := &mw.rows[pi]
		r.pl, r.pi, r.task = pl, pi, NoVertex
		r.countLast = cb == nil && len(pl.Checks) == 0
		if r.countLast {
			if tl := fitTail(pl, g.MaxDegree()); tl != nil {
				r.tail = newTailCounter(tl)
			}
		}
		if pl.Cut != nil {
			if mw.cutT == nil {
				mw.cutT = newCutTable(g, trie, &mw.tm, &mw.share)
			}
			mw.cuts = append(mw.cuts, &cutCounter{t: mw.cutT, cut: pl.Cut, comps: trie.CutComps[pi], r: r})
		}
	}
	return mw
}

// runTask explores all matches whose maximum-id core vertex is v (§5.1):
// v binds visit index 0 of every root whose start-label gate admits it,
// and the trie walk binds the remaining visit indices below it.
func (mw *multiWorker) runTask(v uint32) {
	vlabel := pattern.Label(mw.g.Label(v))
	mw.tm.bind(v)
	for _, root := range mw.trie.Roots {
		if root.Step.Label != pattern.Wildcard && root.Step.Label != vlabel {
			continue
		}
		// Exact per-plan task attribution: a plan is charged a task when
		// any of its matching orders is attempted on it, once per task.
		for _, pi := range root.Plans {
			if r := &mw.rows[pi]; r.task != v {
				r.task = v
				r.stats.Tasks++
			}
		}
		mw.data[0] = v
		mw.gen[0]++
		for i := range root.Leaves {
			mw.deliver(&root.Leaves[i], 0)
		}
		mw.descend(root)
	}
	if len(mw.cuts) > 0 {
		mw.tb.Enter(profile.StageNonCore)
		mw.cutT.bind(v)
		for _, cc := range mw.cuts {
			cc.r.stats.Tasks++
			cc.task()
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
		lo, hi := mw.window(st)
		mw.tb.Enter(profile.StageCore)
		lists := mw.listArg[:0]
		for _, t := range st.Nbr {
			lists = append(lists, mw.g.Adj(mw.data[t]))
		}
		// cands is read-only below: with one list it aliases graph
		// adjacency storage (see the intersectSetsInto ownership
		// contract), so nothing here may write through it.
		cands := mw.tm.set(&mw.bufs[child.Depth-1], lists, lo, hi)
		mw.share.Intersections++
		if child.MOs > 1 {
			mw.share.SharedNodeVisits++
			mw.share.IntersectionsSaved += uint64(child.MOs - 1)
		}
		if child.Sized && mw.cb == nil {
			mw.sizeNode(child, cands)
			continue
		}

		// Candidate filtering and descent are part of matching the core
		// (Figure 11's "Core" stage); deeper levels re-attribute themselves.
		for _, c := range cands {
			if !mw.admits(st, c) {
				continue
			}
			mw.data[child.Depth] = c
			mw.gen[child.Depth]++
			if len(child.Leaves) > 0 {
				for i := range child.Leaves {
					mw.deliver(&child.Leaves[i], child.Depth)
				}
				mw.tb.Enter(profile.StageCore)
			}
			mw.descend(child)
			mw.tb.Enter(profile.StageCore)
		}
	}
}

// window returns the id window of trie step st: the bindings of visits
// st.Lo and st.Hi, noLo and noHi on a side it leaves unbounded.
func (mw *multiWorker) window(st *plan.Step) (lo, hi int64) {
	lo, hi = noLo, noHi
	if st.Lo >= 0 {
		lo = int64(mw.data[st.Lo])
	}
	if st.Hi >= 0 {
		hi = int64(mw.data[st.Hi])
	}
	return lo, hi
}

// deliver completes mw.data, a complete ordered-view binding, for leaf
// lf's plan per §4.1 — or, in count mode, sizes a leaf whose plan is
// SizedAtCore for the one binding of visit d, its node's, as sizeNode
// sizes a Sized node's candidates.
func (mw *multiWorker) deliver(lf *plan.ShareLeaf, d int) {
	r := &mw.rows[lf.Plan]
	if mw.cb == nil && lf.Levels != nil {
		mw.tb.Enter(profile.StageNonCore)
		mw.kept = append(mw.kept[:0], mw.data[d])
		mw.sizeLeaf(lf, d, mw.kept, &r.stats)
		return
	}
	r.stats.CoreMatches++
	mw.completeCore(r, lf)
}

// sizeNode sizes the leaves of n, a Sized node, for all of its
// candidates cands without binding any: those past the node's filters,
// per leaf (sizeLeaf). It is the Non-Core stage.
func (mw *multiWorker) sizeNode(n *plan.ShareNode, cands []uint32) {
	mw.tb.Enter(profile.StageNonCore)
	if st := &n.Step; st.Label != pattern.Wildcard || len(st.Anti) > 0 {
		kept := mw.kept[:0]
		for _, c := range cands {
			if mw.admits(st, c) {
				kept = append(kept, c)
			}
		}
		mw.kept, cands = kept, kept
	}
	if len(cands) == 0 {
		return
	}
	for i := range n.Leaves {
		lf := &n.Leaves[i]
		mw.sizeLeaf(lf, n.Depth, cands, &mw.rows[lf.Plan].stats)
	}
}

// sizeLeaf adds to ps the matches leaf lf, of a SizedAtCore plan,
// completes over cands, bindings of visit d past its node's filters: one
// sizeCands per sequence. Each binding is charged the core match its walk
// would take.
func (mw *multiWorker) sizeLeaf(lf *plan.ShareLeaf, d int, cands []uint32, ps *Stats) {
	ps.CoreMatches += uint64(len(cands))
	for s := range lf.Levels {
		if mw.ctx.stop.Load() {
			return
		}
		ps.Matches += mw.sizeCands(lf, s, d, cands, ps)
	}
}

// sizeCands returns the matches sequence s of leaf lf completes over
// cands, bindings of visit d past their node's filters, and charges ps the
// intersection each one's walk would take. A shared slot (one not
// Counted) is read as a size: its set inside the level's window, less the
// bindings of Taken it holds (countLevel). Otherwise the operands bound
// above d are resolved once — a Counted slot's prefix, marked, or the
// level's lists, two of them through the task marks — and each
// candidate's count is its own list, the level's deepest operand, scanned
// through those marks: down to the bound where scansAbove says so.
//
// On a Sized node every level reads visit d's list, through no shared
// slot, inside a window bound above d (plan.ShareNode.Sized). Any other
// level is a delivered binding's, the one candidate, bound at mw.data[d]:
// its window may name d, and a level whose deepest operand is bound above
// d is sized once.
func (mw *multiWorker) sizeCands(lf *plan.ShareLeaf, s, d int, cands []uint32, ps *Stats) (m uint64) {
	lv := &lf.Levels[s]
	lo, hi := mw.window(&lv.Step)
	if lo+1 >= hi {
		return 0
	}
	taken := mw.taken[:0]
	for _, t := range lv.Taken {
		taken = append(taken, mw.data[t])
	}
	mw.taken = taken
	nbr := lv.Step.Nbr
	lists := mw.listArg[:0] // a fill below gathers in it too, before this gather does
	var ms *markSet
	if id := lf.Slots[s][0]; id >= 0 {
		sl := &mw.trie.Slots[id]
		if !sl.Counted {
			return countLevel(append(lists, mw.slot(id, ps)), nil, lo, hi, taken)
		}
		var prefix []uint32
		prefix, ms = mw.prefix(sl.Prefix, ps)
		lists = append(lists, prefix)
		nbr = nbr[len(nbr)-1:]
	} else if len(nbr) == 2 {
		ms = mw.tm.marks()
	}
	for _, t := range nbr {
		// On a Sized node data[d] is stale: each candidate replaces its list.
		lists = append(lists, mw.g.Adj(mw.data[t]))
	}
	if len(lists) > 1 {
		ps.Intersections += uint64(len(cands))
	}
	if nbr[len(nbr)-1] != d {
		return countLevel(lists, ms, lo, hi, taken)
	}
	last := len(lists) - 1
	if mw.scansAbove(lists, ms, lo, hi, taken) {
		for _, c := range cands {
			m += uint64(ms.countAbove(mw.g.Adj(c), uint32(lo)))
		}
		return m
	}
	for _, c := range cands {
		lists[last] = mw.g.Adj(c)
		m += countLevel(lists, ms, lo, hi, taken)
	}
	return m
}

// scansAbove reports whether a sized level over lists, whose last operand
// each candidate replaces, counts every candidate by (*markSet).countAbove:
// the two lists' intersection above lo, with lists[0] the list ms holds,
// no binding to take away and no upper bound — every k-clique's last
// level — on Build's degree-ascending layout. countAbove reads the ids
// the marked scan of countLevel reads, less a binary search, but never
// gallops: on a hubs-first graph, where a candidate's list may be far
// longer than the marked one, markedDriver's gallop pays, and
// countAbove measured slower there (ROADMAP P).
func (mw *multiWorker) scansAbove(lists [][]uint32, ms *markSet, lo, hi int64, taken []uint32) bool {
	return len(lists) == 2 && ms != nil && len(taken) == 0 && lo != noLo && hi == noHi &&
		!mw.g.DegreeDescending() && sameList(lists[0], ms.held)
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

	// marks holds set for the fills of the slots it is the Prefix of:
	// marked by the first of them after each computation, released by
	// the next computation before it overwrites set. nil on a slot that
	// is no slot's prefix.
	marks *markSet
}

// prefix returns slot id, a slot that is another's Prefix, as slot does,
// and its marks, holding it: what a slot extending it is scanned through.
func (mw *multiWorker) prefix(id int, st *Stats) ([]uint32, *markSet) {
	set := mw.slot(id, st)
	ms := mw.slots[id].marks
	if ms.held == nil {
		ms.hold(set, int(mw.g.NumVertices()))
	}
	return set, ms
}

// fillSlot computes slot id: its prefix slot (itself computed on demand,
// and intersected through its marks) or its first operand's list,
// intersected with the rest inside the slot's window.
func (mw *multiWorker) fillSlot(id int, st *Stats) []uint32 {
	sl := &mw.trie.Slots[id]
	lists, nbr := mw.listArg[:0], sl.Step.Nbr
	var pm *markSet
	if sl.Prefix >= 0 {
		var prefix []uint32
		prefix, pm = mw.prefix(sl.Prefix, st) // a fill gathers in listArg too, before this gather does
		lists, nbr = append(lists, prefix), nbr[len(nbr)-1:]
	}
	for _, t := range nbr {
		lists = append(lists, mw.g.Adj(mw.data[t]))
	}
	lo, hi := mw.window(&sl.Step)
	s := &mw.slots[id]
	if cap(s.set) == 0 {
		s.set = make([]uint32, 0, 256)
	}
	if s.marks != nil {
		s.marks.release() // while the set it holds is still there
	}
	// Two or more lists: the result is slot storage, never a graph view,
	// and a grown buffer is kept for the next computation.
	if pm != nil {
		s.set = pm.intersect(s.set, lists, lo, hi)
	} else {
		s.set = mw.tm.intersect(s.set, lists, lo, hi)
	}
	s.gen = mw.gen[s.depth]
	st.Intersections++
	return s.set
}

// taskMarks is one thread's marks of its task vertex's list, N(v) (see
// the package comment). Every multi-list step of a task, whatever its
// site, intersects through intersect. The bitmap is keyed on the task
// vertex itself — data[0] is stale on a task no root's label gate
// admits — and marked on the task's first multi-list step, so a task
// with none costs nothing.
type taskMarks struct {
	g      *graph.Graph
	task   uint32   // the task vertex
	adj    []uint32 // its list
	marked uint32   // the vertex whose list ms holds, NoVertex before the first
	ms     markSet
}

// bind starts task v.
func (tm *taskMarks) bind(v uint32) {
	tm.task, tm.adj = v, tm.g.Adj(v)
}

// marks returns the marks of the task vertex's list, marking it on the
// task's first call.
func (tm *taskMarks) marks() *markSet {
	if tm.marked != tm.task {
		tm.ms.hold(tm.adj, int(tm.g.NumVertices()))
		tm.marked = tm.task
	}
	return &tm.ms
}

// intersect is intersectSetsInto for a step of the bound task, through
// the marks where they pay: the same set, the same ownership contract.
func (tm *taskMarks) intersect(buf []uint32, lists [][]uint32, lo, hi int64) []uint32 {
	if len(lists) > 1 && tm.marked != tm.task {
		tm.marks()
	}
	return tm.ms.intersect(buf, lists, lo, hi)
}

// set is intersect into a site's own buffer *buf, allocated on first
// use and replaced by the result when that grew, so a site allocates
// only while its sets outgrow every earlier one. With one list the
// result is a view of graph storage and *buf is left alone.
func (tm *taskMarks) set(buf *[]uint32, lists [][]uint32, lo, hi int64) []uint32 {
	if cap(*buf) == 0 {
		*buf = make([]uint32, 0, 256)
	}
	out := tm.intersect(*buf, lists, lo, hi)
	if len(lists) > 1 && cap(out) > cap(*buf) {
		*buf = out[:0:cap(out)]
	}
	return out
}

// admits reports whether candidate c passes trie step st's filters: its
// label, and no edge to the binding of an anti-adjacent visit index
// (anti-edge enforcement inside the core).
func (mw *multiWorker) admits(st *plan.Step, c uint32) bool {
	if st.Label != pattern.Wildcard && pattern.Label(mw.g.Label(c)) != st.Label {
		return false
	}
	for _, t := range st.Anti {
		if mw.g.HasEdge(c, mw.data[t]) {
			return false
		}
	}
	return true
}

// completeCore converts the matched ordered view, the binding of visit
// t at mw.data[t], into core matches of r's plan — one per sequence
// (§4.1: "a match for pMi results in 1 match for pC per valid vertex
// sequence"), each naming visit t's pattern vertex at seq[t] — and
// completes each.
func (mw *multiWorker) completeCore(r *planRow, lf *plan.ShareLeaf) {
	mw.tb.Enter(profile.StageOther) // mapping visits to pattern vertices
	mw.m = Match{Pattern: r.pl.Pat, Mapping: mw.match[:r.pl.Pat.N()]}
	for s, seq := range lf.MO.Seqs {
		if mw.ctx.stop.Load() {
			return
		}
		mw.leafSlots = lf.Slots[s]
		mw.assigned = mw.assigned[:0]
		for t, pv := range seq {
			mw.match[pv] = mw.data[t]
			mw.assigned = append(mw.assigned, mw.data[t])
		}
		mw.completeFrom(r, 0)
		for _, pv := range seq {
			mw.match[pv] = NoVertex
		}
	}
}

// completeFrom recursively assigns r's plan's non-core vertices in plan
// order. Candidates depend only on the core match (non-core vertices are
// an independent set), plus ordering and distinctness constraints
// against earlier assignments.
func (mw *multiWorker) completeFrom(r *planRow, i int) {
	nc := r.pl.NonCore
	if i == len(nc) {
		mw.tb.Enter(profile.StageNonCore) // anti-vertex set intersections
		if mw.checkAntiVertices(r) {
			r.stats.Matches++
			if mw.cb != nil {
				mw.tb.Enter(profile.StageOther)
				mw.cb(&mw.ctx, r.pi, &mw.m)
			}
		}
		return
	}
	if mw.ctx.stop.Load() {
		return
	}
	// Count mode, the whole tail at once: see sizeTail.
	if r.tail != nil && i == r.tail.tl.Start {
		r.stats.Matches += mw.sizeTail(r)
		return
	}
	st := &nc[i]
	// Count mode: with no callback and no anti-vertex check, every
	// candidate of the last level that passes its filters is exactly one
	// match, counted in place with nothing below it to visit.
	last := r.countLast && i == len(nc)-1
	// cands is read-only below: a slot's set is shared by every step
	// naming it, and single-list results alias graph adjacency storage
	// (intersectSetsInto ownership contract).
	cands, ok := mw.levelSet(r, i, st.LowerBound, st.UpperBound)
	if !ok {
		mw.tb.Enter(profile.StageOther)
		return
	}

	// Candidate filtering, distinctness, and anti-edge rejection are all
	// part of completing the match (Figure 11's "Non-Core" stage).
outer:
	for _, c := range cands {
		if st.Label != pattern.Wildcard && pattern.Label(mw.g.Label(c)) != st.Label {
			continue
		}
		for _, used := range mw.assigned {
			if used == c {
				continue outer
			}
		}
		// Anti-edge enforcement: c must not be adjacent to the match of
		// any anti-adjacent core vertex (§4.2's set difference, applied
		// per candidate with binary search).
		for _, pv := range st.CoreAnti {
			if mw.g.HasEdge(c, mw.match[pv]) {
				continue outer
			}
		}
		if last {
			r.stats.Matches++ // the last level counts in place
			continue
		}
		mw.match[st.V] = c
		mw.assigned = append(mw.assigned, c)
		mw.completeFrom(r, i+1)
		mw.tb.Enter(profile.StageNonCore)
		mw.assigned = mw.assigned[:len(mw.assigned)-1]
		mw.match[st.V] = NoVertex
	}
}

// levelSet computes completion level i's candidate set, with lower and
// upper for the step's bounds — those on vertices already matched: all
// of the step's when completeFrom reaches the level, fewer when a
// count-mode tail sizes it beforehand. ok is false when the id window is
// empty. The set is read-only: it is a slot's set, or lives in level i's
// ncBufs slot or in graph storage.
func (mw *multiWorker) levelSet(r *planRow, i int, lower, upper []int) (cands []uint32, ok bool) {
	mw.tb.Enter(profile.StagePO)
	lo, hi := noLo, noHi
	for _, pv := range lower {
		if d := int64(mw.match[pv]); d > lo {
			lo = d
		}
	}
	for _, pv := range upper {
		if d := int64(mw.match[pv]); d < hi {
			hi = d
		}
	}
	if lo+1 >= hi {
		return nil, false
	}

	mw.tb.Enter(profile.StageNonCore)
	if id := mw.leafSlots[i]; id >= 0 {
		return clip(mw.slot(id, &r.stats), lo, hi), true
	}
	lists := mw.listArg[:0]
	for _, pv := range r.pl.NonCore[i].CoreNbrs {
		lists = append(lists, mw.g.Adj(mw.match[pv]))
	}
	cands = mw.tm.set(&mw.ncBufs[i], lists, lo, hi)
	if len(lists) > 1 {
		r.stats.Intersections++
	}
	return cands, true
}

// checkAntiVertices verifies the §4.3 constraint for every anti-vertex
// of r's plan: no data vertex may simultaneously (a) neighbor every
// match of the anti-vertex's pattern neighbors and (b) avoid being the
// match of any of those neighbors' own pattern neighbors.
func (mw *multiWorker) checkAntiVertices(r *planRow) bool {
	for ci := range r.pl.Checks {
		chk := &r.pl.Checks[ci]
		// Intersect adjacency lists of the matched neighbors, smallest
		// first, streaming the exclusion test.
		lists := mw.listArg[:0]
		for _, u := range chk.Nbrs {
			lists = append(lists, mw.g.Adj(mw.match[u]))
		}
		// common is only iterated, never written: with one list it is a
		// view of that vertex's adjacency (ownership contract).
		common := mw.tm.set(&mw.ncBufs[len(r.pl.NonCore)], lists, noLo, noHi)
		if len(lists) > 1 {
			r.stats.Intersections++
		}
	candidates:
		for _, x := range common {
			// x survives term i iff x is not the match of any pattern
			// neighbor of Nbrs[i]; if it survives all terms, the
			// anti-vertex constraint is violated.
			for i := range chk.Nbrs {
				for _, pv := range chk.Exclude[i] {
					if mw.match[pv] == x {
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
	return fmt.Sprintf("matches=%d core=%d tasks=%d threads=%d stopped=%v",
		s.Matches, s.CoreMatches, s.Tasks, s.Threads, s.Stopped)
}
