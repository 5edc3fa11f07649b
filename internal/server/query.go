package server

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"peregrine"
	"peregrine/internal/core"
	"peregrine/internal/graph"
	"peregrine/internal/pattern"
)

// Query kinds accepted by POST /v1/query.
const (
	KindCount   = "count"   // number of matches (the paper's count())
	KindExists  = "exists"  // existence query with early termination (§5.3)
	KindMatches = "matches" // concrete mappings: buffered, or streamed as NDJSON
	KindFSM     = "fsm"     // frequent subgraph mining (§3.2.1)
)

// DefaultMaxMatches caps the mappings returned by a buffered matches
// query when the request does not set MaxMatches. Streaming matches
// queries default to unlimited instead — that is what the stream is
// for.
const DefaultMaxMatches = 100

// Request is the body of POST /v1/query.
type Request struct {
	// Graph names a graph registered in the server's registry.
	Graph string `json:"graph"`
	// Kind selects the query: count, exists, matches, or fsm.
	Kind string `json:"kind"`
	// Pattern is the textual pattern ("0-1 1-2 2-0", see ParsePattern);
	// required for every kind except fsm unless Patterns is set.
	Pattern string `json:"pattern,omitempty"`
	// Patterns is a pattern list. All patterns are compiled once and
	// matched in a single traversal of the graph (matching-order union);
	// count queries report per-pattern results.
	Patterns []string `json:"patterns,omitempty"`
	// Stream makes a matches query deliver mappings incrementally over
	// GET /v1/jobs/{id}/stream as NDJSON instead of buffering them in
	// the job result.
	Stream bool `json:"stream,omitempty"`
	// VertexInduced matches with vertex-induced semantics (Theorem 3.1).
	VertexInduced bool `json:"vertexInduced,omitempty"`
	// NoSymmetryBreaking enumerates every automorphic variant (PRG-U).
	NoSymmetryBreaking bool `json:"noSymmetryBreaking,omitempty"`
	// Threads bounds this query's workers; 0 means GOMAXPROCS.
	Threads int `json:"threads,omitempty"`
	// MaxMatches caps returned mappings for matches queries. For
	// streaming queries 0 means unlimited.
	MaxMatches int `json:"maxMatches,omitempty"`
	// MaxEdges and Support parameterize fsm queries.
	MaxEdges int `json:"maxEdges,omitempty"`
	Support  int `json:"support,omitempty"`
	// Wait makes POST /v1/query block until the job finishes and return
	// the terminal snapshot instead of responding 202 immediately.
	Wait bool `json:"wait,omitempty"`
	// TaskLo/TaskHi restrict the run to start vertices in [taskLo,
	// taskHi) — the distribution primitive: disjoint ranges' counts sum
	// to the whole-graph counts, so a coordinator fans one query out as
	// per-shard ranged jobs and adds the answers. taskHi 0 means "to the
	// end". Ranged count queries run their patterns as given, with no
	// rewrite — no morphing and no decomposition, whose recovery is only
	// valid over the whole task space — so a coordinator rewrites before
	// it fans out, ships the executed set (with Cuts), and recovers from
	// the summed answers (see Fanout). They also bypass cross-request
	// coalescing: merged batches must share one range.
	TaskLo uint32 `json:"taskLo,omitempty"`
	TaskHi uint32 `json:"taskHi,omitempty"`
	// Cuts runs rows of a ranged count decomposed: one entry per entry of
	// Patterns, empty for a row counted as given, otherwise the pattern
	// vertices of the row's cut in slot order (a coordinator's executed
	// set, peregrine.CountPlan.Cuts): the task's vertex, then a walked
	// vertex adjacent to it, then a scattered one — one to three in all,
	// as plan.Cut reads them. Such a row answers V, the tuples through the
	// cut — in 128 bits, Count and CountHi — not its pattern's count. The
	// node rebuilds each cut from the pattern text as sent and refuses
	// (400) one that is not a decomposition of it (plan.CutError: a vertex
	// repeated or out of range, four or more, a walked vertex not adjacent
	// to the task's, a component that misses the scattered vertex, …), or
	// whose V could overflow 128 bits on the node's graph.
	Cuts [][]int `json:"cuts,omitempty"`
}

// taskRanged reports whether the request restricts its task range.
func (r Request) taskRanged() bool { return r.TaskLo != 0 || r.TaskHi != 0 }

// PatternCount is one per-pattern row of a batched count result.
type PatternCount struct {
	Pattern string `json:"pattern"`
	Count   uint64 `json:"count"`
	// CountHi is the high 64 bits of a decomposed row's V (Request.Cuts),
	// whose low 64 are Count; absent on every other row.
	CountHi uint64 `json:"countHi,omitempty"`
}

// Result carries the outcome of one query.
type Result struct {
	Count      uint64            `json:"count,omitempty"`
	PerPattern []PatternCount    `json:"perPattern,omitempty"`
	Exists     *bool             `json:"exists,omitempty"`
	Matches    [][]uint32        `json:"matches,omitempty"`
	Frequent   []FrequentPattern `json:"frequent,omitempty"`
	Stats      *RunStats         `json:"stats,omitempty"`
}

// FrequentPattern is one fsm result row.
type FrequentPattern struct {
	Pattern string `json:"pattern"`
	Support int    `json:"support"`
}

// RunStats is the JSON rendering of one execution's statistics. For
// batched multi-pattern queries it aggregates across patterns; tasks
// counts the single shared traversal, not one per pattern. The nested
// blocks are the engine's own stats types — one shape from the library
// through node JSON to the coordinator's merge.
type RunStats struct {
	Matches     uint64 `json:"matches"`
	CoreMatches uint64 `json:"coreMatches"`
	Tasks       uint64 `json:"tasks"`
	Threads     int    `json:"threads"`
	Stopped     bool   `json:"stopped"`
	PlanMicros  int64  `json:"planMicros"`
	MatchMicros int64  `json:"matchMicros"`
	// Sharing reports how much of the batch's core exploration was merged
	// into shared trie nodes. Present on pattern queries (count, exists,
	// matches); absent on fsm.
	Sharing *core.ShareStats `json:"sharing,omitempty"`
	// Morphing is present when the batch's counting patterns were
	// rewritten into cheaper relatives before execution (see
	// peregrine.WithoutMorphing for the ablation). The traversal figures
	// above describe the executed — morphed — plan set; matches and
	// per-pattern counts are always the requested patterns' recovered
	// counts.
	Morphing *core.MorphStats `json:"morphing,omitempty"`
	// Coalescing is present when the job rode a cross-request
	// micro-batch: the whole batch's shape plus this request's own
	// queue/execution latency split. On a coalesced job the traversal
	// figures above (tasks, matchMicros, sharing) describe the merged
	// batch execution, not this request alone.
	Coalescing *CoalescingStats `json:"coalescing,omitempty"`
}

// Add folds the stats of another task range of the same query into s —
// the coordinator's merge. Counters sum; the parts ran concurrently, so
// wall-clock figures (and the thread count) take the max; the nested
// blocks add themselves. Coalescing is per-request attribution and does
// not merge.
func (s *RunStats) Add(o *RunStats) {
	s.Matches += o.Matches
	s.CoreMatches += o.CoreMatches
	s.Tasks += o.Tasks
	s.Threads = max(s.Threads, o.Threads)
	s.Stopped = s.Stopped || o.Stopped
	s.PlanMicros = max(s.PlanMicros, o.PlanMicros)
	s.MatchMicros = max(s.MatchMicros, o.MatchMicros)
	addBlock(&s.Sharing, o.Sharing)
	addBlock(&s.Morphing, o.Morphing)
}

// addBlock adds an optional nested stats block into *dst, allocating it
// on first use so blocks absent from every part stay absent.
func addBlock[T any, P interface {
	*T
	Add(T)
}](dst *P, src P) {
	if src == nil {
		return
	}
	if *dst == nil {
		*dst = new(T)
	}
	(*dst).Add(*src)
}

// runStats renders an execution's statistics: matches and core matches
// total ms.Per, everything else is the shared traversal's. Plan time is
// the cost of compiling the request's patterns at POST time, which a
// plan-cache hit reduces to the canonicalization lookup.
func (q *compiledQuery) runStats(ms peregrine.MultiStats) *RunStats {
	// The nested blocks are copied out, not pointed into ms: a finished
	// job keeps its stats until its TTL, and must not pin the whole
	// MultiStats (and its Per rows) with them.
	share := ms.Share
	st := &RunStats{
		Matches:     ms.Matches(),
		Tasks:       ms.Tasks,
		Threads:     ms.Threads,
		Stopped:     ms.Stopped,
		PlanMicros:  q.planTime.Microseconds(),
		MatchMicros: ms.MatchTime.Microseconds(),
		Sharing:     &share,
	}
	if ms.Morph.Active() {
		morph := ms.Morph
		st.Morphing = &morph
	}
	for _, s := range ms.Per {
		st.CoreMatches += s.CoreMatches
	}
	return st
}

// countResult builds a count request's Result from its demuxed slice of
// a batch execution: per holds the Stats row serving each of the
// request's patterns (see peregrine.CountEachMerged), ms the batch's
// shared-traversal figures, and cs the coalescing attribution (nil when
// the request ran as a batch of its own).
func (q *compiledQuery) countResult(per []peregrine.Stats, ms peregrine.MultiStats, cs *CoalescingStats) *Result {
	ms.Per = per
	st := q.runStats(ms)
	st.Coalescing = cs
	res := &Result{Count: st.Matches, Stats: st}
	// Any list-form request gets per-pattern rows — even a list of one —
	// so clients never have to special-case the list's length.
	if len(q.req.Patterns) > 0 {
		res.PerPattern = make([]PatternCount, len(q.texts))
		for i, text := range q.texts {
			res.PerPattern[i] = PatternCount{Pattern: text, Count: per[i].Matches}
			if len(q.req.Cuts) > 0 && ms.MatchesHi != nil {
				// A ranged request runs as a batch of its own, and an
				// executed set's rows are distinct plans
				// (peregrine.PrepareExecuted): the execution's rows are
				// the request's.
				res.PerPattern[i].CountHi = ms.MatchesHi[i]
			}
		}
	}
	return res
}

// compiledQuery is a validated request: patterns parsed (and converted
// for vertex-induced semantics), plans compiled through the shared
// plan cache, parameters defaulted.
type compiledQuery struct {
	req      Request
	texts    []string                 // pattern text per prepared pattern
	prepared *peregrine.PreparedQuery // nil for fsm
	stream   *MatchStream             // non-nil when req.Stream
	planTime time.Duration            // parse + plan-compilation cost at POST time
}

// compile validates req, parses its patterns, and compiles their
// exploration plans through the server's plan cache (nil means the
// process-wide default). Errors are client errors (HTTP 400); the
// graph is resolved separately so unknown graphs can map to 404.
func compile(req Request, plans *peregrine.PlanCache) (*compiledQuery, error) {
	if len(req.Cuts) > 0 {
		switch {
		case req.Kind != KindCount:
			return nil, fmt.Errorf("cuts apply to count queries only")
		case !req.taskRanged():
			return nil, fmt.Errorf("cuts need a task range: a decomposed row's V is recovered from at the merge of a fan-out")
		case len(req.Cuts) != len(req.Patterns):
			return nil, fmt.Errorf("cuts has %d entries for %d patterns; want one per entry of patterns", len(req.Cuts), len(req.Patterns))
		}
	}
	switch req.Kind {
	case KindCount, KindExists, KindMatches:
		texts := req.Patterns
		if req.Pattern != "" {
			if len(texts) > 0 {
				return nil, fmt.Errorf("set either pattern or patterns, not both")
			}
			texts = []string{req.Pattern}
		}
		if len(texts) == 0 {
			return nil, fmt.Errorf("query kind %q requires a pattern", req.Kind)
		}
		if req.Stream && req.Kind != KindMatches {
			return nil, fmt.Errorf("stream applies only to matches queries")
		}
		if req.Stream && req.Wait {
			return nil, fmt.Errorf("streaming queries are asynchronous; consume GET /v1/jobs/{id}/stream instead of wait")
		}
		if req.Kind == KindMatches && len(texts) > 1 && !req.Stream {
			return nil, fmt.Errorf("buffered matches queries take one pattern; set \"stream\": true for a multi-pattern match stream")
		}
		if req.TaskHi != 0 && req.TaskHi <= req.TaskLo {
			return nil, fmt.Errorf("taskHi (%d) must exceed taskLo (%d); 0 means to the end", req.TaskHi, req.TaskLo)
		}
		planStart := time.Now()
		pats := make([]*pattern.Pattern, len(texts))
		for i, text := range texts {
			p, err := pattern.Parse(text)
			if err != nil {
				return nil, err
			}
			if err := p.Validate(); err != nil {
				return nil, err
			}
			if !p.ConnectedRegular() {
				return nil, fmt.Errorf("pattern %q is not connected", text)
			}
			if req.VertexInduced {
				p = pattern.VertexInduced(p)
			}
			pats[i] = p
		}
		// Prepare under the request's plan-affecting options so the
		// plans compiled (and cached) here are the ones the run uses;
		// planTime then measures the real compilation cost.
		var prepOpts []peregrine.Option
		if req.NoSymmetryBreaking {
			prepOpts = append(prepOpts, peregrine.WithoutSymmetryBreaking())
		}
		if plans != nil {
			prepOpts = append(prepOpts, peregrine.WithPlanCache(plans))
		}
		// With cuts, the patterns are a shipped executed set; without,
		// PrepareExecuted is PrepareWith.
		prepared, err := peregrine.PrepareExecuted(prepOpts, pats, req.Cuts)
		if err != nil {
			return nil, err
		}
		q := &compiledQuery{req: req, texts: texts, prepared: prepared, planTime: time.Since(planStart)}
		if req.Stream {
			q.stream = newMatchStream()
		}
		return q, nil
	case KindFSM:
		if req.Pattern != "" || len(req.Patterns) > 0 || req.Stream {
			return nil, fmt.Errorf("fsm queries take no patterns and no stream")
		}
		if req.taskRanged() {
			return nil, fmt.Errorf("fsm queries do not support task ranges (support counting needs the whole graph)")
		}
		if req.MaxEdges < 1 {
			return nil, fmt.Errorf("fsm requires maxEdges >= 1")
		}
		if req.Support < 1 {
			return nil, fmt.Errorf("fsm requires support >= 1")
		}
		return &compiledQuery{req: req}, nil
	case "":
		return nil, fmt.Errorf("missing query kind (want count, exists, matches, or fsm)")
	default:
		return nil, fmt.Errorf("unknown query kind %q (want count, exists, matches, or fsm)", req.Kind)
	}
}

// options renders the request's execution knobs as engine options; the
// context reaches every engine worker through core.Options.Context.
// Plan-affecting knobs are already baked into q.prepared (fsm, which
// prepares nothing, adds its own).
func (q *compiledQuery) options(ctx context.Context) []peregrine.Option {
	opts := []peregrine.Option{peregrine.WithContext(ctx)}
	if q.req.Threads > 0 {
		opts = append(opts, peregrine.WithThreads(q.req.Threads))
	}
	if q.req.taskRanged() {
		opts = append(opts, peregrine.WithTaskRange(q.req.TaskLo, q.req.TaskHi))
	}
	return opts
}

// run executes a non-count query on g, honoring ctx cancellation.
// Counts have one executor of their own: Coalescer.Do.
func (q *compiledQuery) run(ctx context.Context, g *graph.Graph) (*Result, error) {
	var res *Result
	var err error
	switch q.req.Kind {
	case KindExists:
		res, err = q.runExists(ctx, g)
	case KindMatches:
		if q.stream != nil {
			res, err = q.runStream(ctx, g)
		} else {
			res, err = q.runMatches(ctx, g)
		}
	case KindFSM:
		res, err = q.runFSM(ctx, g)
	}
	if err != nil {
		return nil, err
	}
	if cerr := ctx.Err(); cerr != nil {
		// Report cancellation only when the result is actually truncated:
		// a cancel racing in just after a complete run must not demote it.
		// The engine's Stopped flag is authoritative for every kind.
		if res.Stats != nil && res.Stats.Stopped {
			return res, cerr
		}
	}
	return res, nil
}

func (q *compiledQuery) runExists(ctx context.Context, g *graph.Graph) (*Result, error) {
	var found atomic.Bool
	ms, err := q.prepared.ForEach(g, func(c *peregrine.Ctx, pat int, m *peregrine.Match) {
		found.Store(true)
		c.Stop()
	}, q.options(ctx)...)
	if err != nil {
		return nil, err
	}
	f := found.Load()
	return &Result{Exists: &f, Count: ms.Matches(), Stats: q.runStats(ms)}, nil
}

func (q *compiledQuery) runMatches(ctx context.Context, g *graph.Graph) (*Result, error) {
	limit := q.req.MaxMatches
	if limit <= 0 {
		limit = DefaultMaxMatches
	}
	var mu sync.Mutex
	var matches [][]uint32
	ms, err := q.prepared.ForEach(g, func(c *peregrine.Ctx, pat int, m *peregrine.Match) {
		mu.Lock()
		if len(matches) < limit {
			matches = append(matches, m.OrigMapping(g))
		}
		full := len(matches) >= limit
		mu.Unlock()
		if full {
			c.Stop()
		}
	}, q.options(ctx)...)
	if err != nil {
		return nil, err
	}
	return &Result{Count: ms.Matches(), Matches: matches, Stats: q.runStats(ms)}, nil
}

// runStream mines matches into the job's stream channel. Engine
// workers block when the channel's backlog fills, so an unconsumed or
// slow stream throttles the mine instead of growing memory; the job's
// context (DELETE, client disconnect, shutdown) unblocks and stops
// them.
func (q *compiledQuery) runStream(ctx context.Context, g *graph.Graph) (*Result, error) {
	st := q.stream
	defer close(st.ch)
	limit := uint64(0)
	if q.req.MaxMatches > 0 {
		limit = uint64(q.req.MaxMatches)
	}
	var sent atomic.Uint64
	delivered := make([]atomic.Uint64, len(q.texts))
	ms, err := q.prepared.ForEach(g, func(c *peregrine.Ctx, pat int, m *peregrine.Match) {
		if limit > 0 {
			// Reserve a slot before sending so the cap on delivered rows
			// is exact even while concurrent workers race the stop flag.
			n := sent.Add(1)
			if n > limit {
				c.Stop()
				return
			}
			if n == limit {
				c.Stop()
			}
		}
		row := StreamMatch{Pattern: q.texts[pat], Index: pat, Mapping: m.OrigMapping(g)}
		select {
		case st.ch <- row:
			delivered[pat].Add(1)
		case <-ctx.Done():
			c.Stop()
		}
	}, q.options(ctx)...)
	if err != nil {
		return nil, err
	}
	// A stream job's counts — total and per pattern — are the rows it
	// delivered to the stream, drainable until the job's TTL, not the
	// racy engine-side tally of matches found before the stop flag
	// propagated; the engine figures stay visible under stats.
	res := &Result{Stats: q.runStats(ms)}
	for i := range delivered {
		res.Count += delivered[i].Load()
	}
	if len(q.req.Patterns) > 0 {
		res.PerPattern = make([]PatternCount, len(q.texts))
		for i, text := range q.texts {
			res.PerPattern[i] = PatternCount{Pattern: text, Count: delivered[i].Load()}
		}
	}
	return res, nil
}

func (q *compiledQuery) runFSM(ctx context.Context, g *graph.Graph) (*Result, error) {
	start := time.Now()
	opts := q.options(ctx)
	if q.req.NoSymmetryBreaking {
		opts = append(opts, peregrine.WithoutSymmetryBreaking())
	}
	r, err := peregrine.FSM(g, q.req.MaxEdges, q.req.Support, opts...)
	if err != nil {
		return nil, err
	}
	out := make([]FrequentPattern, len(r.Frequent))
	for i, fp := range r.Frequent {
		out[i] = FrequentPattern{Pattern: fp.Pattern.String(), Support: fp.Support}
	}
	threads := q.req.Threads
	if threads <= 0 {
		threads = runtime.GOMAXPROCS(0)
	}
	return &Result{
		Count:    uint64(len(out)),
		Frequent: out,
		Stats:    &RunStats{Threads: threads, Stopped: r.Stopped, MatchMicros: time.Since(start).Microseconds()},
	}, nil
}
