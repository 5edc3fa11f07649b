package server

// Cross-request query coalescing: a micro-batching admission layer.
// PR 5's prefix-sharing trie merges the traversals of patterns that
// arrive in ONE request; under real traffic, N independent clients
// asking overlapping motif queries against the same graph still cost N
// traversals. The coalescer turns the request stream into the pattern
// sets the engine wants to see: concurrent count queries targeting the
// same graph within a small window are admitted into one batch,
// deduplicated through the plan cache, executed as a single merged
// trie traversal (peregrine.CountEachMerged), and demultiplexed back
// to each originating job with per-request queue/execution latency and
// batch-level sharing attribution.
//
// The coalescer is also the server's only count executor: requests
// that cannot share a traversal (an explicit thread bound, a task
// range, coalescing switched off) run through the same execute as a
// batch of one that skips the window.

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"peregrine"
	"peregrine/internal/graph"
)

// Coalescing defaults: the window is the latency tax an uncontended
// query pays for the chance to share a traversal, so it stays small;
// the size caps bound how much work one flush can accumulate.
const (
	DefaultCoalesceWindow      = 2 * time.Millisecond
	DefaultCoalesceMaxRequests = 32
	coalesceMaxPatterns        = 256
)

// CoalesceConfig tunes the micro-batching admission layer. A batch
// flushes when Window has elapsed since its first member was admitted,
// or as soon as it holds MaxRequests members or coalesceMaxPatterns
// patterns.
type CoalesceConfig struct {
	Window      time.Duration // <= 0 disables coalescing entirely
	MaxRequests int           // flush at this many member requests (<= 0: default)
}

func (c CoalesceConfig) withDefaults() CoalesceConfig {
	if c.MaxRequests <= 0 {
		c.MaxRequests = DefaultCoalesceMaxRequests
	}
	return c
}

// CoalescingStats is the per-job rendering of one coalesced execution,
// surfaced as stats.coalescing in job status JSON. BatchRequests,
// BatchPatterns, and UniquePlans describe the whole batch the request
// rode in (as do the job's tasks and sharing figures — the traversal
// was shared, so its cost is batch-level); QueueMicros is this
// request's admission-to-execution wait and ExecMicros the merged
// traversal's wall time.
type CoalescingStats struct {
	Batch         string `json:"batch"`
	BatchRequests int    `json:"batchRequests"`
	BatchPatterns int    `json:"batchPatterns"`
	UniquePlans   int    `json:"uniquePlans"`
	QueueMicros   int64  `json:"queueMicros"`
	ExecMicros    int64  `json:"execMicros"`
}

// coalesceCounters are the coalescer's server-wide cumulative totals,
// reported flat through GET /v1/stats.
type coalesceCounters struct {
	requests           atomic.Uint64 // requests admitted through the coalescer
	batches            atomic.Uint64 // merged executions performed
	coalesced          atomic.Uint64 // requests that shared their batch with another
	detached           atomic.Uint64 // members cancelled before their batch delivered
	patterns           atomic.Uint64 // patterns admitted across all executed batches
	uniquePlans        atomic.Uint64 // plans left after isomorphism dedup
	traversalsSaved    atomic.Uint64 // executed batches' members beyond the first
	intersections      atomic.Uint64 // adjacency intersections performed by merged runs
	intersectionsSaved atomic.Uint64 // intersections the merges avoided
}

// doResult carries one member's demuxed outcome.
type doResult struct {
	res *Result
	err error
}

// cmember is one request riding a batch. res is buffered so the
// executor's single send never blocks on a member that detached.
type cmember struct {
	q        *compiledQuery
	enq      time.Time
	res      chan doResult
	detached bool // guarded by Coalescer.mu
}

// cbatch accumulates members for one graph until it flushes. All
// fields are guarded by Coalescer.mu; execution happens outside the
// lock on a snapshot of the live members.
type cbatch struct {
	id      string
	graph   string
	members []*cmember
	npat    int
	timer   *time.Timer
	flushed bool
	active  int // members not yet detached
	// execCancel stops the merged run once every member has detached:
	// nobody is waiting for the result, so mining on would be pure
	// waste. Set at flush time; nil while the batch is still pending.
	execCancel context.CancelFunc
}

// Coalescer groups concurrent count queries per graph into
// micro-batches. Safe for concurrent use.
type Coalescer struct {
	base context.Context
	with func(name string, fn func(*graph.Graph) error) error

	mu      sync.Mutex
	cfg     CoalesceConfig
	pending map[string]*cbatch
	seq     uint64

	counters coalesceCounters

	// morph accumulates the server-wide morphing totals: every count
	// executes here, so this is the one place that sees them all.
	morph MorphCounters
}

// NewCoalescer returns a coalescer whose merged executions descend
// from base (server shutdown aborts them) and reach graphs through with
// (Registry.With: the graph is pinned for the run, and only for it).
func NewCoalescer(base context.Context, cfg CoalesceConfig, with func(string, func(*graph.Graph) error) error) *Coalescer {
	if base == nil {
		base = context.Background()
	}
	return &Coalescer{
		base:    base,
		with:    with,
		cfg:     cfg.withDefaults(),
		pending: make(map[string]*cbatch),
	}
}

// SetConfig replaces the coalescing thresholds. Batches already
// pending flush under the thresholds they were admitted with.
func (c *Coalescer) SetConfig(cfg CoalesceConfig) {
	c.mu.Lock()
	c.cfg = cfg.withDefaults()
	c.mu.Unlock()
}

// Do runs count query q and blocks until its result is ready: it admits
// q into the micro-batch forming for its graph (starting one if none
// is) and waits for the merged execution to deliver this request's
// demuxed result. Cancelling ctx detaches the request — Do returns
// ctx.Err() immediately — without disturbing co-batched requests; only
// when every member has detached is the batch itself abandoned
// (pending) or its merged run cancelled (executing).
//
// A request that cannot ride a shared traversal — it bounds its own
// threads, scans its own task range (fanned per-shard jobs carry
// different ones), or coalescing is off — executes at once as a batch
// of one under its own options and ctx, outside the window, the
// coalescing counters and stats.coalescing.
func (c *Coalescer) Do(ctx context.Context, q *compiledQuery) (*Result, error) {
	m := &cmember{q: q, enq: time.Now(), res: make(chan doResult, 1)}
	c.mu.Lock()
	cfg := c.cfg
	if cfg.Window <= 0 || q.req.Threads != 0 || q.req.taskRanged() {
		c.mu.Unlock()
		c.execute(ctx, nil, []*cmember{m})
		r := <-m.res
		return r.res, r.err
	}
	b := c.pending[q.req.Graph]
	if b == nil {
		c.seq++
		b = &cbatch{id: fmt.Sprintf("batch-%d", c.seq), graph: q.req.Graph}
		c.pending[q.req.Graph] = b
		b.timer = time.AfterFunc(cfg.Window, func() { c.flush(b) })
	}
	b.members = append(b.members, m)
	b.active++
	b.npat += len(q.texts)
	c.counters.requests.Add(1)
	full := len(b.members) >= cfg.MaxRequests || b.npat >= coalesceMaxPatterns
	c.mu.Unlock()
	if full {
		c.flush(b)
	}
	select {
	case r := <-m.res:
		return r.res, r.err
	case <-ctx.Done():
		c.detach(b, m)
		return nil, ctx.Err()
	}
}

// flush closes b to new members and starts its merged execution with
// the members still attached. Idempotent: the window timer and a
// size-threshold admission may both call it.
func (c *Coalescer) flush(b *cbatch) {
	c.mu.Lock()
	if b.flushed {
		c.mu.Unlock()
		return
	}
	b.flushed = true
	if c.pending[b.graph] == b {
		delete(c.pending, b.graph)
	}
	b.timer.Stop()
	live := make([]*cmember, 0, len(b.members))
	for _, m := range b.members {
		if !m.detached {
			live = append(live, m)
		}
	}
	if len(live) == 0 {
		c.mu.Unlock()
		return
	}
	execCtx, cancel := context.WithCancel(c.base)
	b.execCancel = cancel
	c.mu.Unlock()
	go func() {
		defer cancel()
		c.execute(execCtx, b, live)
	}()
}

// detach unhooks a cancelled member from its batch. The batch and its
// other members are unaffected unless this was the last attached
// member, in which case the pending batch is abandoned or the running
// execution cancelled.
func (c *Coalescer) detach(b *cbatch, m *cmember) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if m.detached {
		return
	}
	m.detached = true
	b.active--
	c.counters.detached.Add(1)
	if b.active > 0 {
		return
	}
	if !b.flushed {
		b.flushed = true
		if c.pending[b.graph] == b {
			delete(c.pending, b.graph)
		}
		b.timer.Stop()
	} else if b.execCancel != nil {
		b.execCancel()
	}
}

// execute is the server's one count executor: it runs live's queries as
// a single merged traversal and demultiplexes a Result to each member.
// A member that detaches mid-run simply never reads its buffered
// result. A nil b is a batch of one outside the window: the member's
// own request options apply and no coalescing is recorded.
func (c *Coalescer) execute(ctx context.Context, b *cbatch, live []*cmember) {
	start := time.Now()
	// The callback returns an error only before anything was delivered,
	// so a failed With — unknown graph, failed load, failed run — owes
	// every member that error and nothing else.
	err := c.with(live[0].q.req.Graph, func(g *graph.Graph) error {
		queries := make([]*peregrine.PreparedQuery, len(live))
		npat := 0
		for i, m := range live {
			queries[i] = m.q.prepared
			npat += len(m.q.texts)
		}
		opts := []peregrine.Option{peregrine.WithContext(ctx)}
		if b == nil {
			opts = live[0].q.options(ctx)
		}
		per, ms, err := peregrine.CountEachMerged(g, queries, opts...)
		if err != nil {
			return err
		}
		exec := time.Since(start)

		// Even a cancelled run's morph telemetry is real work done; batch-
		// level, so observed once per execution, not once per member.
		c.morph.Observe(ms.Morph)
		if b != nil {
			c.counters.batches.Add(1)
			if len(live) > 1 {
				c.counters.coalesced.Add(uint64(len(live)))
			}
			c.counters.patterns.Add(uint64(npat))
			c.counters.uniquePlans.Add(uint64(len(ms.Per)))
			c.counters.traversalsSaved.Add(uint64(len(live) - 1))
			c.counters.intersections.Add(ms.Share.Intersections)
			c.counters.intersectionsSaved.Add(ms.Share.IntersectionsSaved)
		}

		// A cancelled run is a truncated result for every member: the result
		// rides along with the error so jobs report cancelled, not
		// done-with-wrong-counts. The engine's Stopped flag is authoritative —
		// a cancel racing in just after a complete run must not demote it.
		var rerr error
		if ms.Stopped && ctx.Err() != nil {
			rerr = ctx.Err()
		}
		for i, m := range live {
			var cs *CoalescingStats
			if b != nil {
				cs = &CoalescingStats{
					Batch:         b.id,
					BatchRequests: len(live),
					BatchPatterns: npat,
					UniquePlans:   len(ms.Per),
					QueueMicros:   start.Sub(m.enq).Microseconds(),
					ExecMicros:    exec.Microseconds(),
				}
			}
			m.res <- doResult{res: m.q.countResult(per[i], ms, cs), err: rerr}
		}
		return nil
	})
	if err != nil {
		for _, m := range live {
			m.res <- doResult{err: err}
		}
	}
}
