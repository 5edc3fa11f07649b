package server

// GET /v1/stats: server-wide cumulative counters in one flat struct —
// no nesting, so the JSON maps 1:1 onto a CSV row or a scrape target.
// Everything here is monotonic over the server's lifetime except the
// registry gauges (graphsLoaded, graphsPinned, registryResidentBytes),
// which are point-in-time.

import (
	"sync"

	"peregrine/internal/core"
)

// MorphCounters accumulate pattern-morphing totals across every count
// execution, so GET /v1/stats shows one server-wide view of how much
// the morphing layer rewrote. A coordinator keeps its own: it rewrites
// above the fan-out, where no node's counters see it.
type MorphCounters struct {
	mu    sync.Mutex
	runs  uint64          // executions where morphing rewrote the batch
	total core.MorphStats // their summed telemetry
}

// Observe folds one run's morph telemetry into the totals; a run that
// morphing left as given is a no-op.
func (m *MorphCounters) Observe(st core.MorphStats) {
	if !st.Active() {
		return
	}
	m.mu.Lock()
	m.runs++
	m.total.Add(st)
	m.mu.Unlock()
}

// AddTo adds the totals to st's morph* counters.
func (m *MorphCounters) AddTo(st *ServerStats) {
	m.mu.Lock()
	runs, mt := m.runs, m.total
	m.mu.Unlock()
	st.MorphRuns += runs
	st.MorphCandidates += mt.Candidates
	st.MorphsChosen += mt.MorphsChosen
	st.MorphPatternsReplaced += mt.PatternsReplaced
	st.MorphRecoveryTerms += mt.RecoveryTerms
	st.MorphStepsDirect += mt.StepsDirect
	st.MorphStepsMorphed += mt.StepsMorphed
	st.MorphDecomposed += mt.Decomposed
}

// ServerStats is the body of GET /v1/stats.
type ServerStats struct {
	// Coalescer totals. CoalesceRequests counts count-query admissions
	// into the micro-batching layer; CoalesceBatches counts merged
	// traversals executed, so requests minus batches is traversal work
	// the server never did. CoalesceCoalesced counts the requests that
	// actually shared their batch with at least one other;
	// CoalesceDetached counts members cancelled out of a batch before
	// delivery (their co-members were unaffected).
	CoalesceBatches            uint64 `json:"coalesceBatches"`
	CoalesceRequests           uint64 `json:"coalesceRequests"`
	CoalesceCoalesced          uint64 `json:"coalesceCoalesced"`
	CoalesceDetached           uint64 `json:"coalesceDetached"`
	CoalescePatterns           uint64 `json:"coalescePatterns"`
	CoalesceUniquePlans        uint64 `json:"coalesceUniquePlans"`
	CoalesceTraversalsSaved    uint64 `json:"coalesceTraversalsSaved"`
	CoalesceIntersections      uint64 `json:"coalesceIntersections"`
	CoalesceIntersectionsSaved uint64 `json:"coalesceIntersectionsSaved"`

	// Morphing totals across every count execution (direct and
	// coalesced). MorphRuns counts executions whose batch was rewritten;
	// MorphStepsDirect minus MorphStepsMorphed is the share-trie program
	// work the rewrites avoided; MorphDecomposed counts the plans they ran
	// decomposed at a vertex cut.
	MorphRuns             uint64 `json:"morphRuns"`
	MorphCandidates       uint64 `json:"morphCandidates"`
	MorphsChosen          uint64 `json:"morphsChosen"`
	MorphPatternsReplaced uint64 `json:"morphPatternsReplaced"`
	MorphRecoveryTerms    uint64 `json:"morphRecoveryTerms"`
	MorphStepsDirect      uint64 `json:"morphStepsDirect"`
	MorphStepsMorphed     uint64 `json:"morphStepsMorphed"`
	MorphDecomposed       uint64 `json:"morphDecomposed"`

	// Plan-cache totals for this server's own cache handle.
	PlanCacheHits    uint64  `json:"planCacheHits"`
	PlanCacheMisses  uint64  `json:"planCacheMisses"`
	PlanCacheHitRate float64 `json:"planCacheHitRate"`
	PlanCacheEntries int     `json:"planCacheEntries"`

	// Registry gauges.
	GraphsRegistered      int    `json:"graphsRegistered"`
	GraphsLoaded          int    `json:"graphsLoaded"`
	GraphsPinned          int    `json:"graphsPinned"`
	RegistryResidentBytes uint64 `json:"registryResidentBytes"`

	// Fragments of sharded graphs, which load and evict whole:
	// ShardsTotal counts those of the graphs loaded now, ShardLoads
	// every fragment a load has mapped and ShardEvictions every one the
	// memory budget has unmapped since the registry was created.
	ShardsTotal    int    `json:"shardsTotal"`
	ShardLoads     uint64 `json:"shardLoads"`
	ShardEvictions uint64 `json:"shardEvictions"`
}

// Stats assembles the server-wide counter snapshot.
func (s *Server) Stats() ServerStats {
	var st ServerStats
	cc := &s.coalescer.counters
	st.CoalesceBatches = cc.batches.Load()
	st.CoalesceRequests = cc.requests.Load()
	st.CoalesceCoalesced = cc.coalesced.Load()
	st.CoalesceDetached = cc.detached.Load()
	st.CoalescePatterns = cc.patterns.Load()
	st.CoalesceUniquePlans = cc.uniquePlans.Load()
	st.CoalesceTraversalsSaved = cc.traversalsSaved.Load()
	st.CoalesceIntersections = cc.intersections.Load()
	st.CoalesceIntersectionsSaved = cc.intersectionsSaved.Load()

	s.coalescer.morph.AddTo(&st)

	hits, misses := s.plans.Stats()
	st.PlanCacheHits = hits
	st.PlanCacheMisses = misses
	if total := hits + misses; total > 0 {
		st.PlanCacheHitRate = float64(hits) / float64(total)
	}
	st.PlanCacheEntries = s.plans.Len()

	st.GraphsRegistered, st.GraphsLoaded, st.GraphsPinned, st.RegistryResidentBytes = s.registry.Counters()

	st.ShardsTotal, st.ShardLoads, st.ShardEvictions = s.registry.ShardCounters()
	return st
}
