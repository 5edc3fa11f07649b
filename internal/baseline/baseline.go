// Package baseline reimplements the exploration strategies of the
// pattern-oblivious graph mining systems the paper compares against:
//
//   - Arabesque (SOSP'15): breadth-first, level-synchronous embedding
//     expansion with per-embedding canonicality checks and isomorphism
//     checks, holding whole embedding levels in memory (bfs.go);
//   - Fractal (SIGMOD'19): the same step-by-step expansion performed
//     depth-first, trading the memory footprint for the same number of
//     explored embeddings (dfs.go);
//   - RStream (OSDI'18): relational join-based expansion that
//     materializes tuple tables and defers pruning, producing far more
//     intermediate tuples (rstream.go);
//   - G-Miner (EuroSys'18): a task-oriented system whose tasks carry
//     materialized subgraph containers through a queue (gminer.go).
//
// These are in-process Go reproductions of each system's *strategy* and
// bookkeeping, not ports: the paper's Figure 1 argument is that
// step-by-step, pattern-oblivious exploration inherently generates
// orders of magnitude more partial matches and checks than pattern-aware
// exploration, and that property is preserved here. Every enumerator is
// instrumented with the counters profiled in Figure 1: embeddings
// explored, canonicality checks, isomorphism checks, and peak stored
// embeddings (the Figure 13 memory proxy).
package baseline

import (
	"peregrine/internal/graph"
	"peregrine/internal/pattern"
)

// Metrics are the Figure 1 profiling counters.
type Metrics struct {
	Explored           uint64 // partial + complete embeddings generated
	CanonicalityChecks uint64
	IsomorphismChecks  uint64
	Results            uint64 // embeddings surviving to the final level
	PeakStored         uint64 // max embeddings resident at once
	PeakStoredBytes    uint64 // PeakStored × embedding footprint

	// Aborted is set when the run exceeded its resource budget — the
	// in-process analogue of the paper's "ran out of memory" (—) and
	// "did not finish" (×) table cells. AbortReason is "oom" or "limit".
	Aborted     bool
	AbortReason string

	lastPublished uint64 // worker-local scratch for budget accounting
}

// Add folds other into m.
func (m *Metrics) Add(other Metrics) {
	m.Explored += other.Explored
	m.CanonicalityChecks += other.CanonicalityChecks
	m.IsomorphismChecks += other.IsomorphismChecks
	m.Results += other.Results
	if other.PeakStored > m.PeakStored {
		m.PeakStored = other.PeakStored
	}
	if other.PeakStoredBytes > m.PeakStoredBytes {
		m.PeakStoredBytes = other.PeakStoredBytes
	}
	if other.Aborted {
		m.Aborted = true
		m.AbortReason = other.AbortReason
	}
}

// isCanonical reports whether the embedding sequence is the
// lexicographically smallest connected ordering of its vertex set —
// Arabesque's per-embedding uniqueness filter. The greedy construction
// (start at the smallest vertex, repeatedly append the smallest vertex
// adjacent to the prefix) yields the lex-min connected ordering; the
// embedding is canonical iff it equals that ordering.
func isCanonical(g *graph.Graph, emb []uint32) bool {
	if len(emb) <= 1 {
		return true
	}
	minIdx := 0
	for i, v := range emb {
		if v < emb[minIdx] {
			minIdx = i
		}
	}
	if emb[0] != emb[minIdx] {
		return false
	}
	used := make([]bool, len(emb))
	used[minIdx] = true
	prefix := []uint32{emb[minIdx]}
	for pos := 1; pos < len(emb); pos++ {
		best := -1
		for i, v := range emb {
			if used[i] {
				continue
			}
			adjacent := false
			for _, p := range prefix {
				if g.HasEdge(p, v) {
					adjacent = true
					break
				}
			}
			if !adjacent {
				continue
			}
			if best == -1 || v < emb[best] {
				best = i
			}
		}
		if best == -1 {
			return false // disconnected embedding cannot be canonical
		}
		if emb[pos] != emb[best] {
			return false
		}
		used[best] = true
		prefix = append(prefix, emb[best])
	}
	return true
}

// patternOf extracts the vertex-induced pattern of an embedding — the
// isomorphism computation pattern-oblivious systems run on explored
// subgraphs to identify their structure. Labels are copied when the
// graph is labeled.
func patternOf(g *graph.Graph, emb []uint32) *pattern.Pattern {
	p := pattern.New(len(emb))
	for i := range emb {
		for j := i + 1; j < len(emb); j++ {
			if g.HasEdge(emb[i], emb[j]) {
				p.AddEdge(i, j)
			}
		}
		if g.Labeled() {
			p.SetLabel(i, pattern.Label(g.Label(emb[i])))
		}
	}
	return p
}

// isClique reports whether the embedding's last vertex closes a clique
// with all earlier vertices (the incremental filter used by clique
// applications in Arabesque/Fractal/RStream).
func extendsClique(g *graph.Graph, emb []uint32) bool {
	last := emb[len(emb)-1]
	for _, v := range emb[:len(emb)-1] {
		if !g.HasEdge(v, last) {
			return false
		}
	}
	return true
}
