package peregrine

import (
	"context"
	"fmt"
	"sync/atomic"

	"peregrine/internal/fsm"
	"peregrine/internal/pattern"
)

// This file implements the paper's mining applications (Figure 4) on top
// of the pattern-first API: motif counting, clique counting, clique
// existence, and the global-clustering-coefficient existence query.

// MotifCount pairs a motif pattern with its vertex-induced match count.
type MotifCount struct {
	Pattern *Pattern
	Count   uint64
}

// MotifCounts counts the vertex-induced occurrences of every connected
// pattern with exactly size vertices (Figure 4e). Patterns are returned
// in canonical order with their counts. All motifs of the size are
// matched in a single traversal of g via the prepared multi-pattern
// path.
func MotifCounts(g *Graph, size int, opts ...Option) ([]MotifCount, error) {
	out, _, err := MotifCountsWithStats(g, size, opts...)
	return out, err
}

// MotifCountsWithStats is MotifCounts along with the batched execution
// statistics. Motif batches are the prime beneficiary of cross-pattern
// traversal sharing — all k-motifs explore heavily overlapping ordered
// views — and MultiStats.Share quantifies the intersections saved.
func MotifCountsWithStats(g *Graph, size int, opts ...Option) ([]MotifCount, MultiStats, error) {
	if size < 2 {
		return nil, MultiStats{}, fmt.Errorf("peregrine: motif size %d < 2", size)
	}
	motifs := pattern.GenerateAllVertexInduced(size)
	vind := make([]*Pattern, len(motifs))
	for i, m := range motifs {
		vind[i] = pattern.VertexInduced(m)
	}
	counts, ms, err := CountManyWithStats(g, vind, opts...)
	if err != nil {
		return nil, MultiStats{}, err
	}
	out := make([]MotifCount, len(motifs))
	for i, m := range motifs {
		out[i] = MotifCount{Pattern: m, Count: counts[i]}
	}
	return out, ms, nil
}

// LabeledMotifCounts counts vertex-induced occurrences of every motif of
// the given size for every discovered labeling (the labeled 3-/4-motif
// workloads of §6.1). Counts are keyed by the canonical code of the
// labeled pattern; the pattern for each code is also returned. Labels are
// discovered as FSM discovers them (§3.2.1), by the same routine: the
// unlabeled motifs are matched and each thread counts its matches by
// motif and labels; each labeling is canonicalized once. The motifs' plans
// are built for this call, not taken from the plan cache. A census cut
// short by WithContext or WithDeadline returns the context's error or
// context.DeadlineExceeded, and no counts.
func LabeledMotifCounts(g *Graph, size int, opts ...Option) (map[string]MotifCount, error) {
	if size < 2 {
		return nil, fmt.Errorf("peregrine: motif size %d < 2", size)
	}
	if !g.Labeled() {
		return nil, fmt.Errorf("peregrine: labeled motif counting requires a labeled graph")
	}
	motifs := pattern.GenerateAllVertexInduced(size)
	vind := make([]*Pattern, len(motifs))
	for i, m := range motifs {
		vind[i] = pattern.VertexInduced(m)
	}
	cfg := buildConfig(opts)
	out := make(map[string]MotifCount)
	stopped, err := fsm.Discover(g, vind, motifs, cfg.opts, func(n *uint64, _ []int, _ *Match) {
		*n++
	}, func(labeled *Pattern, code string, _ []int, n *uint64) {
		mc := out[code]
		if mc.Pattern == nil {
			mc.Pattern = labeled
		}
		mc.Count += *n
		out[code] = mc
	})
	if err != nil {
		return nil, err
	}
	if stopped {
		// Nothing in the callback stops the run: a context or the
		// deadline cut the census short, and a partial census is none.
		if ctx := cfg.opts.Context; ctx != nil && ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, context.DeadlineExceeded
	}
	return out, nil
}

// CliqueCount counts the k-cliques of g (Figure 4d).
func CliqueCount(g *Graph, k int, opts ...Option) (uint64, error) {
	if k < 2 {
		return 0, fmt.Errorf("peregrine: clique size %d < 2", k)
	}
	return Count(g, pattern.Clique(k), opts...)
}

// CliqueExists reports whether g contains a k-clique, stopping at the
// first one found (Figure 4f).
func CliqueExists(g *Graph, k int, opts ...Option) (bool, error) {
	if k < 2 {
		return false, fmt.Errorf("peregrine: clique size %d < 2", k)
	}
	return Exists(g, pattern.Clique(k), opts...)
}

// TriangleCount counts triangles.
func TriangleCount(g *Graph, opts ...Option) (uint64, error) {
	return CliqueCount(g, 3, opts...)
}

// WedgeCount counts edge-induced 3-stars (paths of length two). The
// number of connected triplets equals twice this count only after
// accounting for the symmetry of the endpoints; see
// GlobalClusteringCoefficient.
func WedgeCount(g *Graph, opts ...Option) (uint64, error) {
	return Count(g, pattern.Star(3), opts...)
}

// GlobalClusteringCoefficient computes 3·triangles / triplets exactly.
func GlobalClusteringCoefficient(g *Graph, opts ...Option) (float64, error) {
	wedges, err := WedgeCount(g, opts...)
	if err != nil {
		return 0, err
	}
	if wedges == 0 {
		return 0, nil
	}
	tris, err := TriangleCount(g, opts...)
	if err != nil {
		return 0, err
	}
	return 3 * float64(tris) / float64(wedges), nil
}

// GlobalClusteringCoefficientExceeds reports whether the global
// clustering coefficient exceeds bound, terminating triangle counting as
// soon as enough triangles have been seen (Figure 4b). The triplet count
// is computed first from the 3-star count; triangle exploration then
// stops early once 3·triangles/triplets > bound.
func GlobalClusteringCoefficientExceeds(g *Graph, bound float64, opts ...Option) (bool, error) {
	wedges, err := WedgeCount(g, opts...)
	if err != nil {
		return false, err
	}
	if wedges == 0 {
		return false, nil
	}
	need := uint64(bound*float64(wedges)/3) + 1 // triangles required to exceed the bound
	var seen atomic.Uint64
	_, err = ForEachMatch(g, pattern.Clique(3), func(ctx *Ctx, m *Match) {
		if seen.Add(1) >= need {
			ctx.Stop()
		}
	}, opts...)
	return seen.Load() >= need, err
}

// EdgeCount counts single-edge matches; mostly useful to sanity-check a
// freshly loaded graph (it must equal Graph.NumEdges).
func EdgeCount(g *Graph, opts ...Option) (uint64, error) {
	return Count(g, pattern.Chain(2), opts...)
}
