package baseline

import (
	"peregrine/internal/graph"
)

// BFSOptions configures the Arabesque-style breadth-first enumerator.
type BFSOptions struct {
	// Size is the target embedding size in vertices.
	Size int
	// Filter, if non-nil, prunes canonical embeddings before they are
	// stored for the next level (e.g. the clique filter). It does not
	// reduce the Explored count — the embedding was already generated,
	// which is the paper's point about wasted step-by-step exploration.
	Filter func(emb []uint32) bool
	// Classify, if true, performs an isomorphism computation on every
	// final embedding (pattern extraction, as motif counting and FSM do).
	Classify bool
	// Visit, if non-nil, receives every final canonical embedding and,
	// when Classify is set, its pattern's canonical code.
	Visit func(emb []uint32, code string)
	// MaxStored aborts the run (Metrics.Aborted, reason "oom") when a
	// level exceeds this many materialized embeddings, standing in for
	// the paper's out-of-memory failures of BFS systems. 0 = unlimited.
	MaxStored int
}

// BFS explores all connected vertex-induced embeddings of the given
// size level by level, the way Arabesque's filter-process model does:
// every embedding of level k is extended by every adjacent vertex, each
// generated embedding is canonicality-checked, and surviving embeddings
// are materialized for the next superstep. The whole level is held in
// memory, which is what drives Arabesque's memory footprint in
// Figure 13.
func BFS(g *graph.Graph, opt BFSOptions) Metrics {
	var m Metrics
	n := g.NumVertices()
	if opt.Size < 1 || n == 0 {
		return m
	}
	// Level 1: single vertices.
	level := make([][]uint32, 0, n)
	for v := uint32(0); v < n; v++ {
		emb := []uint32{v}
		m.Explored++
		m.CanonicalityChecks++ // trivially canonical
		level = append(level, emb)
	}
	m.noteStored(uint64(len(level)), 1)

	var extBuf []uint32
	for size := 2; size <= opt.Size; size++ {
		var next [][]uint32
		for _, emb := range level {
			extBuf = extensionSet(g, emb, extBuf[:0])
			for _, w := range extBuf {
				cand := append(append(make([]uint32, 0, size), emb...), w)
				m.Explored++
				m.CanonicalityChecks++
				if !isCanonical(g, cand) {
					continue
				}
				if opt.Filter != nil && !opt.Filter(cand) {
					continue
				}
				next = append(next, cand)
				// Enforce the budget as the level materializes, not after:
				// a single over-budget superstep is exactly the OOM these
				// systems hit in the paper.
				if opt.MaxStored > 0 && len(next) > opt.MaxStored {
					m.noteStored(uint64(len(next)), size)
					m.Aborted = true
					m.AbortReason = "oom"
					return m
				}
			}
		}
		level = next
		m.noteStored(uint64(len(level)), size)
	}

	m.Results = uint64(len(level))
	for _, emb := range level {
		code := ""
		if opt.Classify {
			m.IsomorphismChecks++
			code = patternOf(g, emb).CanonicalCode()
		}
		if opt.Visit != nil {
			opt.Visit(emb, code)
		}
	}
	return m
}

// noteStored records a level's residency for the memory accounting.
func (m *Metrics) noteStored(count uint64, size int) {
	if count > m.PeakStored {
		m.PeakStored = count
	}
	bytes := count * uint64(size) * 4
	if bytes > m.PeakStoredBytes {
		m.PeakStoredBytes = bytes
	}
}

func containsVertex(emb []uint32, v uint32) bool {
	for _, u := range emb {
		if u == v {
			return true
		}
	}
	return false
}

// extensionSet returns the deduplicated union of the embedding members'
// neighborhoods, minus the members themselves — the extension candidates
// Arabesque computes per embedding. Adjacency lists are sorted, so a
// k-way merge produces the set without hashing.
func extensionSet(g *graph.Graph, emb []uint32, buf []uint32) []uint32 {
	idx := make([]int, len(emb))
	for {
		best := int64(-1)
		for i, v := range emb {
			adj := g.Adj(v)
			if idx[i] < len(adj) {
				if x := int64(adj[idx[i]]); best == -1 || x < best {
					best = x
				}
			}
		}
		if best == -1 {
			return buf
		}
		w := uint32(best)
		for i, v := range emb {
			adj := g.Adj(v)
			if idx[i] < len(adj) && adj[idx[i]] == w {
				idx[i]++
			}
		}
		if !containsVertex(emb, w) {
			buf = append(buf, w)
		}
	}
}

func edgeKey(u, v uint32) [2]uint32 {
	if u < v {
		return [2]uint32{u, v}
	}
	return [2]uint32{v, u}
}

func embVertices(edges [][2]uint32) []uint32 {
	var out []uint32
	for _, e := range edges {
		for _, v := range e {
			if !containsVertex(out, v) {
				out = append(out, v)
			}
		}
	}
	return out
}

// edgeCanonical reports whether the edge sequence is the lex-min
// connected ordering of its edge set — the edge-extension analogue of
// isCanonical.
func edgeCanonical(edges [][2]uint32) bool {
	k := len(edges)
	if k <= 1 {
		return true
	}
	used := make([]bool, k)
	var prefixVerts []uint32
	for pos := 0; pos < k; pos++ {
		best := -1
		for i, e := range edges {
			if used[i] {
				continue
			}
			if pos > 0 && !containsVertex(prefixVerts, e[0]) && !containsVertex(prefixVerts, e[1]) {
				continue // would disconnect the prefix
			}
			if best == -1 || edgeLess(e, edges[best]) {
				best = i
			}
		}
		if best == -1 {
			return false
		}
		if edges[pos] != edges[best] {
			return false
		}
		used[best] = true
		if !containsVertex(prefixVerts, edges[best][0]) {
			prefixVerts = append(prefixVerts, edges[best][0])
		}
		if !containsVertex(prefixVerts, edges[best][1]) {
			prefixVerts = append(prefixVerts, edges[best][1])
		}
	}
	return true
}

func edgeLess(a, b [2]uint32) bool {
	if a[0] != b[0] {
		return a[0] < b[0]
	}
	return a[1] < b[1]
}
