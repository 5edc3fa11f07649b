package baseline

import (
	"sync"

	"peregrine/internal/graph"
	"peregrine/internal/mni"
	"peregrine/internal/pattern"
)

// Application drivers for the baseline systems, mirroring the workloads
// of Tables 3–5: clique counting, motif counting, FSM, and pattern
// matching. Each returns both the answer (so tests can cross-check it
// against the pattern-aware engine) and the Figure 1 metrics.

// CliqueCountBFS counts k-cliques Arabesque-style: BFS expansion with a
// clique filter at every level. Isomorphism checks stay zero (native
// clique support), but every extension is generated and
// canonicality-checked first.
func CliqueCountBFS(g *graph.Graph, k int) (uint64, Metrics) {
	var count uint64
	m := BFS(g, BFSOptions{
		Size:   k,
		Filter: func(emb []uint32) bool { return extendsClique(g, emb) },
		Visit:  func(emb []uint32, code string) { count++ },
	})
	return count, m
}

// CliqueCountDFS counts k-cliques Fractal-style.
func CliqueCountDFS(g *graph.Graph, k int, threads int) (uint64, Metrics) {
	var mu chanCounter
	m := DFS(g, DFSOptions{
		Size:    k,
		Threads: threads,
		Filter:  func(emb []uint32) bool { return extendsClique(g, emb) },
		Visit:   func(emb []uint32, code string) { mu.inc() },
	})
	return mu.value(), m
}

// CliqueCountRStream counts k-cliques with join-based expansion.
func CliqueCountRStream(g *graph.Graph, k int) (uint64, Metrics) {
	var count uint64
	m := RStream(g, RStreamOptions{
		Size:         k,
		CliqueFilter: true,
		Visit:        func(emb []uint32, code string) { count++ },
	})
	return count, m
}

// MotifCountsBFS counts vertex-induced motifs of the given size
// Arabesque-style: every final embedding pays an isomorphism
// computation to find its pattern.
func MotifCountsBFS(g *graph.Graph, size int) (map[string]uint64, Metrics) {
	counts := make(map[string]uint64)
	m := BFS(g, BFSOptions{
		Size:     size,
		Classify: true,
		Visit:    func(emb []uint32, code string) { counts[code]++ },
	})
	return counts, m
}

// MotifCountsDFS counts motifs Fractal-style.
func MotifCountsDFS(g *graph.Graph, size int, threads int) (map[string]uint64, Metrics) {
	var mu protectedCounts
	mu.m = make(map[string]uint64)
	m := DFS(g, DFSOptions{
		Size:     size,
		Threads:  threads,
		Classify: true,
		Visit:    func(emb []uint32, code string) { mu.inc(code) },
	})
	return mu.m, m
}

// MotifCountsRStream counts motifs with join-based expansion.
func MotifCountsRStream(g *graph.Graph, size int) (map[string]uint64, Metrics) {
	counts := make(map[string]uint64)
	m := RStream(g, RStreamOptions{
		Size:     size,
		Classify: true,
		Visit:    func(emb []uint32, code string) { counts[code]++ },
	})
	return counts, m
}

// FSMBFS mines frequent labeled patterns with exactly maxEdges edges at
// the given MNI support, Arabesque-style: level-synchronous edge
// extension where every embedding of every level is materialized,
// canonicality-checked, and isomorphism-classified, and whole levels of
// embeddings plus all pattern domains are held at once. Returns the
// number of frequent patterns.
func FSMBFS(g *graph.Graph, maxEdges, support int) (int, Metrics) {
	return FSMBFSBudget(g, maxEdges, support, 0)
}

// FSMBFSBudget is FSMBFS with a cap on materialized embeddings per
// level; exceeding it aborts with reason "oom" (the paper's Arabesque
// FSM out-of-memory failures at low supports).
func FSMBFSBudget(g *graph.Graph, maxEdges, support, maxStored int) (int, Metrics) {
	var m Metrics
	n := g.NumVertices()
	type emb [][2]uint32
	var level []emb

	// Level 1: single edges.
	for u := uint32(0); u < n; u++ {
		for _, v := range g.Adj(u) {
			m.Explored++
			m.CanonicalityChecks++
			if u > v {
				continue
			}
			level = append(level, emb{{u, v}})
		}
	}
	m.noteStored(uint64(len(level)), 2)

	frequentCount := 0
	for size := 1; size <= maxEdges; size++ {
		// Classify and aggregate domains for the current level.
		domains := make(map[string]*mni.Domain)
		frequent := make(map[string]bool)
		keep := level[:0]
		for _, e := range level {
			m.IsomorphismChecks++
			p := edgePatternOfLabeled(g, e)
			code, perm := p.CanonicalForm()
			d, ok := domains[code]
			if !ok {
				d = mni.NewDomain(p.Renumber(perm), n)
				domains[code] = d
			}
			mapped := make([]uint32, p.N())
			verts, idxOf := embVertexIndex(e)
			for v, i := range idxOf {
				mapped[perm[i]] = v
			}
			_ = verts
			d.AddMatch(mapped)
			keep = append(keep, e)
		}
		for code, d := range domains {
			if d.Support() >= support {
				frequent[code] = true
			}
		}
		if size == maxEdges {
			frequentCount = len(frequent)
			break
		}
		// Prune embeddings whose pattern is infrequent
		// (anti-monotonicity), then extend the survivors by one edge.
		var next []emb
		for _, e := range keep {
			m.IsomorphismChecks++
			code := edgePatternOfLabeled(g, e).CanonicalCode()
			if !frequent[code] {
				continue
			}
			verts := embVertices(e)
			seen := make(map[[2]uint32]bool, len(e)+8)
			for _, ed := range e {
				seen[ed] = true
			}
			for _, u := range verts {
				for _, w := range g.Adj(u) {
					key := edgeKey(u, w)
					if seen[key] {
						continue
					}
					seen[key] = true
					cand := append(append(make(emb, 0, size+1), e...), key)
					m.Explored++
					m.CanonicalityChecks++
					if !edgeCanonical(cand) {
						continue
					}
					next = append(next, cand)
					if maxStored > 0 && len(next) > maxStored {
						m.noteStored(uint64(len(next)), 2*(size+1))
						m.Aborted = true
						m.AbortReason = "oom"
						return 0, m
					}
				}
			}
		}
		level = next
		m.noteStored(uint64(len(level)), 2*(size+1))
		if len(level) == 0 {
			break
		}
	}
	return frequentCount, m
}

// edgePatternOfLabeled extracts the edge-induced pattern of an edge
// embedding, with labels and with the vertex indexing embVertexIndex
// uses.
func edgePatternOfLabeled(g *graph.Graph, edges [][2]uint32) *pattern.Pattern {
	_, idxOf := embVertexIndex(edges)
	p := pattern.New(len(idxOf))
	for _, e := range edges {
		p.AddEdge(idxOf[e[0]], idxOf[e[1]])
	}
	if g.Labeled() {
		for v, i := range idxOf {
			p.SetLabel(i, pattern.Label(g.Label(v)))
		}
	}
	return p
}

func embVertexIndex(edges [][2]uint32) ([]uint32, map[uint32]int) {
	var verts []uint32
	idxOf := make(map[uint32]int)
	for _, e := range edges {
		for _, v := range e {
			if _, ok := idxOf[v]; !ok {
				idxOf[v] = len(verts)
				verts = append(verts, v)
			}
		}
	}
	return verts, idxOf
}

// chanCounter and protectedCounts are tiny mutex-guarded accumulators
// for concurrent Visit callbacks.
type chanCounter struct {
	mu muLock
	n  uint64
}

func (c *chanCounter) inc() {
	c.mu.Lock()
	c.n++
	c.mu.Unlock()
}

func (c *chanCounter) value() uint64 { return c.n }

type protectedCounts struct {
	mu muLock
	m  map[string]uint64
}

func (p *protectedCounts) inc(code string) {
	p.mu.Lock()
	p.m[code]++
	p.mu.Unlock()
}

// muLock is sync.Mutex by another name, so the small accumulators above
// read cleanly.
type muLock = sync.Mutex
