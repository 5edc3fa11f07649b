// Package graph provides the data-graph substrate for the Peregrine
// matching engine: a compressed sparse row (CSR) representation with
// sorted adjacency lists, optional vertex labels, and a degree-based
// vertex ordering.
//
// Vertex identifiers are dense uint32 values in [0, NumVertices).
// After Build, ids are assigned in non-decreasing degree order, i.e.
// u < v implies deg(u) <= deg(v). This property is load-bearing: the
// engine's symmetry-breaking partial orders compare data-vertex ids
// directly, and the paper's §5.2 load-balancing scheme ("order vertices
// by their degree") becomes a simple integer comparison.
//
// A graph may instead carry ids in non-increasing degree order (hubs
// first), recorded by a flag in the .pgr header and shard manifest:
// files written that way still load. Either direction is a total order
// by degree, so counts and match sets are identical — only layout and
// traversal order change. DegreeDescending reports which direction a
// graph uses.
package graph

import (
	"fmt"
	"sort"
	"sync"

	"peregrine/internal/bitset"
)

// NoLabel marks an unlabeled vertex.
const NoLabel uint32 = 0xFFFFFFFF

// rows is a CSR over the contiguous vertex range [lo, lo+len(offsets)-1):
// the one shape graph storage takes. A whole graph is one of these with
// lo 0; a shard fragment file is one; a sharded graph is several, end to
// end.
type rows struct {
	lo      uint32   // first vertex held
	offsets []uint64 // len = held+1, local: adjacency of v is adj[offsets[v-lo]:offsets[v-lo+1]]
	adj     []uint32 // concatenated sorted adjacency lists; neighbor ids are global
	labels  []uint32 // per-vertex label, nil when the graph is unlabeled
	origID  []uint32 // id -> original id from the input, nil when they are equal

	// release unmaps the file behind mapped rows (see loadImage); nil
	// for heap-backed rows. Consumed by Graph.Close.
	release func() error
}

// hi returns one past the last vertex held.
func (p *rows) hi() uint32 { return p.lo + uint32(len(p.offsets)-1) }

// Graph is an immutable undirected data graph in CSR form.
//
// The zero value is an empty graph. Construct instances with Build,
// FromEdges, or the loaders in this package.
type Graph struct {
	// stat holds the whole-graph counts; the rows never need consulting
	// for them. DegreeDesc records ids assigned in non-increasing degree
	// order (a file's desc flag) rather than Build's default.
	stat Stat

	// pieces hold the rows, ascending and contiguous from vertex 0: one
	// for a whole graph, one per fragment file for a manifest-backed
	// graph (sharded, see LoadSharded). Immutable until Close, so readers
	// need no synchronization.
	pieces  []rows
	sharded bool

	// hubBits[v] is the compressed-bitmap form of v's adjacency for
	// vertices at or above the BuildHubBitsets degree threshold, nil
	// elsewhere; the whole slice is nil when hub bitsets are disabled.
	// hubBytes is their total heap footprint for Bytes accounting. The
	// engine never reads them.
	hubBits  []*bitset.Bitmap
	hubBytes uint64

	// moments memoises DegreeMoments and MaxDegree: the rows are
	// immutable, so one pass over the offsets serves every later call.
	moments struct {
		once         sync.Once
		mean, meanSq float64
		max          uint32
	}
}

// NumVertices returns |V(G)|.
func (g *Graph) NumVertices() uint32 { return g.stat.Vertices }

// NumEdges returns |E(G)| counting each undirected edge once.
func (g *Graph) NumEdges() uint64 { return g.stat.Edges }

// Labeled reports whether the graph carries vertex labels.
func (g *Graph) Labeled() bool { return g.stat.Labeled }

// NumLabels returns the number of distinct labels, or 0 for unlabeled graphs.
func (g *Graph) NumLabels() int { return g.stat.Labels }

// rowsOf returns the piece holding v — the one point where a vertex is
// routed to its storage: piece 0 when there is one, otherwise the last
// piece starting at or below v, found by scanning the bounds downwards.
// Adj, Label, Degree and OrigID are the engine's innermost calls and
// must stay inlinable with this inlined into them (scripts/analyze.sh
// checks), which is why the scan is a bare loop.
func (g *Graph) rowsOf(v uint32) *rows {
	i := len(g.pieces) - 1
	for i > 0 && g.pieces[i].lo > v {
		i--
	}
	return &g.pieces[i]
}

// Label returns the label of v, or NoLabel for unlabeled graphs.
func (g *Graph) Label(v uint32) uint32 {
	p := g.rowsOf(v)
	if p.labels == nil {
		return NoLabel
	}
	return p.labels[v-p.lo]
}

// Adj returns the sorted adjacency list of v. The returned slice is a
// view into the graph's storage: it must not be modified, and is valid
// until Close.
func (g *Graph) Adj(v uint32) []uint32 {
	p := g.rowsOf(v)
	return p.adj[p.offsets[v-p.lo]:p.offsets[v-p.lo+1]]
}

// Degree returns the number of neighbors of v.
func (g *Graph) Degree(v uint32) uint32 {
	p := g.rowsOf(v)
	return uint32(p.offsets[v-p.lo+1] - p.offsets[v-p.lo])
}

// OrigID maps a degree-ordered vertex id back to the id used in the input.
func (g *Graph) OrigID(v uint32) uint32 {
	p := g.rowsOf(v)
	if p.origID == nil {
		return v
	}
	return p.origID[v-p.lo]
}

// HasEdge reports whether the undirected edge (u, v) exists, using
// binary search on the smaller adjacency list.
func (g *Graph) HasEdge(u, v uint32) bool {
	au, av := g.Adj(u), g.Adj(v)
	if len(au) > len(av) {
		return contains(av, u)
	}
	return contains(au, v)
}

// MaxDegree returns the maximum vertex degree. It is read off the
// degrees themselves, in DegreeMoments' pass, never off an end of the id
// order: a loaded file's ids need only form a valid CSR.
func (g *Graph) MaxDegree() uint32 {
	g.degreePass()
	return g.moments.max
}

// DegreeDescending reports whether vertex ids are assigned in
// non-increasing degree order (hubs first, as a file carrying the desc
// flag records). Build's default is non-decreasing (false).
func (g *Graph) DegreeDescending() bool { return g.stat.DegreeDesc }

// hubDenseChunkMin is the per-chunk cardinality at which hub bitmaps
// use dense (bitmap-mode) chunks instead of sorted 16-bit arrays,
// trading space for O(1) membership well below the Roaring space
// break-even of 4096.
const hubDenseChunkMin = 512

// BuildHubBitsets materializes compressed-bitmap adjacency for every
// vertex of degree >= minDeg and returns how many vertices got one; the
// sorted CSR lists are unaffected. minDeg 0 disables (and drops any
// existing bitsets). Not concurrency-safe with graph use — call it at
// load time, like Close.
// It stays only for the benchmark ladder's layout and bitset rungs.
func (g *Graph) BuildHubBitsets(minDeg uint32) int {
	g.hubBits, g.hubBytes = nil, 0
	if minDeg == 0 {
		return 0
	}
	n := g.NumVertices()
	var hubs []*bitset.Bitmap
	count := 0
	var bytes uint64
	for v := uint32(0); v < n; v++ {
		if g.Degree(v) < minDeg {
			continue
		}
		if hubs == nil {
			hubs = make([]*bitset.Bitmap, n)
		}
		b := bitset.FromSortedDense(g.Adj(v), hubDenseChunkMin)
		hubs[v] = b
		bytes += uint64(b.SizeBytes())
		count++
	}
	g.hubBits, g.hubBytes = hubs, bytes
	return count
}

// HubBits returns the compressed-bitmap adjacency of v, or nil when v
// is below the hub threshold or hub bitsets are disabled.
// It stays only for the benchmark ladder's bitset rung.
func (g *Graph) HubBits(v uint32) *bitset.Bitmap {
	if g.hubBits == nil {
		return nil
	}
	return g.hubBits[v]
}

// AvgDegree returns the average vertex degree.
func (g *Graph) AvgDegree() float64 {
	n := g.NumVertices()
	if n == 0 {
		return 0
	}
	return float64(2*g.NumEdges()) / float64(n)
}

// DegreeMoments returns the mean degree and the mean squared degree, the
// two moments a planner needs to predict how fast a traversal branches.
// The first call makes one pass over the offsets of every piece; later
// calls, from any goroutine, return the memoised figures.
func (g *Graph) DegreeMoments() (mean, meanSq float64) {
	g.degreePass()
	return g.moments.mean, g.moments.meanSq
}

// degreePass fills g.moments on its first call.
func (g *Graph) degreePass() {
	m := &g.moments
	m.once.Do(func() {
		n := g.NumVertices()
		if n == 0 {
			return
		}
		var sum, sumSq float64
		for i := range g.pieces {
			off := g.pieces[i].offsets
			for j := 1; j < len(off); j++ {
				deg := off[j] - off[j-1]
				d := float64(deg)
				sum += d
				sumSq += d * d
				m.max = max(m.max, uint32(deg))
			}
		}
		m.mean, m.meanSq = sum/float64(n), sumSq/float64(n)
	})
}

// Bytes returns the resident size of the graph's CSR arrays — for
// mapped rows, the size of the mapping less its header — plus any hub
// bitsets. Registries use it for memory-budget accounting.
func (g *Graph) Bytes() uint64 {
	total := g.hubBytes
	for i := range g.pieces {
		p := &g.pieces[i]
		total += 8*uint64(len(p.offsets)) + 4*uint64(len(p.adj)+len(p.labels)+len(p.origID))
	}
	return total
}

// Close releases the graph's storage — every mapped file behind it is
// unmapped (LoadBinary's one, LoadSharded's one per fragment) — and
// leaves the zero Graph, so a use after Close sees an empty graph
// instead of faulting on unmapped pages: views returned by Adj are dead.
// Close is idempotent but not concurrency-safe with graph use: callers
// that share a graph must pin it (see internal/server's registry).
func (g *Graph) Close() error {
	var first error
	for i := range g.pieces {
		if rel := g.pieces[i].release; rel != nil {
			if err := rel(); err != nil && first == nil {
				first = err
			}
		}
	}
	*g = Graph{}
	return first
}

// RenumberDescending returns a copy of g with vertex ids reassigned in
// non-increasing degree order: hubs get the lowest ids, ties broken by
// the current id so the permutation is deterministic. Labels move with
// their vertices and OrigID composes through the permutation, so the
// result names exactly the same underlying graph — counts and
// OrigID-mapped match streams are identical to g's (the engine's
// symmetry breaking only needs *a* total order). The copy is
// heap-backed regardless of g's backing — a sharded g comes back whole —
// and carries no hub bitsets. The error is always nil.
// It stays only for the benchmark ladder's layout rungs.
func RenumberDescending(g *Graph) (*Graph, error) {
	n := g.NumVertices()
	order := make([]uint32, n) // new id -> old id
	for i := range order {
		order[i] = uint32(i)
	}
	sort.Slice(order, func(i, j int) bool {
		a, c := order[i], order[j]
		da, dc := g.Degree(a), g.Degree(c)
		if da != dc {
			return da > dc
		}
		return a < c
	})
	rename := make([]uint32, n) // old id -> new id
	for newID, o := range order {
		rename[o] = uint32(newID)
	}

	out := &Graph{stat: g.stat, pieces: make([]rows, 1)}
	out.stat.DegreeDesc = true
	offsets := make([]uint64, n+1)
	var w uint64
	for v := uint32(0); v < n; v++ {
		offsets[v] = w
		w += uint64(g.Degree(order[v]))
	}
	offsets[n] = w
	adj := make([]uint32, w)
	for v := uint32(0); v < n; v++ {
		dst := adj[offsets[v]:offsets[v+1]]
		for i, o := range g.Adj(order[v]) {
			dst[i] = rename[o]
		}
		sort.Slice(dst, func(i, j int) bool { return dst[i] < dst[j] })
	}
	p := &out.pieces[0]
	p.offsets, p.adj = offsets, adj

	if g.Labeled() {
		p.labels = make([]uint32, n)
		for v := uint32(0); v < n; v++ {
			p.labels[v] = g.Label(order[v])
		}
	}
	// Compose OrigID: new id -> old id -> original input id.
	p.origID = make([]uint32, n)
	for v := uint32(0); v < n; v++ {
		p.origID[v] = g.OrigID(order[v])
	}
	return out, nil
}

// String summarizes the graph for diagnostics.
func (g *Graph) String() string {
	if g.Labeled() {
		return fmt.Sprintf("graph{V=%d E=%d L=%d}", g.NumVertices(), g.NumEdges(), g.NumLabels())
	}
	return fmt.Sprintf("graph{V=%d E=%d}", g.NumVertices(), g.NumEdges())
}

// contains reports whether sorted slice s contains x.
func contains(s []uint32, x uint32) bool {
	lo, hi := 0, len(s)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(s) && s[lo] == x
}

// Contains reports whether the sorted slice s contains x. It is exported
// for use by the matching engine and baselines operating on Adj views.
func Contains(s []uint32, x uint32) bool { return contains(s, x) }

// Edge is an undirected edge between original (input) vertex ids.
type Edge struct {
	Src, Dst uint32
}

// Builder accumulates edges and labels, then produces a Graph with
// degree-ordered vertex ids. Duplicate edges and self-loops are dropped.
type Builder struct {
	edges  []Edge
	labels map[uint32]uint32
	maxID  uint32
	hasAny bool
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder {
	return &Builder{labels: make(map[uint32]uint32)}
}

// AddEdge records the undirected edge (u, v) between original ids.
// Self-loops are ignored.
func (b *Builder) AddEdge(u, v uint32) {
	if u == v {
		return
	}
	b.edges = append(b.edges, Edge{u, v})
	if u > b.maxID {
		b.maxID = u
	}
	if v > b.maxID {
		b.maxID = v
	}
	b.hasAny = true
}

// SetLabel records the label of original vertex id u.
func (b *Builder) SetLabel(u uint32, label uint32) {
	b.labels[u] = label
	if u > b.maxID {
		b.maxID = u
	}
	b.hasAny = true
}

// Build finalizes the graph: duplicate edges are removed, vertices are
// renamed so ids are sorted by (deduplicated degree, original id), and
// adjacency lists are sorted.
func (b *Builder) Build() *Graph {
	n := uint32(0)
	if b.hasAny {
		n = b.maxID + 1
	}
	// Pass 1: scatter edges into per-vertex lists keyed by original id,
	// then sort and deduplicate to obtain true degrees.
	cnt := make([]uint64, n+1)
	for _, e := range b.edges {
		cnt[e.Src]++
		cnt[e.Dst]++
	}
	offsets := make([]uint64, n+1)
	var run uint64
	for v := uint32(0); v < n; v++ {
		offsets[v] = run
		run += cnt[v]
	}
	offsets[n] = run
	raw := make([]uint32, run)
	fill := make([]uint64, n)
	copy(fill, offsets[:n])
	for _, e := range b.edges {
		raw[fill[e.Src]] = e.Dst
		fill[e.Src]++
		raw[fill[e.Dst]] = e.Src
		fill[e.Dst]++
	}
	deg := make([]uint32, n)     // deduplicated degree per original id
	lists := make([][]uint32, n) // deduplicated neighbors per original id
	for v := uint32(0); v < n; v++ {
		list := raw[offsets[v]:offsets[v+1]]
		sort.Slice(list, func(i, j int) bool { return list[i] < list[j] })
		w := 0
		for i, x := range list {
			if i > 0 && x == list[i-1] {
				continue
			}
			list[w] = x
			w++
		}
		lists[v] = list[:w]
		deg[v] = uint32(w)
	}

	// Pass 2: rename by (degree, original id) and rebuild CSR.
	order := make([]uint32, n)
	for i := range order {
		order[i] = uint32(i)
	}
	sort.Slice(order, func(i, j int) bool {
		a, c := order[i], order[j]
		if deg[a] != deg[c] {
			return deg[a] < deg[c]
		}
		return a < c
	})
	rename := make([]uint32, n) // original id -> new id
	for newID, o := range order {
		rename[o] = uint32(newID)
	}

	newOffsets := make([]uint64, n+1)
	var w uint64
	for v := uint32(0); v < n; v++ {
		newOffsets[v] = w
		w += uint64(deg[order[v]])
	}
	newOffsets[n] = w
	adj := make([]uint32, w)
	var edges uint64
	for v := uint32(0); v < n; v++ {
		dst := adj[newOffsets[v]:newOffsets[v+1]]
		src := lists[order[v]]
		for i, o := range src {
			dst[i] = rename[o]
		}
		sort.Slice(dst, func(i, j int) bool { return dst[i] < dst[j] })
		edges += uint64(len(dst))
	}
	g := &Graph{
		stat:   Stat{Vertices: n, Edges: edges / 2},
		pieces: []rows{{offsets: newOffsets, adj: adj, origID: order}},
	}

	if len(b.labels) > 0 {
		labels := make([]uint32, n)
		for i := range labels {
			labels[i] = NoLabel
		}
		distinct := make(map[uint32]struct{})
		for orig, l := range b.labels {
			labels[rename[orig]] = l
			// An explicit NoLabel is indistinguishable from an unset
			// one — Label reports NoLabel either way — so it must not
			// count as a distinct label (and a graph whose every label
			// is NoLabel stays unlabeled).
			if l != NoLabel {
				distinct[l] = struct{}{}
			}
		}
		if len(distinct) > 0 {
			g.pieces[0].labels = labels
			g.stat.Labels, g.stat.Labeled = len(distinct), true
		}
	}
	return g
}

// FromEdges builds an unlabeled graph from an edge list of original ids.
func FromEdges(edges []Edge) *Graph {
	b := NewBuilder()
	for _, e := range edges {
		b.AddEdge(e.Src, e.Dst)
	}
	return b.Build()
}

// FromAdjacency builds a graph from an adjacency-list map of original ids;
// useful in tests.
func FromAdjacency(adj map[uint32][]uint32) *Graph {
	b := NewBuilder()
	for u, ns := range adj {
		for _, v := range ns {
			b.AddEdge(u, v)
		}
	}
	return b.Build()
}
