// Package server turns the pattern-aware mining engine into a
// long-running query service, the way Arabesque-style systems expose
// graph mining as a service rather than one-shot runs: a registry of
// named data graphs, an asynchronous job manager with cancellation, and
// an HTTP/JSON API (see http.go) served by cmd/peregrine-serve.
package server

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"peregrine"
	"peregrine/internal/gen"
	"peregrine/internal/graph"
)

// ErrUnknownGraph is returned by Registry.With for unregistered
// names; the HTTP layer maps it to 404.
var ErrUnknownGraph = errors.New("unknown graph")

// GraphInfo describes one registered graph for GET /v1/graphs. Vertex,
// edge, and label counts come from the loaded graph when resident, and
// otherwise from the source's cheap Stat (a .pgr header) when the
// format carries one — so binary-backed graphs report full metadata
// before they are ever loaded.
type GraphInfo struct {
	Name     string `json:"name"`
	Source   string `json:"source"`
	Loaded   bool   `json:"loaded"`
	Vertices uint32 `json:"vertices,omitempty"`
	Edges    uint64 `json:"edges,omitempty"`
	Labels   int    `json:"labels,omitempty"`
	// Bytes is the graph's resident size when loaded, or the size a
	// load would cost when the source can predict it (0 = unknown).
	Bytes uint64 `json:"bytes,omitempty"`
	// Pinned counts in-flight queries holding the graph; a pinned
	// graph is never evicted by the memory budget.
	Pinned int `json:"pinned,omitempty"`

	// Shards is the manifest's shard count, present only for
	// manifest-backed sharded graphs. A sharded graph is loaded, charged,
	// pinned and evicted whole, so the columns above say the rest.
	Shards int `json:"shards,omitempty"`

	// MeanDeg, MeanSqDeg and MaxDeg are the loaded graph's degree moments
	// and largest degree, from its memoised degree pass (taken at load);
	// absent while the graph is unloaded. With Vertices and Labels they
	// are the Shape a count on the graph plans for (Shape), which a
	// coordinator reads here to plan as its nodes would.
	MeanDeg   float64 `json:"meanDeg,omitempty"`
	MeanSqDeg float64 `json:"meanSqDeg,omitempty"`
	MaxDeg    uint32  `json:"maxDeg,omitempty"`
}

// Shape is the Shape a count on the described graph plans for
// (peregrine.ShapeOf), when the graph is loaded.
func (gi GraphInfo) Shape() peregrine.Shape {
	return peregrine.Shape{Vertices: gi.Vertices, MeanDeg: gi.MeanDeg, MeanSqDeg: gi.MeanSqDeg, Labels: gi.Labels, MaxDeg: gi.MaxDeg}
}

// graphEntry is one named graph behind its Source. The Source is the
// durable recipe; the loaded *Graph is a cache the registry's memory
// budget may reclaim, and everything about that cache — the pointer,
// its size, the pin count, the recency stamp — is guarded by the
// Registry mutex. Only the load itself runs outside it, serialized per
// entry by loadMu so concurrent first queries share one load while
// queries for other graphs proceed.
type graphEntry struct {
	name   string
	src    graph.Source
	shared bool // source serves one shared instance (graph.Shared)
	loadMu sync.Mutex

	// Guarded by Registry.mu:
	g       *graph.Graph
	bytes   uint64            // resident size of g (0 when unloaded)
	pins    int               // in-flight With calls; > 0 blocks eviction
	lastUse uint64            // registry clock stamp of the latest With
	stat    *graph.SourceStat // the latest load's SourceStatOf, else a memoized successful src.Stat
	noStat  bool              // src.Stat returned ErrNoStat; stop re-probing
	loads   uint64            // completed loads, observable via LoadCount
}

// Registry maps names to graph sources. Registration normally happens
// at startup, but graphs can be added while queries are served.
// Loading is lazy and only successes are cached — a transient failure
// (unreadable file) is retried on the next query rather than poisoning
// the name until restart.
//
// With a byte budget set (SetMaxBytes / -max-graph-bytes), the
// registry evicts least-recently-used idle graphs once resident bytes
// exceed it: the victim's mmap (if any — every fragment's, for a
// sharded graph) is unmapped and the next query for it reloads through
// the Source. Two kinds of graph are never
// evicted: graphs pinned by in-flight queries (a running job can't
// have its graph unmapped underneath it), and shared memory-source
// graphs (AddGraph), which the registry doesn't own and whose source
// would keep them in memory regardless — they count against the
// budget permanently.
type Registry struct {
	mu       sync.Mutex
	entries  map[string]*graphEntry
	maxBytes uint64 // 0 = unlimited
	resident uint64 // total bytes of loaded graphs
	clock    uint64 // LRU tick, advanced per With

	// Fragments of sharded graphs mapped by loads and unmapped by budget
	// evictions so far (see ShardCounters).
	shardLoads, shardEvictions uint64
}

// NewRegistry returns an empty registry with no memory budget.
func NewRegistry() *Registry {
	return &Registry{entries: make(map[string]*graphEntry)}
}

// SetMaxBytes bounds the total resident size of loaded graphs; 0 (the
// default) disables eviction. Lowering the budget below the current
// residency evicts idle graphs immediately, LRU first.
func (r *Registry) SetMaxBytes(n uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.maxBytes = n
	r.evictLocked()
}

// AddSource registers src under name, replacing any previous entry.
// A replaced entry's resident graph leaves the accounting immediately
// and — when the registry owned it (non-shared source) — its storage
// is released: at once when idle, or by the last unpin of the
// queries still pinning it (which finish against the graph they
// were handed).
//
// A shared source (graph.Shared: MemorySource) is materialized
// immediately and held permanently resident: the graph already exists
// in memory and the source would keep it alive through any eviction,
// so pretending to evict it would free nothing while skewing the
// accounting.
func (r *Registry) AddSource(name string, src graph.Source) {
	e := &graphEntry{name: name, src: src, shared: graph.Shared(src)}
	if e.shared {
		if g, err := src.Load(); err == nil {
			g.MaxDegree() // the degree pass List reads, outside the lock
			st := graph.SourceStatOf(g)
			e.g = g
			e.bytes = st.Bytes
			e.stat = &st
			e.loads = 1
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if prev, ok := r.entries[name]; ok && prev.g != nil {
		r.resident -= prev.bytes
		prev.bytes = 0
		if prev.shared {
			prev.g = nil // caller-owned; never Closed by the registry
		} else if prev.pins == 0 {
			_ = prev.g.Close()
			prev.g = nil
		}
		// Still pinned: prev.g stays set so in-flight loaders of the
		// stale entry share it; the last unpin observes the entry is
		// gone from the map and closes it.
	}
	r.entries[name] = e
	r.resident += e.bytes
	r.evictLocked()
}

// AddGraph registers an already-built graph under name; source is the
// provenance string reported by GET /v1/graphs.
func (r *Registry) AddGraph(name, source string, g *graph.Graph) {
	r.AddSource(name, graph.MemorySource(source, g))
}

// AddFile registers a graph file, loaded on first query. The format —
// .pgr binary or text edge list — is detected from the content at use,
// so an unreadable file surfaces as a (retryable) failed job rather
// than a registration error.
func (r *Registry) AddFile(name, path string) {
	r.AddSource(name, graph.FileSource(path))
}

// AddDataset registers a built-in synthetic dataset at the given scale,
// generated on first query.
func (r *Registry) AddDataset(name string, d gen.Dataset, scale int) {
	r.AddSource(name, graph.FuncSource(fmt.Sprintf("dataset:%s@%d", d, scale),
		func() (*graph.Graph, error) { return gen.Standard(d, scale), nil }))
}

// With runs fn on the graph registered under name, loading it through
// its Source if it is not resident. The graph is pinned for exactly the
// length of the call — it cannot be evicted (and so, for mmap-backed
// graphs, cannot be unmapped mid-query) while fn runs, and the pin is
// dropped when fn returns or panics — so fn must not keep g past its
// return. With returns fn's error; when the name is unknown or the load
// fails it returns that error and fn never runs. Concurrent calls for
// the same unloaded graph perform one load; calls for other graphs are
// never blocked by it.
func (r *Registry) With(name string, fn func(*graph.Graph) error) error {
	e, g, err := r.acquire(name)
	if err != nil {
		return err
	}
	defer r.unpin(e)
	return fn(g)
}

// acquire pins name's entry and returns its graph, loading it if
// needed; on success the caller owes exactly one unpin(e). Only With
// calls it, so a pin cannot outlive the scope that took it.
func (r *Registry) acquire(name string) (*graphEntry, *graph.Graph, error) {
	r.mu.Lock()
	e, ok := r.entries[name]
	if !ok {
		r.mu.Unlock()
		return nil, nil, fmt.Errorf("%w: %q", ErrUnknownGraph, name)
	}
	// Pin before looking at the cached graph: a nonzero pin count is
	// what stops evictLocked from unmapping it between here and use.
	e.pins++
	r.clock++
	e.lastUse = r.clock
	g := e.g
	r.mu.Unlock()

	if g == nil {
		var err error
		if g, err = r.load(e); err != nil {
			r.unpin(e)
			return nil, nil, err
		}
	}
	return e, g, nil
}

// unpin drops one pin taken by acquire.
func (r *Registry) unpin(e *graphEntry) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e.pins--
	if e.pins == 0 && r.entries[e.name] != e && e.g != nil && !e.shared {
		// The entry was replaced (AddSource) while this query ran:
		// nothing can reach it anymore, so the last unpin frees its
		// storage. Its bytes already left the accounting. (Shared
		// graphs stay with their owner, never Closed here.)
		_ = e.g.Close()
		e.g = nil
	}
	// An unpin can be what makes an over-budget graph evictable (e.g. a
	// graph bigger than the whole budget, kept only while its query
	// ran): settle back under the budget now rather than at the next
	// load.
	r.evictLocked()
}

// load materializes e's graph, serializing concurrent loaders of the
// same entry; the caller has already pinned e. Lock order is loadMu
// then Registry.mu — never the reverse — and eviction never touches an
// entry's loadMu, so a slow load cannot deadlock the registry.
func (r *Registry) load(e *graphEntry) (*graph.Graph, error) {
	e.loadMu.Lock()
	defer e.loadMu.Unlock()
	r.mu.Lock()
	g := e.g // re-check: a racing loader may have finished first
	r.mu.Unlock()
	if g != nil {
		return g, nil
	}
	// Load blocks under loadMu on purpose — concurrent first queries for
	// this graph wait for one load — but never under r.mu (lock order
	// loadMu → mu), so the rest of the registry keeps answering.
	g, err := e.src.Load()
	if err != nil {
		return nil, err
	}
	g.MaxDegree() // the degree pass List reads, taken here outside r.mu
	// A real load is also the best answer for the entry's listing after
	// a future eviction.
	st := graph.SourceStatOf(g)
	r.mu.Lock()
	e.g = g
	e.stat = &st
	e.loads++
	r.shardLoads += uint64(st.Shards)
	if r.entries[e.name] == e {
		e.bytes = st.Bytes
		r.resident += e.bytes
		r.evictLocked()
	}
	// A stale entry (replaced by AddSource mid-load) stays unaccounted:
	// its pins drain and the last unpin closes the graph.
	r.mu.Unlock()
	return g, nil
}

// evictLocked reclaims least-recently-used idle graphs until resident
// bytes fit the budget. Pinned entries (in-flight queries) are never
// victims; if everything over budget is pinned, residency temporarily
// exceeds the budget rather than failing queries. Called with r.mu
// held.
func (r *Registry) evictLocked() {
	if r.maxBytes == 0 {
		return
	}
	for r.resident > r.maxBytes {
		var victim *graphEntry
		for _, e := range r.entries {
			// Shared (memory-source) graphs are never victims: their
			// source retains the instance, so eviction would free no
			// memory while Closing a graph the registry doesn't own.
			if e.g == nil || e.pins > 0 || e.shared {
				continue
			}
			if victim == nil || e.lastUse < victim.lastUse {
				victim = e
			}
		}
		if victim == nil {
			return
		}
		// Closing is safe here: pins == 0 means no With call holds the
		// graph, and every future use must pin under r.mu first.
		r.shardEvictions += uint64(victim.g.Shards())
		_ = victim.g.Close()
		victim.g = nil
		r.resident -= victim.bytes
		victim.bytes = 0
	}
}

// Has reports whether name is registered, without loading it. The HTTP
// layer uses this to reject unknown graphs synchronously while leaving
// the (possibly slow) load to the job's goroutine.
func (r *Registry) Has(name string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, ok := r.entries[name]
	return ok
}

// ResidentBytes returns the current total size of loaded graphs.
func (r *Registry) ResidentBytes() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.resident
}

// Counters snapshots the registry's gauges for GET /v1/stats:
// registered names, graphs currently resident, graphs pinned by
// in-flight queries, and total resident bytes.
func (r *Registry) Counters() (registered, loaded, pinned int, resident uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, e := range r.entries {
		registered++
		if e.g != nil {
			loaded++
		}
		if e.pins > 0 {
			pinned++
		}
	}
	return registered, loaded, pinned, r.resident
}

// ShardCounters counts fragments for GET /v1/stats: those of the
// sharded graphs loaded right now, and — cumulative over the registry's
// life — those mapped by loads and unmapped by budget evictions. A
// sharded graph loads and evicts whole, so both move by a graph's full
// fragment count at a time.
func (r *Registry) ShardCounters() (shards int, loads, evictions uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, e := range r.entries {
		if e.g != nil {
			shards += e.g.Shards()
		}
	}
	return shards, r.shardLoads, r.shardEvictions
}

// LoadCount returns how many times name's source has been loaded —
// observability for eviction/reload behavior (and its tests).
func (r *Registry) LoadCount(name string) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.entries[name]; ok {
		return e.loads
	}
	return 0
}

// List describes every registered graph, sorted by name. Metadata for
// graphs never loaded comes from the source's Stat when it has one: one
// call per cold entry, outside the registry lock so a slow filesystem
// cannot stall With on other graphs, and the answer — including "this
// format cannot stat" — is memoized so a polled listing does not
// re-open every cold graph file on every request.
func (r *Registry) List() []GraphInfo {
	describe := func(e *graphEntry) GraphInfo { // with r.mu held
		info := GraphInfo{Name: e.name, Source: e.src.Name(), Loaded: e.g != nil, Pinned: e.pins}
		if st := e.stat; st != nil {
			info.Vertices, info.Edges, info.Labels = st.Vertices, st.Edges, st.Labels
			info.Bytes, info.Shards = st.Bytes, st.Shards
		}
		if e.g != nil {
			s := peregrine.ShapeOf(e.g) // memoised at load: no pass under r.mu
			info.MeanDeg, info.MeanSqDeg, info.MaxDeg = s.MeanDeg, s.MeanSqDeg, s.MaxDeg
		}
		return info
	}
	r.mu.Lock()
	out := make([]GraphInfo, 0, len(r.entries))
	var cold []*graphEntry
	for _, e := range r.entries {
		if e.stat == nil && !e.noStat {
			cold = append(cold, e)
			continue
		}
		out = append(out, describe(e))
	}
	r.mu.Unlock()

	for _, e := range cold {
		st, err := e.src.Stat()
		r.mu.Lock()
		switch {
		case err != nil:
			// Transient I/O errors stay unmemoized: retry on the next
			// listing.
			e.noStat = errors.Is(err, graph.ErrNoStat)
		case e.stat == nil:
			e.stat = &st
		}
		out = append(out, describe(e))
		r.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
