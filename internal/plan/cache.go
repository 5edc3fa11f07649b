package plan

import (
	"sync"
	"sync/atomic"

	"peregrine/internal/pattern"
)

// DefaultCacheEntries bounds a Cache: plans are tiny, but a service
// mining an adversarial stream of distinct pattern shapes must not
// grow without limit. At the bound, the least-recently-used entry is
// evicted per insertion; evicted shapes simply recompile on next use.
const DefaultCacheEntries = 4096

// Cache memoizes exploration plans keyed by the canonical form of the
// pattern (pattern.CanonicalForm) plus the plan options that affect its
// shape. Isomorphic patterns — however their vertices are numbered —
// share one cached plan, which makes repeated Prepare/Count calls and
// multi-query services pay for symmetry breaking and matching-order
// computation exactly once per pattern shape.
//
// The cached plan is compiled from the canonical spelling, never from
// the spelling that happened to miss first, so every cache — another
// process's, or this one after a restart or an eviction — runs one plan
// per isomorphism class: the same matching order, core and symmetry
// conditions, and so the same task vertex for every match, which is
// what lets counts of disjoint task ranges taken through different
// caches sum to the whole. A caller's own spelling gets a Remap onto the
// plan's vertices. Patterns of more than maxCanonicalVertices vertices
// are keyed, and compiled, in their own spelling.
type Cache struct {
	mu      sync.RWMutex
	entries map[cacheKey]*cacheEntry
	max     int

	// owned finds the entry of a plan the cache compiled without
	// canonicalizing its pattern again: MorphBatch looks up the relations
	// of every plan of a batch, and the batch's plans mostly came from
	// Get. It holds exactly the plans of entries.
	owned map[*Plan]*cacheEntry

	// tick is a monotonically increasing use counter; each Get stamps
	// the entry it touched. Recency lives in per-entry atomics rather
	// than a linked list so the hot hit path stays under the read lock;
	// eviction (rare: only at the bound, on a miss that already paid
	// for plan compilation) scans for the minimum stamp, which is exact
	// LRU up to the ordering of concurrent hits — and concurrent hits
	// have no meaningful order to preserve.
	tick atomic.Uint64

	hits, misses atomic.Uint64
}

type cacheKey struct {
	code  string // canonical or exact structural code (distinct prefixes)
	noSym bool   // Options.NoSymmetryBreaking changes the plan
}

// maxCanonicalVertices bounds the branch-and-bound canonicalization
// used for cache keys. Beyond it, a highly symmetric pattern (the
// Table 6 14-clique: every vertex ordering encodes identically, so
// nothing prunes) would explore factorially many orderings just to
// compute the key. Larger patterns fall back to an exact structural
// key over the pattern's own numbering — generators produce
// deterministic numberings, so repeated Clique(14)-style queries still
// hit; only cross-numbering sharing is lost, and only above the bound.
const maxCanonicalVertices = 8

type cacheEntry struct {
	plan    *Plan
	lastUse atomic.Uint64 // Cache.tick stamp of the most recent Get

	// The relations the pattern's count can be recovered from — its morph
	// relation, or its decompositions — compiled on first use by
	// MorphBatch (Cache.relations) and dropped with the entry.
	relOnce sync.Once
	rels    []*relation
}

// Cached is a cache lookup result: the plan plus the vertex translation
// the caller needs when its numbering differs from the plan's.
type Cached struct {
	Plan *Plan

	// Remap[v] is the plan-pattern vertex corresponding to caller
	// vertex v: the caller's canonical permutation, since the plan is
	// compiled from the canonical spelling. It is nil when the caller's
	// pattern already equals the plan's, canonical or keyed exactly.
	Remap []int
}

// NewCache returns an empty plan cache bounded at DefaultCacheEntries.
func NewCache() *Cache {
	return NewCacheSize(DefaultCacheEntries)
}

// NewCacheSize returns an empty plan cache holding at most max plans;
// max <= 0 means DefaultCacheEntries.
func NewCacheSize(max int) *Cache {
	if max <= 0 {
		max = DefaultCacheEntries
	}
	return &Cache{entries: make(map[cacheKey]*cacheEntry), owned: make(map[*Plan]*cacheEntry), max: max}
}

// Get returns the plan for p under opt, computing and caching it on
// first use. Concurrent Gets are safe; a racing duplicate computation
// is possible but only one result is retained.
func (c *Cache) Get(p *pattern.Pattern, opt Options) (Cached, error) {
	e, perm, err := c.entry(p, opt)
	if err != nil {
		return Cached{}, err
	}
	if e.plan.Pat.Equal(p) {
		perm = nil // the caller spells the pattern as the plan does
	}
	return Cached{Plan: e.plan, Remap: perm}, nil
}

// entry is Get's lookup: the cache entry for p's shape — compiled from
// the canonical spelling and inserted on a miss — and p's canonical
// permutation (nil for exact, own-numbering keys).
func (c *Cache) entry(p *pattern.Pattern, opt Options) (e *cacheEntry, perm []int, err error) {
	var code string
	if p.N() <= maxCanonicalVertices {
		canon, cperm := p.CanonicalForm()
		code, perm = "c"+canon, cperm
	} else {
		code = exactKey(p)
	}
	key := cacheKey{code: code, noSym: opt.NoSymmetryBreaking}

	c.mu.RLock()
	e, ok := c.entries[key]
	if ok {
		e.lastUse.Store(c.tick.Add(1))
	}
	c.mu.RUnlock()
	if ok {
		c.hits.Add(1)
		return e, perm, nil
	}

	c.misses.Add(1)
	canon := p
	if perm != nil {
		canon = p.Renumber(perm)
	}
	pl, err := New(canon, opt)
	if err != nil {
		// Errors are not cached: they are rare (structurally invalid
		// patterns) and callers surface them immediately.
		return nil, nil, err
	}
	e = &cacheEntry{plan: pl}

	c.mu.Lock()
	if prev, raced := c.entries[key]; raced {
		e = prev // the same canonical plan: keep the entry already handed out
	} else {
		if len(c.entries) >= c.max {
			c.evictLRULocked()
		}
		c.entries[key] = e
		c.owned[pl] = e
	}
	e.lastUse.Store(c.tick.Add(1))
	c.mu.Unlock()
	return e, perm, nil
}

// evictLRULocked removes the entry with the oldest use stamp. Callers
// hold the write lock, so no stamp can move while the minimum is found.
func (c *Cache) evictLRULocked() {
	var victim cacheKey
	oldest := uint64(0)
	first := true
	for k, e := range c.entries {
		if u := e.lastUse.Load(); first || u < oldest {
			victim, oldest, first = k, u, false
		}
	}
	if !first {
		delete(c.owned, c.entries[victim].plan)
		delete(c.entries, victim)
	}
}

// ownEntry returns the entry of pl when the cache compiled it and holds
// it still, counted and stamped as a hit, like a lookup of its pattern.
func (c *Cache) ownEntry(pl *Plan) (*cacheEntry, bool) {
	c.mu.RLock()
	e, ok := c.owned[pl]
	if ok {
		e.lastUse.Store(c.tick.Add(1))
	}
	c.mu.RUnlock()
	if ok {
		c.hits.Add(1)
	}
	return e, ok
}

// exactKey encodes the pattern's labels and edge-kind matrix under its
// own vertex numbering: equal keys mean structurally identical
// patterns, so cached plans apply with no remap.
func exactKey(p *pattern.Pattern) string {
	n := p.N()
	buf := make([]byte, 0, 2+4*n+n*(n-1)/2)
	buf = append(buf, 'x', byte(n))
	for v := 0; v < n; v++ {
		lb := pattern.LabelCode(p.LabelOf(v))
		buf = append(buf, lb[:]...)
		for u := 0; u < v; u++ {
			buf = append(buf, byte(p.EdgeKindOf(v, u)))
		}
	}
	return string(buf)
}

// Stats reports cumulative hit and miss counts.
func (c *Cache) Stats() (hits, misses uint64) {
	return c.hits.Load(), c.misses.Load()
}

// Len returns the number of cached plans.
func (c *Cache) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.entries)
}
