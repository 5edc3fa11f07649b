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
// Because the cached plan is built on one concrete vertex numbering, a
// hit for a differently-numbered isomorphic pattern comes with a Remap
// translating the caller's vertices to the plan's: any isomorphism is a
// valid translation since symmetry breaking already delivers each match
// class exactly once.
type Cache struct {
	mu      sync.RWMutex
	entries map[cacheKey]*cacheEntry
	max     int

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
	inv     []int         // canonical position -> plan pattern vertex
	lastUse atomic.Uint64 // Cache.tick stamp of the most recent Get

	// The pattern's morph relation, compiled on first use by MorphBatch
	// (morphRelation) and dropped with the entry.
	morphOnce sync.Once
	morph     *morphRelation

	// The pattern's decompositions, compiled on first use by MorphBatch
	// (cutRelations).
	cutOnce sync.Once
	cuts    []*morphRelation
}

// Cached is a cache lookup result: the plan plus the vertex translation
// the caller needs when its numbering differs from the plan's.
type Cached struct {
	Plan *Plan

	// Remap[v] is the plan-pattern vertex corresponding to caller
	// vertex v; nil when the caller's numbering already matches the
	// plan's (the common case) and no translation is needed.
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
	return &Cache{entries: make(map[cacheKey]*cacheEntry), max: max}
}

// Get returns the plan for p under opt, computing and caching it on
// first use. Concurrent Gets are safe; a racing duplicate computation
// is possible but only one result is retained.
func (c *Cache) Get(p *pattern.Pattern, opt Options) (Cached, error) {
	e, perm, err := c.entry(p, opt)
	if err != nil {
		return Cached{}, err
	}
	return Cached{Plan: e.plan, Remap: remapFor(p, perm, e)}, nil
}

// entry is Get's lookup: the cache entry for p's shape — compiled and
// inserted on a miss — and p's canonical permutation (nil for exact,
// own-numbering keys).
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
	pl, err := New(p, opt)
	if err != nil {
		// Errors are not cached: they are rare (structurally invalid
		// patterns) and callers surface them immediately.
		return nil, nil, err
	}
	e = &cacheEntry{plan: pl}
	if perm != nil {
		e.inv = make([]int, len(perm))
		for v, pos := range perm {
			e.inv[pos] = v
		}
	}

	c.mu.Lock()
	if prev, raced := c.entries[key]; raced {
		e = prev // keep the first insertion so remaps stay consistent
	} else {
		if len(c.entries) >= c.max {
			c.evictLRULocked()
		}
		c.entries[key] = e
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
		delete(c.entries, victim)
	}
}

// remapFor composes the caller's canonical permutation with the cached
// entry's inverse permutation: caller vertex -> canonical position ->
// plan vertex. Identity translations return nil so hot paths can skip
// per-match remapping entirely. Exact-keyed entries (perm nil) match
// the caller's numbering by construction.
func remapFor(p *pattern.Pattern, perm []int, e *cacheEntry) []int {
	if perm == nil || e.plan.Pat == p || e.plan.Pat.Equal(p) {
		return nil
	}
	remap := make([]int, len(perm))
	identity := true
	for v := range remap {
		remap[v] = e.inv[perm[v]]
		if remap[v] != v {
			identity = false
		}
	}
	if identity {
		return nil
	}
	return remap
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
