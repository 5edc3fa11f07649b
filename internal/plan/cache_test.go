package plan

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"peregrine/internal/pattern"
)

// Isomorphic patterns in any vertex numbering must share one cached
// plan, with a remap that carries plan-vertex matches back to the
// caller's numbering. a is numbered canonically, so the plan is a's.
func TestCacheSharesIsomorphicPatterns(t *testing.T) {
	c := NewCache()
	a := pattern.MustParse("0-1 1-2 [0:1] [1:2] [2:3]")
	b := pattern.MustParse("2-1 1-0 [2:1] [1:2] [0:3]") // a, renumbered 0<->2

	ca, err := c.Get(a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cb, err := c.Get(b, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ca.Plan != cb.Plan {
		t.Fatal("isomorphic patterns did not share a plan")
	}
	if hits, misses := c.Stats(); hits != 1 || misses != 1 {
		t.Fatalf("hits/misses = %d/%d, want 1/1", hits, misses)
	}
	if ca.Remap != nil {
		t.Fatalf("canonical spelling got remap %v, want identity (nil)", ca.Remap)
	}
	if cb.Remap == nil {
		t.Fatal("renumbered pattern got no remap")
	}
	if err := checkRemap(b, cb); err != nil {
		t.Error(err)
	}
}

// checkRemap reports whether c's Remap, or the identity when it is nil,
// is a label- and edge-kind-preserving isomorphism from p onto the plan's
// pattern.
func checkRemap(p *pattern.Pattern, c Cached) error {
	at := func(v int) int {
		if c.Remap == nil {
			return v
		}
		return c.Remap[v]
	}
	for v := 0; v < p.N(); v++ {
		if p.LabelOf(v) != c.Plan.Pat.LabelOf(at(v)) {
			return fmt.Errorf("%v: remap %v changes vertex %d's label", p, c.Remap, v)
		}
		for u := 0; u < p.N(); u++ {
			if p.EdgeKindOf(v, u) != c.Plan.Pat.EdgeKindOf(at(v), at(u)) {
				return fmt.Errorf("%v: remap %v does not preserve (%d,%d)", p, c.Remap, v, u)
			}
		}
	}
	return nil
}

// Every spelling of a class compiles to one plan, through any cache: the
// canonical spelling's, whichever spelling reaches a cache first. Sixteen
// spellings through sixteen fresh caches must agree on the plan pattern,
// core, conditions and price, every skeleton of up to five vertices plain,
// vertex-induced, labeled and with an anti-vertex, and an 8-vertex path
// and cycle; the canonical spelling itself needs no remap.
func TestCachePlansOneSpellingPerClass(t *testing.T) {
	var classes []*pattern.Pattern
	for k := 2; k <= 5; k++ {
		for _, s := range pattern.GenerateAllVertexInduced(k) {
			labeled, anti := s.Clone(), s.Clone()
			for v := 0; v < s.N(); v++ {
				labeled.SetLabel(v, pattern.Label(v%2))
			}
			a := anti.AddVertex()
			anti.AddAntiEdge(0, a)
			anti.AddAntiEdge(s.N()-1, a)
			classes = append(classes, s, pattern.VertexInduced(s), labeled, anti)
		}
	}
	classes = append(classes, pattern.Chain(8), pattern.Cycle(8))
	rng := rand.New(rand.NewSource(1))
	for _, p := range classes {
		var first *Plan
		for range 16 {
			q := p.Renumber(rng.Perm(p.N()))
			got, err := NewCache().Get(q, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if err := checkRemap(q, got); err != nil {
				t.Error(err)
			}
			pl := got.Plan
			if first == nil {
				first = pl
				continue
			}
			if !pl.Pat.Equal(first.Pat) || !slices.Equal(pl.Core, first.Core) || !slices.Equal(pl.Conds, first.Conds) ||
				CostOf(pl, Shape{}) != CostOf(first, Shape{}) || CostOf(pl, motifBatchShape) != CostOf(first, motifBatchShape) {
				t.Errorf("%v: spelled %v it compiles to %v core %v conds %v; first %v core %v conds %v",
					p, q, pl.Pat, pl.Core, pl.Conds, first.Pat, first.Core, first.Conds)
			}
		}
		_, perm := p.CanonicalForm()
		canon := p.Renumber(perm)
		got, err := NewCache().Get(canon, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got.Remap != nil || !got.Plan.Pat.Equal(first.Pat) {
			t.Errorf("%v: canonical spelling %v compiles to %v with remap %v", p, canon, got.Plan.Pat, got.Remap)
		}
	}
}

// congruentLabels pairs labels that a narrowed label encoding merges:
// congruent mod 2^8, 2^16 and 2^24, Wildcard (-1) against 65535 (a
// 16-bit key once handed the unlabeled pattern's plan to the labeled
// query), and MaxInt32 against Wildcard, equal in every low bit both
// raw and under LabelCode's +1 shift.
var congruentLabels = [][2]pattern.Label{
	{3, 259}, {3, 65539}, {3, 16777219}, {pattern.Wildcard, 65535}, {pattern.Wildcard, math.MaxInt32},
}

// labeledChain is Chain(n) with label l on vertex 0.
func labeledChain(n int, l pattern.Label) *pattern.Pattern {
	p := pattern.Chain(n)
	p.SetLabel(0, l)
	return p
}

// Label-distinct patterns must never share a cache entry — on either
// key path.
func TestCacheKeySeparatesLabels(t *testing.T) {
	c := NewCache()
	// n=3 exercises the canonical key, n=9 the exact (>8-vertex) key.
	for _, n := range []int{3, 9} {
		for _, pair := range congruentLabels {
			a, err := c.Get(labeledChain(n, pair[0]), Options{})
			if err != nil {
				t.Fatal(err)
			}
			b, err := c.Get(labeledChain(n, pair[1]), Options{})
			if err != nil {
				t.Fatal(err)
			}
			if a.Plan == b.Plan {
				t.Errorf("n=%d: labels %d and %d share a plan", n, pair[0], pair[1])
			}
		}
	}
}

// Every key built from labels must keep congruent labels apart:
// LabelCode itself, canonical codes, exact keys, program-step keys
// (trie nodes and slots), and matchingOrders' ordered-view grouping.
func TestLabelKeysSeparateCongruentLabels(t *testing.T) {
	codes := make(map[[4]byte]pattern.Label)
	for _, pair := range congruentLabels {
		for _, l := range pair {
			if prev, ok := codes[pattern.LabelCode(l)]; ok && prev != l {
				t.Errorf("LabelCode(%d) == LabelCode(%d)", l, prev)
			}
			codes[pattern.LabelCode(l)] = l
		}
	}
	for _, pair := range congruentLabels {
		a, b := pair[0], pair[1]
		pa, pb := labeledChain(3, a), labeledChain(3, b)
		if pa.CanonicalCode() == pb.CanonicalCode() {
			t.Errorf("labels %d and %d share a canonical code", a, b)
		}
		if exactKey(pa) == exactKey(pb) {
			t.Errorf("labels %d and %d share an exact key", a, b)
		}
		sa, sb := Step{Lo: -1, Hi: -1, Label: a}, Step{Lo: -1, Hi: -1, Label: b}
		if sa.key() == sb.key() {
			t.Errorf("labels %d and %d share a step key", a, b)
		}
		// The edge's two ends are automorphic but for their labels, so
		// its two linear extensions are two ordered views, not one.
		edge := pattern.MustParse("0-1")
		edge.SetLabel(0, a)
		edge.SetLabel(1, b)
		if mos := matchingOrders(edge, []int{0, 1}, nil); len(mos) != 2 {
			t.Errorf("labels %d and %d: %d matching orders for an edge, want 2", a, b, len(mos))
		}
	}
}

// Symmetry-breaking and unbroken plans must not alias.
func TestCacheKeySeparatesOptions(t *testing.T) {
	c := NewCache()
	p := pattern.Clique(3)
	broken, err := c.Get(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	unbroken, err := c.Get(p, Options{NoSymmetryBreaking: true})
	if err != nil {
		t.Fatal(err)
	}
	if broken.Plan == unbroken.Plan {
		t.Fatal("options ignored by cache key")
	}
	if len(broken.Plan.Conds) == 0 || len(unbroken.Plan.Conds) != 0 {
		t.Fatalf("conds = %v / %v, want broken/unbroken", broken.Plan.Conds, unbroken.Plan.Conds)
	}
	if c.Len() != 2 {
		t.Fatalf("cache has %d entries, want 2", c.Len())
	}
}

// Patterns past the canonicalization bound must still cache — by exact
// structural key — without triggering the factorial branch-and-bound a
// fully symmetric large pattern would cause. A 14-clique key via
// CanonicalForm would explore 14! orderings; via the exact key this
// test finishes instantly.
func TestCacheLargeSymmetricPattern(t *testing.T) {
	c := NewCache()
	done := make(chan error, 1)
	go func() {
		first, err := c.Get(pattern.Clique(14), Options{})
		if err != nil {
			done <- err
			return
		}
		again, err := c.Get(pattern.Clique(14), Options{})
		if err == nil && again.Plan != first.Plan {
			err = fmt.Errorf("repeated 14-clique did not hit the cache")
		}
		if err == nil && again.Remap != nil {
			err = fmt.Errorf("exact-keyed hit returned remap %v", again.Remap)
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("14-clique cache Get did not finish; canonicalization bound not applied")
	}
	if hits, misses := c.Stats(); hits != 1 || misses != 1 {
		t.Errorf("hits/misses = %d/%d, want 1/1", hits, misses)
	}
}

// A bounded cache evicts rather than growing past its cap, and evicted
// shapes recompile correctly on the next Get.
func TestCacheBounded(t *testing.T) {
	c := NewCacheSize(3)
	var pats []*pattern.Pattern
	for k := 0; k < 6; k++ {
		p := pattern.Chain(3)
		p.SetLabel(0, pattern.Label(k)) // six distinct shapes
		pats = append(pats, p)
	}
	for _, p := range pats {
		if _, err := c.Get(p, Options{}); err != nil {
			t.Fatal(err)
		}
		if c.Len() > 3 {
			t.Fatalf("cache grew to %d entries, cap 3", c.Len())
		}
	}
	// Every shape still resolves after evictions.
	for i, p := range pats {
		got, err := c.Get(p, Options{})
		if err != nil {
			t.Fatalf("pattern %d after eviction: %v", i, err)
		}
		if !got.Plan.Pat.Equal(p) && got.Remap == nil {
			t.Errorf("pattern %d: recompiled plan mismatched with no remap", i)
		}
	}
}

// Eviction at the bound must pick the least-recently-used shape: a
// recently re-touched entry survives insertions that evict older ones.
func TestCacheEvictsLRU(t *testing.T) {
	c := NewCacheSize(3)
	shape := func(k int) *pattern.Pattern {
		p := pattern.Chain(3)
		p.SetLabel(0, pattern.Label(100+k))
		return p
	}
	plans := make([]*Plan, 4)
	for k := 0; k < 3; k++ { // fill: 0, 1, 2 in age order
		got, err := c.Get(shape(k), Options{})
		if err != nil {
			t.Fatal(err)
		}
		plans[k] = got.Plan
	}
	// Touch 0 so 1 becomes the LRU entry.
	if got, err := c.Get(shape(0), Options{}); err != nil || got.Plan != plans[0] {
		t.Fatalf("re-touch of shape 0 missed: plan %p vs %p, err %v", got.Plan, plans[0], err)
	}
	// Insert 3: must evict 1, keeping 0 and 2.
	if _, err := c.Get(shape(3), Options{}); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 3 {
		t.Fatalf("cache has %d entries, want 3", c.Len())
	}
	for _, k := range []int{0, 2, 3} {
		before, _ := c.Stats()
		if _, err := c.Get(shape(k), Options{}); err != nil {
			t.Fatal(err)
		}
		if after, _ := c.Stats(); after != before+1 {
			t.Errorf("shape %d was evicted, want it retained", k)
		}
	}
	// Shape 1 must have been the victim: getting it again is a miss.
	_, missesBefore := c.Stats()
	if _, err := c.Get(shape(1), Options{}); err != nil {
		t.Fatal(err)
	}
	if _, missesAfter := c.Stats(); missesAfter != missesBefore+1 {
		t.Error("LRU shape 1 still cached; eviction picked a non-LRU victim")
	}
}

// Concurrent Gets of the same and different patterns must be safe (run
// under -race) and must converge on one plan per shape.
func TestCacheConcurrentGet(t *testing.T) {
	c := NewCache()
	pats := []*pattern.Pattern{
		pattern.Clique(3),
		pattern.Clique(4),
		pattern.Star(4),
		pattern.Chain(4),
	}
	const workers = 16
	plans := make([][]*Plan, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			plans[w] = make([]*Plan, len(pats))
			for i, p := range pats {
				got, err := c.Get(p, Options{})
				if err != nil {
					t.Error(err)
					return
				}
				plans[w][i] = got.Plan
			}
		}(w)
	}
	wg.Wait()
	for i := range pats {
		for w := 1; w < workers; w++ {
			if plans[w][i] != plans[0][i] {
				t.Errorf("pattern %d: worker %d got a different plan instance", i, w)
			}
		}
	}
	if c.Len() != len(pats) {
		t.Errorf("cache has %d entries, want %d", c.Len(), len(pats))
	}
	if hits, misses := c.Stats(); hits+misses != workers*uint64(len(pats)) {
		t.Errorf("hits+misses = %d, want %d", hits+misses, workers*len(pats))
	}
}
