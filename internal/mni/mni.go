// Package mni computes minimum node image (MNI) support for frequent
// subgraph mining (paper §2.1, §3.2.1, §5.5). MNI is the support measure
// most mining systems use because it is anti-monotonic and efficiently
// computable: the support of a pattern is the minimum, over pattern
// vertices v, of the number of distinct data vertices that appear as the
// image of v in some match.
//
// The paper keeps a domain as "a vector of bitmaps representing the data
// vertices that can be mapped to each pattern vertex" (§5.5). Here each
// is a Set: a sorted list of ids while that is smaller, one bit per data
// vertex once it is not — the compressed-bitmap trade, made once per set
// rather than per 64K-id chunk. One subtlety of a symmetry-broken engine:
// each unique match is reported once, but MNI's definition quantifies
// over all isomorphisms, including automorphic variants. Pattern vertices
// in the same automorphism orbit have identical domains, so this package
// keeps one set per orbit and folds every matched data vertex of an
// orbit's members into it — exact MNI with one write per unique match,
// which is the §6.6 symmetry-breaking-for-FSM win.
//
// FSM's matching threads do not touch domains: each tallies Images per
// (query, labeling) pair, and Fold moves a pair's images into its
// canonical pattern's domain once the traversal is done. AddMatch serves
// callers that hold a domain while they match.
package mni

import "peregrine/internal/pattern"

// Domain accumulates the MNI domain of one (labeled) pattern.
type Domain struct {
	pat     *pattern.Pattern
	orbitOf []int // vertex -> orbit representative
	sets    []Set // indexed by orbit representative (empty elsewhere)
	roots   []int // distinct orbit representatives of regular vertices
	regular []int // the regular vertices, ascending
	words   int   // a dense set's length: ⌈V/64⌉ for V data vertices
}

// NewDomain prepares a domain for p over a graph of the given number of
// vertices. The orbit partition is computed once per pattern; AddMatch
// is then O(regular vertices) set inserts.
func NewDomain(p *pattern.Pattern, vertices uint32) *Domain {
	orb := p.Orbits()
	d := &Domain{pat: p, orbitOf: orb, sets: make([]Set, p.N()), regular: p.RegularVertices(),
		words: int((uint64(vertices) + 63) / 64)}
	for _, v := range d.regular {
		if orb[v] == v { // orbits never mix regular and anti-vertices
			d.roots = append(d.roots, v)
		}
	}
	return d
}

// Pattern returns the pattern this domain describes.
func (d *Domain) Pattern() *pattern.Pattern { return d.pat }

// AddMatch folds one match mapping (indexed by pattern vertex) into the
// domain. Anti-vertex slots are ignored.
func (d *Domain) AddMatch(mapping []uint32) {
	for _, v := range d.regular {
		d.sets[d.orbitOf[v]].Add(mapping[v])
	}
}

// Support returns the MNI support: the minimum domain size over pattern
// vertices (equivalently over orbits).
func (d *Domain) Support() int {
	minLen := -1
	for _, r := range d.roots {
		if n := d.sets[r].Len(); minLen < 0 || n < minLen {
			minLen = n
		}
	}
	return max(minLen, 0)
}

// DomainOf returns the set of data vertices mappable to pattern vertex v.
func (d *Domain) DomainOf(v int) *Set { return &d.sets[d.orbitOf[v]] }

// Images holds, per regular vertex of a query in query order, the data
// vertices its matches mapped there: what an FSM worker tallies for one
// (query, labeling) pair before the pair is canonicalized. Its sets are
// lists.
type Images []Set

// Fold adds im to the domain: im[i] holds images of pattern vertex at[i],
// and lands in that vertex's orbit set.
func (d *Domain) Fold(im Images, at []int) {
	for i := range im {
		d.sets[d.orbitOf[at[i]]].fold(im[i].ids, d.words)
	}
}

// SizeBytes is the memory held by the domain's sets, used for the
// Figure 13 FSM memory accounting.
func (d *Domain) SizeBytes() int {
	n := 0
	for _, r := range d.roots {
		n += d.sets[r].SizeBytes()
	}
	return n
}

// Table holds the domains of many labeled patterns, keyed by canonical
// code: one FSM level's discovered labelings.
type Table struct {
	ByCode map[string]*Domain
}

// NewTable returns an empty table.
func NewTable() *Table { return &Table{ByCode: make(map[string]*Domain)} }

// SizeBytes is the total set memory across the table.
func (t *Table) SizeBytes() int {
	n := 0
	for _, d := range t.ByCode {
		n += d.SizeBytes()
	}
	return n
}
