// Package mni computes minimum node image (MNI) support for frequent
// subgraph mining (paper §2.1, §3.2.1, §5.5). MNI is the support measure
// most mining systems use because it is anti-monotonic and efficiently
// computable: the support of a pattern is the minimum, over pattern
// vertices v, of the number of distinct data vertices that appear as the
// image of v in some match.
//
// Domains are "a vector of bitmaps representing the data vertices that
// can be mapped to each pattern vertex" (§5.5), stored as compressed
// bitmaps. One subtlety of a symmetry-broken engine: each unique match
// is reported once, but MNI's definition quantifies over all
// isomorphisms, including automorphic variants. Pattern vertices in the
// same automorphism orbit have identical domains, so this package keeps
// one bitmap per orbit and folds every matched data vertex of an orbit's
// members into it — exact MNI with one write per unique match, which is
// the §6.6 symmetry-breaking-for-FSM win.
//
// FSM's matching threads do not touch domains: each tallies Images per
// (query, labeling) pair, and Fold moves a pair's images into its
// canonical pattern's domain once the traversal is done. AddMatch serves
// callers that hold a domain while they match.
package mni

import (
	"peregrine/internal/bitset"
	"peregrine/internal/pattern"
)

// Domain accumulates the MNI domain of one (labeled) pattern.
type Domain struct {
	pat     *pattern.Pattern
	orbitOf []int            // vertex -> orbit representative
	bitmaps []*bitset.Bitmap // indexed by orbit representative (nil elsewhere)
	roots   []int            // distinct orbit representatives of regular vertices
	regular []int            // the regular vertices, ascending
}

// NewDomain prepares a domain for p. The orbit partition is computed
// once per pattern; AddMatch is then O(regular vertices) bitmap inserts.
func NewDomain(p *pattern.Pattern) *Domain {
	orb := p.Orbits()
	d := &Domain{pat: p, orbitOf: orb, bitmaps: make([]*bitset.Bitmap, p.N()), regular: p.RegularVertices()}
	seen := make(map[int]bool)
	for _, v := range d.regular {
		r := orb[v]
		if !seen[r] {
			seen[r] = true
			d.roots = append(d.roots, r)
			d.bitmaps[r] = bitset.New()
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
		d.bitmaps[d.orbitOf[v]].Add(mapping[v])
	}
}

// Support returns the MNI support: the minimum domain cardinality over
// pattern vertices (equivalently over orbits).
func (d *Domain) Support() int {
	minCard := -1
	for _, r := range d.roots {
		c := d.bitmaps[r].Cardinality()
		if minCard < 0 || c < minCard {
			minCard = c
		}
	}
	if minCard < 0 {
		return 0
	}
	return minCard
}

// DomainOf returns the bitmap of data vertices mappable to pattern
// vertex v.
func (d *Domain) DomainOf(v int) *bitset.Bitmap { return d.bitmaps[d.orbitOf[v]] }

// Images holds, per regular vertex of a query in query order, the data
// vertices its matches mapped there: what an FSM worker tallies for one
// (query, labeling) pair before the pair is canonicalized.
type Images []*bitset.Bitmap

// NewImages returns n empty image bitmaps.
func NewImages(n int) Images {
	im := make(Images, n)
	for i := range im {
		im[i] = bitset.New()
	}
	return im
}

// Fold ORs im into the domain: im[i] holds images of pattern vertex
// at[i], and lands in that vertex's orbit bitmap.
func (d *Domain) Fold(im Images, at []int) {
	for i, b := range im {
		d.bitmaps[d.orbitOf[at[i]]].Or(b)
	}
}

// SizeBytes estimates the memory held by the domain's bitmaps, used for
// the Figure 13 FSM memory accounting.
func (d *Domain) SizeBytes() int {
	n := 0
	for _, r := range d.roots {
		n += d.bitmaps[r].SizeBytes()
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

// SizeBytes estimates total bitmap memory across the table.
func (t *Table) SizeBytes() int {
	n := 0
	for _, d := range t.ByCode {
		n += d.SizeBytes()
	}
	return n
}
