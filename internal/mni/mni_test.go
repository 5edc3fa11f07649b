package mni

import (
	"testing"

	"peregrine/internal/pattern"
)

func TestSupportSymmetricPattern(t *testing.T) {
	// Triangle, all wildcard: all three vertices share one orbit. One
	// unique match {5, 9, 12} must produce support 3, because MNI counts
	// every vertex as mappable to every pattern vertex (automorphisms).
	d := NewDomain(pattern.Clique(3))
	d.AddMatch([]uint32{5, 9, 12})
	if got := d.Support(); got != 3 {
		t.Fatalf("triangle support after one match = %d, want 3", got)
	}
	d.AddMatch([]uint32{5, 9, 13})
	if got := d.Support(); got != 4 {
		t.Fatalf("support = %d, want 4", got)
	}
}

func TestSupportAsymmetricPattern(t *testing.T) {
	// Labeled edge A-B: no symmetry, separate domains.
	p := pattern.MustParse("0-1 [0:1] [1:2]")
	d := NewDomain(p)
	d.AddMatch([]uint32{1, 2})
	d.AddMatch([]uint32{3, 2})
	// Domain(0) = {1,3}, domain(1) = {2} -> support 1.
	if got := d.Support(); got != 1 {
		t.Fatalf("support = %d, want 1", got)
	}
	if got := d.DomainOf(0).Cardinality(); got != 2 {
		t.Fatalf("domain(0) = %d, want 2", got)
	}
}

func TestWedgeOrbits(t *testing.T) {
	// Unlabeled wedge 0-1, 0-2 (center 0): endpoints share an orbit.
	p := pattern.Star(3)
	d := NewDomain(p)
	d.AddMatch([]uint32{7, 1, 2})
	if got := d.DomainOf(1).Cardinality(); got != 2 {
		t.Fatalf("endpoint domain = %d, want 2 (orbit-shared)", got)
	}
	if d.DomainOf(1) != d.DomainOf(2) {
		t.Fatal("endpoints must share a domain bitmap")
	}
	if got := d.DomainOf(0).Cardinality(); got != 1 {
		t.Fatalf("center domain = %d, want 1", got)
	}
	if got := d.Support(); got != 1 {
		t.Fatalf("support = %d, want 1", got)
	}
}

// Fold lands the images of both ends of a wedge in their one orbit
// bitmap, wherever the query spelled them.
func TestFoldIntoOrbits(t *testing.T) {
	d := NewDomain(pattern.Star(3)) // center 0, ends 1 and 2
	im := NewImages(3)
	for i, vs := range [][]uint32{{7}, {1, 2}, {3}} {
		for _, v := range vs {
			im[i].Add(v)
		}
	}
	d.Fold(im, []int{1, 0, 2}) // the query's vertex 1 is the center
	if got := d.DomainOf(1).Cardinality(); got != 2 {
		t.Fatalf("end domain = %d, want 2 ({7, 3})", got)
	}
	if got := d.DomainOf(0).Cardinality(); got != 2 {
		t.Fatalf("center domain = %d, want 2 ({1, 2})", got)
	}
	d.Fold(im, []int{0, 1, 2})
	if got := d.DomainOf(2).Cardinality(); got != 4 {
		t.Fatalf("end domain after a second fold = %d, want 4 ({1, 2, 3, 7})", got)
	}
	tab := NewTable()
	tab.ByCode["wedge"] = d
	if tab.SizeBytes() != d.SizeBytes() || d.SizeBytes() <= 0 {
		t.Fatalf("table bytes %d, domain bytes %d", tab.SizeBytes(), d.SizeBytes())
	}
}

func TestDomainIgnoresAntiVertices(t *testing.T) {
	p := pattern.Clique(3)
	a := p.AddVertex()
	p.AddAntiEdge(0, a)
	p.AddAntiEdge(1, a)
	p.AddAntiEdge(2, a)
	d := NewDomain(p)
	m := []uint32{3, 4, 5, ^uint32(0)}
	d.AddMatch(m)
	if got := d.Support(); got != 3 {
		t.Fatalf("support = %d, want 3", got)
	}
	if d.DomainOf(0).Contains(^uint32(0)) {
		t.Fatal("anti-vertex slot leaked into a domain")
	}
}

// AddMatch runs once per FSM match: on a warmed domain it must not
// allocate (it once rebuilt the regular-vertex list on every call).
func TestAddMatchDoesNotAllocate(t *testing.T) {
	d := NewDomain(pattern.MustParse("0-1 1-2 2-3 [0:1] [1:2] [2:1] [3:3]"))
	match := []uint32{7, 8, 9, 10}
	d.AddMatch(match)
	if allocs := testing.AllocsPerRun(100, func() { d.AddMatch(match) }); allocs != 0 {
		t.Fatalf("AddMatch allocates %.0f times per call, want 0", allocs)
	}
}
