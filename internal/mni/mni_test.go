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

func TestMergeAndTable(t *testing.T) {
	p := pattern.Clique(3)
	a, b := NewDomain(p), NewDomain(p)
	a.AddMatch([]uint32{1, 2, 3})
	b.AddMatch([]uint32{4, 5, 6})
	a.Merge(b)
	if got := a.Support(); got != 6 {
		t.Fatalf("merged support = %d, want 6", got)
	}

	t1, t2 := NewTable(), NewTable()
	code := p.CanonicalCode()
	t1.Get(code, func() *Domain { return NewDomain(p) }).AddMatch([]uint32{1, 2, 3})
	t2.Get(code, func() *Domain { return NewDomain(p) }).AddMatch([]uint32{7, 8, 9})
	other := pattern.MustParse("0-1")
	t2.Get(other.CanonicalCode(), func() *Domain { return NewDomain(other) }).AddMatch([]uint32{1, 2})
	Merge(t1, t2)
	if len(t1.ByCode) != 2 {
		t.Fatalf("merged table has %d entries, want 2", len(t1.ByCode))
	}
	if got := t1.ByCode[code].Support(); got != 6 {
		t.Fatalf("merged domain support = %d, want 6", got)
	}
	if t1.SizeBytes() <= 0 {
		t.Fatal("SizeBytes should be positive")
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

func TestEmptyKeepsLayoutNotBitmaps(t *testing.T) {
	// Wedge: the copy keeps the endpoints' shared orbit bitmap, and it
	// fills apart from the original.
	d := NewDomain(pattern.Star(3))
	d.AddMatch([]uint32{7, 1, 2})
	e := d.Empty()
	if e.Pattern() != d.Pattern() || e.Support() != 0 {
		t.Fatalf("empty copy: pattern %v, support %d; want %v, 0", e.Pattern(), e.Support(), d.Pattern())
	}
	if e.DomainOf(1) != e.DomainOf(2) {
		t.Fatal("the copy's endpoints must share a domain bitmap")
	}
	e.AddMatch([]uint32{3, 4, 5})
	e.AddMatch([]uint32{6, 4, 8})
	if got := e.Support(); got != 2 {
		t.Fatalf("copy's support = %d, want 2", got)
	}
	if got := d.DomainOf(1).Cardinality(); got != 2 {
		t.Fatalf("filling the copy changed the original: endpoint domain %d, want 2", got)
	}
}
