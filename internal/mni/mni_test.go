package mni

import (
	"math/rand"
	"testing"

	"peregrine/internal/pattern"
)

func TestSupportSymmetricPattern(t *testing.T) {
	// Triangle, all wildcard: all three vertices share one orbit. One
	// unique match {5, 9, 12} must produce support 3, because MNI counts
	// every vertex as mappable to every pattern vertex (automorphisms).
	d := NewDomain(pattern.Clique(3), 16)
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
	d := NewDomain(p, 4)
	d.AddMatch([]uint32{1, 2})
	d.AddMatch([]uint32{3, 2})
	// Domain(0) = {1,3}, domain(1) = {2} -> support 1.
	if got := d.Support(); got != 1 {
		t.Fatalf("support = %d, want 1", got)
	}
	if got := d.DomainOf(0).Len(); got != 2 {
		t.Fatalf("domain(0) = %d, want 2", got)
	}
}

func TestWedgeOrbits(t *testing.T) {
	// Unlabeled wedge 0-1, 0-2 (center 0): endpoints share an orbit.
	p := pattern.Star(3)
	d := NewDomain(p, 8)
	d.AddMatch([]uint32{7, 1, 2})
	if got := d.DomainOf(1).Len(); got != 2 {
		t.Fatalf("endpoint domain = %d, want 2 (orbit-shared)", got)
	}
	if d.DomainOf(1) != d.DomainOf(2) {
		t.Fatal("endpoints must share a domain set")
	}
	if got := d.DomainOf(0).Len(); got != 1 {
		t.Fatalf("center domain = %d, want 1", got)
	}
	if got := d.Support(); got != 1 {
		t.Fatalf("support = %d, want 1", got)
	}
}

// Fold lands the images of both ends of a wedge in their one orbit
// set, wherever the query spelled them.
func TestFoldIntoOrbits(t *testing.T) {
	d := NewDomain(pattern.Star(3), 1<<10) // center 0, ends 1 and 2
	im := make([]Set, 3)
	for i, vs := range [][]uint32{{7}, {1, 2}, {3}} {
		for _, v := range vs {
			im[i].Add(v, d.vertices)
		}
	}
	d.Fold(im, []int{1, 0, 2}) // the query's vertex 1 is the center
	if got := d.DomainOf(1).Len(); got != 2 {
		t.Fatalf("end domain = %d, want 2 ({7, 3})", got)
	}
	if got := d.DomainOf(0).Len(); got != 2 {
		t.Fatalf("center domain = %d, want 2 ({1, 2})", got)
	}
	d.Fold(im, []int{0, 1, 2})
	if got := d.DomainOf(2).Len(); got != 4 {
		t.Fatalf("end domain after a second fold = %d, want 4 ({1, 2, 3, 7})", got)
	}
	if d.SizeBytes() != 4*(3+4) {
		t.Fatalf("domain bytes %d, want 28 (seven listed ids)", d.SizeBytes())
	}
}

func TestDomainIgnoresAntiVertices(t *testing.T) {
	p := pattern.Clique(3)
	a := p.AddVertex()
	p.AddAntiEdge(0, a)
	p.AddAntiEdge(1, a)
	p.AddAntiEdge(2, a)
	d := NewDomain(p, 8)
	m := []uint32{3, 4, 5, ^uint32(0)}
	d.AddMatch(m)
	// A leaked anti-vertex slot would make the support 4 (in the
	// triangle's orbit) or 1 (in an orbit of its own).
	if got := d.Support(); got != 3 {
		t.Fatalf("support = %d, want 3", got)
	}
}

// AddMatch runs once per FSM match: on a warmed domain it must not
// allocate (it once rebuilt the regular-vertex list on every call).
func TestAddMatchDoesNotAllocate(t *testing.T) {
	d := NewDomain(pattern.MustParse("0-1 1-2 2-3 [0:1] [1:2] [2:1] [3:3]"), 16)
	match := []uint32{7, 8, 9, 10}
	d.AddMatch(match)
	if allocs := testing.AllocsPerRun(100, func() { d.AddMatch(match) }); allocs != 0 {
		t.Fatalf("AddMatch allocates %.0f times per call, want 0", allocs)
	}
}

// A domain's orbit sets against a map model, over graphs small enough
// that tallies and orbits cross into the dense form: every size agrees in
// both forms, so does membership (folding or adding one id grows its
// orbit set exactly when the model lacks it), each fold leaves the form
// and bytes its size calls for, and folding the same tallies in the
// reverse order gives the same sizes and bytes. The model holds the ids
// the test added to each tally; both tally forms must occur.
func TestSetMatchesMapModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := pattern.Star(3) // orbits {0} and {1, 2}
	forms, tallyForms := map[bool]int{}, map[bool]int{}
	for range 200 {
		vertices := 64 + rng.Intn(2000)
		words := (vertices + 63) / 64
		var tallies [][]Set
		var added [][][]uint32 // the ids added to each tally's sets
		var ats [][]int
		for range 1 + rng.Intn(12) {
			im, ids := make([]Set, 3), make([][]uint32, 3)
			for i := range im {
				for range rng.Intn(80) {
					x := uint32(rng.Intn(vertices))
					im[i].Add(x, uint32(vertices))
					ids[i] = append(ids[i], x)
				}
				tallyForms[im[i].words != nil]++
			}
			tallies, added = append(tallies, im), append(added, ids)
			ats = append(ats, rng.Perm(3))
		}
		d, rev := NewDomain(p, uint32(vertices)), NewDomain(p, uint32(vertices))
		model := [][]bool{make([]bool, vertices), make([]bool, vertices)}
		size := []int{0, 0}
		put := func(o int, x uint32) bool { // o is an orbit: 0 or 1
			if model[o][x] {
				return false
			}
			model[o][x] = true
			size[o]++
			return true
		}
		check := func(when string) {
			t.Helper()
			for v := range 3 {
				if got, want := d.DomainOf(v).Len(), size[d.orbitOf[v]]; got != want {
					t.Fatalf("V=%d %s: vertex %d domain has %d ids, model %d", vertices, when, v, got, want)
				}
			}
			if got, want := d.Support(), min(size[0], size[1]); got != want {
				t.Fatalf("V=%d %s: support %d, model %d", vertices, when, got, want)
			}
		}
		for k, im := range tallies {
			d.Fold(im, ats[k])
			for i, v := range ats[k] {
				for _, x := range added[k][i] {
					put(d.orbitOf[v], x)
				}
			}
			// The form follows the size alone: a normalized list, or
			// ⌈V/64⌉ words once 4 bytes an id would be more.
			for o := range 2 {
				want := min(4*size[o], 8*words)
				if got := d.sets[o].SizeBytes(); got != want {
					t.Fatalf("V=%d: orbit %d holds %d ids in %d bytes, want %d", vertices, o, size[o], got, want)
				}
			}
			check("after a fold")
		}
		for k := len(tallies) - 1; k >= 0; k-- {
			rev.Fold(tallies[k], ats[k])
		}
		for _, v := range []int{0, 1} {
			a, b := d.DomainOf(v), rev.DomainOf(v)
			if a.Len() != b.Len() || a.SizeBytes() != b.SizeBytes() {
				t.Fatalf("V=%d vertex %d: %d ids in %d bytes, reversed folds %d in %d",
					vertices, v, a.Len(), a.SizeBytes(), b.Len(), b.SizeBytes())
			}
			forms[a.words != nil]++
		}
		for range 50 {
			x, v := uint32(rng.Intn(vertices)), rng.Intn(3)
			before := d.DomainOf(v).Len()
			if rng.Intn(2) == 0 {
				one := make([]Set, 1)
				one[0].Add(x, uint32(vertices))
				d.Fold(one, []int{v})
			} else {
				d.AddMatch([]uint32{x, x, x}) // into both orbits
				put(1-d.orbitOf[v], x)
			}
			if grew, isNew := d.DomainOf(v).Len()-before, put(d.orbitOf[v], x); (grew == 1) != isNew {
				t.Fatalf("V=%d: adding %d to vertex %d's set grew it by %d, model new = %v", vertices, x, v, grew, isNew)
			}
			check("after one id")
		}
	}
	if forms[false] == 0 || forms[true] == 0 {
		t.Fatalf("orbit sets ended %d times as lists and %d times dense, want both", forms[false], forms[true])
	}
	if tallyForms[false] == 0 || tallyForms[true] == 0 {
		t.Fatalf("tally sets were %d times lists and %d times dense, want both", tallyForms[false], tallyForms[true])
	}
}
