package mni

import (
	"math/bits"
	"slices"
)

// Set is a set of data vertex ids, held in one of two forms with no
// pointers below its slices. A list holds ids, of which ids[:n] are
// sorted and unique and the rest were appended since. A dense set holds
// one bit per data vertex in words, and its size in n. Every set starts
// as a list and follows one form rule, whether it is a tally or a
// domain's orbit set: it turns dense once a normalize leaves its ids
// taking more bytes (4 each) than its words would (8 each). Methods that
// can switch the form take the number V of data vertices; a dense set
// has ⌈V/64⌉ words.
type Set struct {
	ids   []uint32
	words []uint64
	n     int
}

// Add puts x in s. A list appends x, unless x repeats the id appended
// last (consecutive matches of one task share most of their images), and
// normalizes once the appended ids outnumber the sorted ones (at least
// 16 of them), so a warmed set does not allocate.
func (s *Set) Add(x, vertices uint32) {
	if s.words != nil {
		s.set(x)
		return
	}
	if len(s.ids) > 0 && s.ids[len(s.ids)-1] == x {
		return
	}
	s.ids = append(s.ids, x)
	if len(s.ids)-s.n > max(s.n, 16) {
		s.normalize(vertices)
	}
}

// set puts x in a dense set.
func (s *Set) set(x uint32) {
	if w, b := x>>6, uint64(1)<<(x&63); s.words[w]&b == 0 {
		s.words[w] |= b
		s.n++
	}
}

// normalize sorts a list and turns it dense if its ids would take more
// bytes than its words would.
func (s *Set) normalize(vertices uint32) {
	if words := int((uint64(vertices) + 63) / 64); s.words == nil && 4*s.Len() > 8*words {
		s.densify(words)
	}
}

// densify turns a list into a dense set of words words.
func (s *Set) densify(words int) {
	ids := s.ids
	s.ids, s.n, s.words = nil, 0, make([]uint64, words)
	for _, x := range ids {
		s.set(x)
	}
}

// Len returns the number of ids in s. It sorts a list's appended ids in
// and drops the repeats, but leaves the form to normalize.
func (s *Set) Len() int {
	if s.words == nil {
		slices.Sort(s.ids)
		s.ids = slices.Compact(s.ids)
		s.n = len(s.ids)
	}
	return s.n
}

// SizeBytes is the memory s holds: 4 bytes per listed id, 8 per word.
func (s *Set) SizeBytes() int { return 4*len(s.ids) + 8*len(s.words) }

// fold adds t's ids to s and normalizes s, so a domain orbit's form
// depends only on its size, not on how its ids were split into tallies
// or threads. A dense t holds more ids than a list may, so s turns dense.
func (s *Set) fold(t *Set, vertices uint32) {
	switch {
	case t.words != nil:
		if s.words == nil {
			s.densify(len(t.words))
		}
		s.n = 0
		for i, w := range t.words {
			s.words[i] |= w
			s.n += bits.OnesCount64(s.words[i])
		}
	case s.words != nil:
		for _, x := range t.ids {
			s.set(x)
		}
	default:
		s.ids = append(s.ids, t.ids...)
		s.normalize(vertices)
	}
}
