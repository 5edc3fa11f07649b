package mni

import "slices"

// Set is a set of data vertex ids, held in one of two forms with no
// pointers below its slices. A list holds ids, of which ids[:n] are
// sorted and unique and the rest were appended since. A dense set holds
// one bit per data vertex in words, and its size in n. Every set starts
// as a list; only a domain's orbit set turns dense, in Fold, once its
// ids would take more bytes than the words.
type Set struct {
	ids   []uint32
	words []uint64
	n     int
}

// Add puts x in s. A list appends x, unless x repeats the id appended
// last (consecutive matches of one task share most of their images), and
// sorts the appended ids in once they outnumber the sorted ones (at
// least 16 of them), so a warmed set does not allocate.
func (s *Set) Add(x uint32) {
	if s.words != nil {
		s.set(x)
		return
	}
	if len(s.ids) > 0 && s.ids[len(s.ids)-1] == x {
		return
	}
	s.ids = append(s.ids, x)
	if len(s.ids)-s.n > max(s.n, 16) {
		s.normalize()
	}
}

// set puts x in a dense set.
func (s *Set) set(x uint32) {
	if w, b := x>>6, uint64(1)<<(x&63); s.words[w]&b == 0 {
		s.words[w] |= b
		s.n++
	}
}

// normalize sorts a list's ids and drops the repeats.
func (s *Set) normalize() {
	slices.Sort(s.ids)
	s.ids = slices.Compact(s.ids)
	s.n = len(s.ids)
}

// Len returns the number of ids in s.
func (s *Set) Len() int {
	if s.words == nil {
		s.normalize()
	}
	return s.n
}

// SizeBytes is the memory s holds: 4 bytes per listed id, 8 per word.
func (s *Set) SizeBytes() int { return 4*len(s.ids) + 8*len(s.words) }

// fold adds ids to s, a domain orbit set of at most words dense words.
// A list is normalized after every fold and turns dense as soon as its
// 4 bytes per id exceed the words' 8 each, so its form depends only on
// its size, not on how its ids were split into tallies or threads.
func (s *Set) fold(ids []uint32, words int) {
	if s.words == nil {
		s.ids = append(s.ids, ids...)
		s.normalize()
		if 4*s.n <= 8*words {
			return
		}
		ids, s.ids, s.n = s.ids, nil, 0
		s.words = make([]uint64, words)
	}
	for _, x := range ids {
		s.set(x)
	}
}
