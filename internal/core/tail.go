package core

// Count mode's tails: completion levels a run with no callback sizes
// instead of walking (see the package comment).

import (
	"math/bits"

	"peregrine/internal/plan"
)

// sizeTail returns the number of ways to complete the match through the
// plan's Tail, which starts at the current level, without walking any of
// it: one set per class, the class's slot or its own intersection
// clipped to the class's window, then the tail's closed form
// (tailCounter.count), whose merges count as intersections of r's plan.
func (mw *multiWorker) sizeTail(r *planRow) uint64 {
	tc := r.tail
	for c := range tc.tl.Classes {
		cl := &tc.tl.Classes[c]
		set, ok := mw.levelSet(r, cl.Step, cl.Lower, cl.Upper)
		if !ok || len(set) < cl.Size {
			return 0
		}
		tc.sets[c] = set
	}
	n, merges := tc.count(mw.assigned)
	r.stats.Intersections += merges
	return n
}

// tailCounter sizes a plan.Tail for one plan on one thread: given each class's
// candidate set and the vertices already matched, it evaluates the tail's
// terms without walking any of its levels. Its slices are scratch reused
// across core matches.
type tailCounter struct {
	tl     *plan.Tail
	sets   [][]uint32 // per class: its candidate set, sorted, read-only
	size   []uint64   // per subset: vertices in all its sets, less matched ones
	member []uint32   // per matched vertex: the classes whose sets hold it
	lists  [][]uint32 // scratch for gathering a subset's sets
	buf    []uint32   // scratch for the sets of a subset of three or more
}

func newTailCounter(tl *plan.Tail) *tailCounter {
	return &tailCounter{
		tl:    tl,
		sets:  make([][]uint32, len(tl.Classes)),
		size:  make([]uint64, len(tl.Subsets)),
		lists: make([][]uint32, 0, len(tl.Classes)),
	}
}

// count returns the number of placements of the tail's vertices: each in
// its class's set, none in skip (a partial match: short, unsorted, no id
// twice), no two on one vertex, every class in its chain order — and how
// many merges of two or more sets it took. tc.sets must hold every
// class's set.
func (tc *tailCounter) count(skip []uint32) (n, merges uint64) {
	tl := tc.tl
	tc.member = tc.member[:0]
	for range skip {
		tc.member = append(tc.member, 0)
	}
	// The class sets first: a class with fewer usable candidates than
	// vertices places none, and the merges need not run.
	for c, s := range tc.sets {
		m := uint64(len(s))
		for i, v := range skip {
			if containsSorted(s, v) {
				tc.member[i] |= 1 << c
				m--
			}
		}
		if m < uint64(tl.Classes[c].Size) {
			return 0, 0
		}
		tc.size[c] = m
	}
	for i := len(tl.Classes); i < len(tl.Subsets); i++ {
		mask := tl.Subsets[i]
		lists := tc.lists[:0]
		for c, s := range tc.sets {
			if mask>>c&1 == 1 {
				lists = append(lists, s)
			}
		}
		a, b := lists[0], lists[len(lists)-1]
		if len(lists) > 2 {
			a = intersectSetsInto(tc.buf, lists[:len(lists)-1], noLo, noHi)
			tc.buf = a[:0] // two or more lists: buf storage, kept however grown
		}
		m := intersectCount(a, b)
		for _, in := range tc.member {
			if in&mask == mask {
				m--
			}
		}
		tc.size[i] = m
		merges++
	}
	n, _ = evalTail(tl, tc.size)
	return n, merges
}

// fitTail returns the tail a count sizes for pl on a graph whose largest
// degree is maxDeg: pl.Tail when its terms fit 128 bits there
// (tailFits), else the longest suffix of it that fits — a two-step one
// always does — or nil when pl has no Tail. It runs once per plan per
// thread, never per core match.
func fitTail(pl *plan.Plan, maxDeg uint32) *plan.Tail {
	tl := pl.Tail
	for tl != nil && !tailFits(tl, maxDeg) {
		tl = plan.TailOf(pl, tl.Start+1)
	}
	return tl
}

// tailFits reports whether evalTail is exact for tl on a graph whose
// largest degree is maxDeg: every subset size is at most maxDeg, so when
// the sums of positive and of negative terms at maxDeg fit in 128 bits,
// they fit at any sizes a core match produces.
func tailFits(tl *plan.Tail, maxDeg uint32) bool {
	size := make([]uint64, len(tl.Subsets))
	for i := range size {
		size[i] = uint64(maxDeg)
	}
	_, ok := evalTail(tl, size)
	return ok
}

// evalTail evaluates tl's terms at the subset sizes size and divides by
// tl.Div. It works in 128 bits, since a term grows as a size to the
// tail's length and overflows 64 bits long before the count does; ok is
// false if a term or a sum overflowed 128 bits. A count past 64 bits
// keeps its low 64, as a walk's uint64 tally would.
func evalTail(tl *plan.Tail, size []uint64) (n uint64, ok bool) {
	var pos, neg u128
	ok = true
	for _, t := range tl.Terms {
		sum, coef := &pos, t.Coef
		if coef < 0 {
			sum, coef = &neg, -coef
		}
		v := u128{lo: uint64(coef)}
		for _, f := range t.Factors {
			var fits bool
			v, fits = v.mul(size[f])
			ok = ok && fits
		}
		var fits bool
		*sum, fits = sum.add(v)
		ok = ok && fits
	}
	return pos.sub(neg).div(tl.Div), ok
}

// u128 is an unsigned 128-bit integer.
type u128 struct{ hi, lo uint64 }

// mul returns x·y and whether it fits in 128 bits.
func (x u128) mul(y uint64) (u128, bool) {
	hi, lo := bits.Mul64(x.lo, y)
	over, mid := bits.Mul64(x.hi, y)
	hi, carry := bits.Add64(hi, mid, 0)
	return u128{hi, lo}, over == 0 && carry == 0
}

// add returns x+y and whether it fits in 128 bits.
func (x u128) add(y u128) (u128, bool) {
	lo, carry := bits.Add64(x.lo, y.lo, 0)
	hi, carry := bits.Add64(x.hi, y.hi, carry)
	return u128{hi, lo}, carry == 0
}

// sub returns x−y for y ≤ x.
func (x u128) sub(y u128) u128 {
	lo, borrow := bits.Sub64(x.lo, y.lo, 0)
	hi, _ := bits.Sub64(x.hi, y.hi, borrow)
	return u128{hi, lo}
}

// div returns the low 64 bits of x/d.
func (x u128) div(d uint64) uint64 {
	q, _ := bits.Div64(x.hi%d, x.lo, d)
	return q
}
