package core

// Sorted-set primitives over adjacency lists. The engine's inner loops
// are intersections and differences of sorted uint32 slices (paper §4.1:
// "identifying matches using simple graph traversals and adjacency list
// intersection operations"), so these are written as tuned kernels:
// uint32-specialized, closure-free (no sort.Search in any hot loop),
// allocation-free (callers pass destination buffers reused across
// recursion levels), and selected adaptively by size skew — a
// branch-lean linear merge for comparable lengths, galloping when one
// list dwarfs the other. Sorted lists are the only adjacency form.
//
// # Result ownership
//
// intersectSetsInto has a split ownership contract that every caller
// must respect:
//
//   - With a SINGLE input list the result is a clipped VIEW into the
//     caller's list — for the engine, a view into graph adjacency
//     storage, possibly an mmap-backed read-only mapping. Writing into
//     it corrupts the graph (or faults on a read-only mapping).
//   - With two or more lists the result is written into buf and owns
//     no graph storage; it may grow past buf's capacity, in which case
//     the caller may adopt the grown buffer for reuse.
//
// Callers that need a uniformly writable result must copy the
// single-list case; the engine instead treats every candidate set as
// read-only (see multiWorker.descend and worker.completeFrom).

// unbounded marks an absent id bound; ids are uint32 so int64 sentinels
// never collide with real values.
const (
	noLo = int64(-1)
	noHi = int64(1) << 40
)

// Kernel-selection thresholds. These are deliberately named constants
// so the selection policy is testable on its own (see
// TestKernelSelectionProperties in setops_test.go).
const (
	// gallopRatio is the length skew |big|/(|small|+1) at which probing
	// each element of the small list into the big one (galloping
	// exponential search) beats the linear merge.
	gallopRatio = 16

	// skipMin is the operand length from which intersectSetsInto starts
	// a non-driver operand it merges at the running set's first element,
	// found by one gallop, instead of at its own first element: with the
	// driver clipped to a symmetry-breaking window, most of a long operand
	// lies below it, and a merge would walk all of that.
	skipMin = 64
)

// lowerBound returns the least index i with s[i] >= x — a
// closure-free sort.SearchInts specialized to uint32.
func lowerBound(s []uint32, x uint32) int {
	lo, hi := 0, len(s)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// upperBound returns the least index i with s[i] > x.
func upperBound(s []uint32, x uint32) int {
	lo, hi := 0, len(s)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid] <= x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// gallopLowerBound returns the least index i >= from with s[i] >= x,
// probing exponentially from `from` before binary-searching the
// bracketed range. Callers advance `from` monotonically, so the cost
// per probe is logarithmic in the gap since the last match rather than
// in len(s).
func gallopLowerBound(s []uint32, from int, x uint32) int {
	if from >= len(s) || s[from] >= x {
		return from
	}
	lo, step := from, 1
	for lo+step < len(s) && s[lo+step] < x {
		lo += step
		step <<= 1
	}
	hi := lo + step
	if hi > len(s) {
		hi = len(s)
	}
	lo++ // s[lo] < x already established
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// clip returns the subslice of sorted s whose elements x satisfy
// lo < x < hi (both bounds exclusive). The unbounded case — both
// sentinels, e.g. every anti-vertex common-neighborhood check — returns
// s itself without any search.
func clip(s []uint32, lo, hi int64) []uint32 {
	if lo == noLo && hi == noHi {
		return s
	}
	i := 0
	if lo != noLo {
		i = upperBound(s, uint32(lo))
	}
	j := len(s)
	if hi != noHi {
		j = lowerBound(s, uint32(hi))
	}
	if i >= j {
		return s[:0]
	}
	return s[i:j]
}

// intersectMerge writes the intersection of sorted a and b into dst by
// linear merge. The three-way compare is a plain branch chain: measured
// against a "branch-free" two-condition variant (both advances as
// independent <= comparisons) the branchy form is consistently faster
// here — the advance direction is predictable enough that speculation
// beats the extra executed compares.
func intersectMerge(dst []uint32, a, b []uint32) []uint32 {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		x, y := a[i], b[j]
		if x < y {
			i++
		} else if x > y {
			j++
		} else {
			dst = append(dst, x)
			i++
			j++
		}
	}
	return dst
}

// intersectGallop writes the intersection of sorted small and big into
// dst by galloping each element of small through big from the previous
// position — the kernel for hub-vs-leaf skew, where |big| >> |small|.
func intersectGallop(dst []uint32, small, big []uint32) []uint32 {
	j := 0
	for _, x := range small {
		j = gallopLowerBound(big, j, x)
		if j == len(big) {
			break
		}
		if big[j] == x {
			dst = append(dst, x)
			j++
		}
	}
	return dst
}

// intersectInPlace retains only the elements of dst present in sorted b,
// compacting dst forward. It adapts to skew like intersectSetsInto:
// galloping probes when b dwarfs dst, a linear scan otherwise.
func intersectInPlace(dst []uint32, b []uint32) []uint32 {
	if len(dst) == 0 || len(b) == 0 {
		return dst[:0]
	}
	w := 0
	if len(b)/(len(dst)+1) >= gallopRatio {
		j := 0
		for _, x := range dst {
			j = gallopLowerBound(b, j, x)
			if j == len(b) {
				break
			}
			if b[j] == x {
				dst[w] = x
				w++
				j++
			}
		}
		return dst[:w]
	}
	j := 0
	for _, x := range dst {
		for j < len(b) && b[j] < x {
			j++
		}
		if j == len(b) {
			break
		}
		if b[j] == x {
			dst[w] = x
			w++
			j++
		}
	}
	return dst[:w]
}

// containsSorted reports whether sorted s contains x.
func containsSorted(s []uint32, x uint32) bool {
	i := lowerBound(s, x)
	return i < len(s) && s[i] == x
}

// countPairs sizes the cross product of sorted a and b by order without
// walking it: less is the number of pairs (x, y), x in a, y in b, with
// x < y, and eq is |a ∩ b|; the pairs with x > y are the remainder,
// len(a)*len(b) - less - eq. One pass serves all three, which is what
// count mode needs to size two completion levels at once. Like the
// intersection kernels it adapts to skew: past gallopRatio it walks the
// shorter list and gallops through the longer, so the cost follows the
// shorter side; comparable lengths merge linearly.
func countPairs(a, b []uint32) (less, eq uint64) { return countPairsSkew(a, b, gallopRatio) }

// countPairsSkew is countPairs galloping from length skew ratio on:
// gallopRatio, or, for the test that times the skew branches against the
// merge in this same body, never.
func countPairsSkew(a, b []uint32, ratio int) (less, eq uint64) {
	switch {
	case len(a) == 0 || len(b) == 0:
		return 0, 0
	case len(b)/(len(a)+1) >= ratio:
		// Few x, many y: each x is below everything in b past its slot.
		j := 0
		for _, x := range a {
			j = gallopLowerBound(b, j, x)
			if j == len(b) {
				break
			}
			above := len(b) - j
			if b[j] == x {
				eq++
				above--
			}
			less += uint64(above)
		}
		return less, eq
	case len(a)/(len(b)+1) >= ratio:
		// Many x, few y: each y is above everything in a before its slot.
		i := 0
		for _, y := range b {
			i = gallopLowerBound(a, i, y)
			less += uint64(i)
			if i < len(a) && a[i] == y {
				eq++
			}
		}
		return less, eq
	}
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		x, y := a[i], b[j]
		if x < y {
			i++
			continue
		}
		less += uint64(i) // a[:i] is exactly the part of a below y
		if x == y {
			eq++
		}
		j++
	}
	// a is exhausted: every remaining y is above all of it.
	less += uint64(len(b)-j) * uint64(len(a))
	return less, eq
}

// countPairsExcluding returns the number of pairs (x, y), x in sorted a
// and y in sorted b, that use no member of skip and are ordered x < y
// (order > 0), x > y (order < 0) or merely distinct (order == 0). skip
// is a partial match — short, unsorted, no id twice — so it is never
// removed from the lists: the pairs are sized over the raw lists by
// countPairs and corrected by a few binary searches per member of skip.
func countPairsExcluding(a, b, skip []uint32, order int) uint64 {
	if order == 0 {
		// |A'|·|B'| − |A' ∩ B'|, where X' is X less skip.
		_, both := countPairs(a, b)
		na, nb := uint64(len(a)), uint64(len(b))
		for _, s := range skip {
			inA, inB := containsSorted(a, s), containsSorted(b, s)
			if inA {
				na--
			}
			if inB {
				nb--
			}
			if inA && inB {
				both--
			}
		}
		return na*nb - both
	}
	if order < 0 {
		a, b = b, a // x > y over (a, b) is x < y over (b, a)
	}
	// Pairs x < y over the raw lists, less those with a member of skip on
	// either side, plus those with one on both (taken out twice). uint64
	// wrap-around between the steps is harmless: the final value is a
	// count.
	n, _ := countPairs(a, b)
	for _, s := range skip {
		i, j := lowerBound(a, s), lowerBound(b, s)
		if j < len(b) && b[j] == s {
			n -= uint64(i) // (x, s) for x < s
			j++
		}
		if i < len(a) && a[i] == s {
			n -= uint64(len(b) - j) // (s, y) for y > s
			for _, t := range skip {
				if t > s && containsSorted(b, t) {
					n++ // (s, t)
				}
			}
		}
	}
	return n
}

// gallops reports whether intersecting a driver of length small against
// a list of length big should gallop through the list rather than merge.
func gallops(small, big int) bool { return big/(small+1) >= gallopRatio }

// intersectSetsInto intersects all sorted lists, clipped to (lo, hi),
// writing the result into buf (whose contents are overwritten). lists
// must be non-empty. The shortest list drives: the first operand is
// galloped or merged against it as gallops says, and every later one
// filters the running set in place.
//
// Ownership: for a SINGLE list the result is a clipped view of that
// list — no copy, and the caller must treat it as read-only (for the
// engine it aliases graph adjacency storage, possibly an mmap-backed
// read-only mapping). For two or more lists the result is caller-owned
// buf storage. See the package comment.
func intersectSetsInto(buf []uint32, lists [][]uint32, lo, hi int64) []uint32 {
	return intersectSetsSkip(buf, lists, lo, hi, skipMin)
}

// intersectSetsSkip is intersectSetsInto skipping into operands from
// length skip on: skipMin, or, for the test that times the skip against
// this same body without it, never.
func intersectSetsSkip(buf []uint32, lists [][]uint32, lo, hi int64, skip int) []uint32 {
	// Start from the shortest list: intersection size is bounded by it.
	shortest := 0
	for i, l := range lists {
		if len(l) < len(lists[shortest]) {
			shortest = i
		}
	}
	cur := clip(lists[shortest], lo, hi)
	if len(lists) == 1 {
		return cur // aliased view — see the ownership contract
	}
	if len(cur) == 0 {
		return buf[:0]
	}
	out := cur // the running set; buf storage from the first kernel on
	first := true
	for i, l := range lists {
		if i == shortest {
			continue
		}
		if len(l) >= skip && !gallops(len(out), len(l)) {
			// Nothing below the running set's first element can match, and a
			// merge would walk all of it (a gallop's first probe skips it
			// anyway). The skip lives here so that the kernels below stay
			// inlinable.
			l = l[gallopLowerBound(l, 0, out[0]):]
		}
		switch {
		case !first:
			out = intersectInPlace(out, l)
		case gallops(len(out), len(l)):
			out = intersectGallop(buf[:0], out, l)
		default:
			out = intersectMerge(buf[:0], out, l)
		}
		first = false
		if len(out) == 0 {
			return out
		}
	}
	return out
}
