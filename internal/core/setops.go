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
// Beside them sits the marked kernel: where one operand is held in a
// markSet, a bitmap over vertex ids (for the engine, the task vertex's
// list or a prefix slot's set), (*markSet).intersect scans the shortest
// other operand through the marks, one word load per candidate, and
// filters by the rest in place. markedDriver is its one selection rule;
// where it declines, the call is intersectSetsInto's. The result is the
// same sorted set under the same ownership contract.
//
// A scan stops at the window's bound instead of searching for it where
// the bound is where the scan starts: intersectMarked scans its driver
// up to hi, and (*markSet).countAbove, a sized clique level's count per
// candidate, scans from the top of a list down to lo. Only the bound on
// the other side is found by binary search, and clip skips even that
// for a list whose first and last ids are already inside the window.
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
// lo < x < hi (both bounds exclusive). A list the window cannot cut —
// its first and last ids already inside, as under both sentinels (every
// anti-vertex common-neighborhood check) or for a slot read in the
// window it was computed in — is s itself, after two compares and no
// search.
func clip(s []uint32, lo, hi int64) []uint32 {
	if len(s) == 0 || int64(s[0]) > lo && int64(s[len(s)-1]) < hi {
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
	if gallops(len(dst), len(b)) {
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

// intersectCount returns |a ∩ b| for sorted a and b without writing the
// intersection: what a count-mode tail needs of every class subset it
// merges. Like the intersection kernels it adapts to skew: past
// gallopRatio it walks the shorter list and gallops through the longer,
// so the cost follows the shorter side; comparable lengths merge
// linearly.
func intersectCount(a, b []uint32) uint64 { return intersectCountSkew(a, b, gallopRatio) }

// intersectCountSkew is intersectCount galloping from length skew ratio
// on: gallopRatio, or, for the test that times the gallop against the
// merge in this same body, never.
func intersectCountSkew(a, b []uint32, ratio int) (n uint64) {
	if len(a) > len(b) {
		a, b = b, a
	}
	if len(a) == 0 {
		return 0
	}
	if len(b)/(len(a)+1) >= ratio {
		j := 0
		for _, x := range a {
			j = gallopLowerBound(b, j, x)
			if j == len(b) {
				break
			}
			if b[j] == x {
				n++
				j++
			}
		}
		return n
	}
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		x, y := a[i], b[j]
		if x < y {
			i++
		} else if x > y {
			j++
		} else {
			n++
			i++
			j++
		}
	}
	return n
}

// gallops reports whether intersecting a driver of length small against
// a list of length big should gallop through the list rather than merge.
func gallops(small, big int) bool { return big >= gallopRatio*(small+1) }

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

// markSet is a bitmap over vertex ids that holds one sorted list at a
// time: a thread's marks of its task vertex's list, or of a prefix
// slot's set. A hold clears the list held before by walking that list,
// never by sweeping the bitmap, so it costs the two lists' lengths
// whatever the number of vertices.
type markSet struct {
	bits []uint64 // one bit per vertex id; allocated by the first hold
	held []uint32 // the list marked in bits
}

// hold marks sorted list s, whose ids are below n, in place of the list
// held until now.
func (ms *markSet) hold(s []uint32, n int) {
	if ms.bits == nil {
		ms.bits = make([]uint64, (n+63)/64)
	}
	ms.release()
	for _, x := range s {
		ms.bits[x>>6] |= 1 << (x & 63)
	}
	ms.held = s
}

// release unmarks the list held, walking it, and holds none.
func (ms *markSet) release() {
	for _, x := range ms.held {
		ms.bits[x>>6] &^= 1 << (x & 63)
	}
	ms.held = nil
}

// hit is the marked kernel's per-candidate test, one word load: 1 if x
// is in the held list, else 0.
func (ms *markSet) hit(x uint32) int { return int(ms.bits[x>>6] >> (x & 63) & 1) }

// count returns how many of s the marks hold: the marked kernel's scan,
// counting instead of writing.
func (ms *markSet) count(s []uint32) (n int) {
	for _, x := range s {
		n += ms.hit(x)
	}
	return n
}

// countAbove returns how many ids of s above lo the marks hold: count of
// clip(s, lo, noHi), scanned from the top down to the first id <= lo, so
// it reads only the ids it counts and one more, and searches nothing.
func (ms *markSet) countAbove(s []uint32, lo uint32) (n int) {
	for i := len(s) - 1; i >= 0 && s[i] > lo; i-- {
		n += ms.hit(s[i])
	}
	return n
}

// markedDriver is the selection rule of the marked kernel: m is the index
// of held in lists (the same storage, not merely equal contents) and d
// that of the shortest other list, or d < 0 where the marks do not pay —
// held is not among two or more lists, or every other list is so much
// longer than held that galloping held through it costs less than
// scanning it.
func markedDriver(lists [][]uint32, held []uint32) (m, d int) {
	m, d = -1, -1
	if len(lists) < 2 || len(held) == 0 {
		return m, d
	}
	for i, l := range lists {
		switch {
		case m < 0 && sameList(l, held):
			m = i
		case d < 0 || len(l) < len(lists[d]):
			d = i
		}
	}
	if m < 0 || gallops(len(held), len(lists[d])) {
		return m, -1
	}
	return m, d
}

// sameList reports whether a and b are one non-empty list: the same
// storage, not merely equal contents.
func sameList(a, b []uint32) bool {
	return len(a) > 0 && len(a) == len(b) && &a[0] == &b[0]
}

// intersect is intersectSetsInto through the marks where markedDriver
// says they pay: the same set, under the same ownership contract.
func (ms *markSet) intersect(buf []uint32, lists [][]uint32, lo, hi int64) []uint32 {
	m, d := markedDriver(lists, ms.held)
	if d < 0 {
		return intersectSetsInto(buf, lists, lo, hi)
	}
	return intersectMarked(buf, lists, m, d, ms, lo, hi)
}

// intersectMarked is intersectSetsInto for lists of which lists[m] is the
// list ms holds and lists[d] the driver markedDriver picked: it scans
// lists[d] inside (lo, hi) through the marks — one word load per
// candidate, however long the marked list — and filters the running set
// in place by every other list. The driver is clipped below lo by a
// search and scanned up to hi, where the scan stops: no search finds hi.
// The result is the same sorted set, in buf's storage, which grows to
// the length of the driver above lo.
func intersectMarked(buf []uint32, lists [][]uint32, m, d int, ms *markSet, lo, hi int64) []uint32 {
	drv := clip(lists[d], lo, noHi)
	if cap(buf) < len(drv) {
		buf = make([]uint32, len(drv), max(len(drv), 2*cap(buf)))
	}
	out, w := buf[:len(drv)], 0
	for _, x := range drv {
		if int64(x) >= hi {
			break
		}
		out[w] = x // branch-free: written always, kept if marked
		w += ms.hit(x)
	}
	out = out[:w]
	for i, l := range lists {
		if len(out) == 0 {
			break
		}
		if i != m && i != d {
			out = intersectInPlace(out, l)
		}
	}
	return out
}

// countSets returns the size of the intersection of one or two sorted
// lists inside (lo, hi): intersectSetsInto's set, counted, not written.
// Two lists go through ms's marks where markedDriver says they pay (ms
// may be nil); otherwise the clipped shorter list is galloped or merged
// through the other as intersectSetsInto would.
func countSets(lists [][]uint32, ms *markSet, lo, hi int64) uint64 {
	if len(lists) == 1 {
		return uint64(len(clip(lists[0], lo, hi)))
	}
	if ms != nil {
		if _, d := markedDriver(lists, ms.held); d >= 0 {
			return uint64(ms.count(clip(lists[d], lo, hi)))
		}
	}
	a, b := lists[0], lists[1]
	if len(b) < len(a) {
		a, b = b, a
	}
	return intersectCount(clip(a, lo, hi), b)
}

// countLevel returns countSets' size less the vertices of taken inside
// (lo, hi) and in every list: a count-mode completion level's matches,
// when taken holds the bindings its candidates may equal.
func countLevel(lists [][]uint32, ms *markSet, lo, hi int64, taken []uint32) uint64 {
	n := countSets(lists, ms, lo, hi)
next:
	for _, x := range taken {
		if int64(x) <= lo || int64(x) >= hi {
			continue
		}
		for _, l := range lists {
			if !containsSorted(l, x) {
				continue next
			}
		}
		n--
	}
	return n
}
