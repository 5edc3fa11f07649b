package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"

	"peregrine/internal/bitset"
)

// ---- legacy kernels ------------------------------------------------------
//
// Verbatim copies of the sort.Search-based kernels this PR replaced,
// kept as the baseline the BenchmarkSetOps suite and the CI speedup
// gate compare against (acceptance: >= 1.5x intersections/sec on
// skewed hub-vs-leaf inputs).

func legacyClip(s []uint32, lo, hi int64) []uint32 {
	i := sort.Search(len(s), func(i int) bool { return int64(s[i]) > lo })
	j := sort.Search(len(s), func(j int) bool { return int64(s[j]) >= hi })
	if i >= j {
		return s[:0]
	}
	return s[i:j]
}

func legacyIntersect2Into(dst []uint32, a, b []uint32) []uint32 {
	if len(a) > len(b) {
		a, b = b, a
	}
	if len(a) == 0 {
		return dst
	}
	if len(b)/(len(a)+1) >= 16 {
		lo := 0
		for _, x := range a {
			i := lo + sort.Search(len(b)-lo, func(i int) bool { return b[lo+i] >= x })
			if i < len(b) && b[i] == x {
				dst = append(dst, x)
				lo = i + 1
			} else {
				lo = i
			}
			if lo >= len(b) {
				break
			}
		}
		return dst
	}
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			dst = append(dst, a[i])
			i++
			j++
		}
	}
	return dst
}

// ---- inputs --------------------------------------------------------------

// benchLists builds a deterministic pair of sorted lists with the given
// sizes over a shared key space, ~50% overlap on the smaller list.
func benchLists(seed int64, nSmall, nBig int, span uint32) (small, big []uint32) {
	rng := rand.New(rand.NewSource(seed))
	big = sortedRand(rng, nBig, span)
	// Half the small list drawn from big (hits), half fresh (misses).
	seen := make(map[uint32]bool)
	for i := 0; len(seen) < nSmall/2 && i < nSmall*4 && len(big) > 0; i++ {
		seen[big[rng.Intn(len(big))]] = true
	}
	for len(seen) < nSmall {
		seen[rng.Uint32()%span] = true
	}
	small = make([]uint32, 0, len(seen))
	for v := uint32(0); v < span; v++ {
		if seen[v] {
			small = append(small, v)
		}
	}
	return small, big
}

// setOpsCases is the size/skew grid BenchmarkSetOps runs for both kernel
// generations; the skewed rows are the hub-vs-leaf shapes the tentpole
// targets.
var setOpsCases = []struct {
	name         string
	nSmall, nBig int
	span         uint32
}{
	{"balanced-1kx1k", 1024, 1024, 1 << 14},
	{"skew-64x16k", 64, 16384, 1 << 18},
	{"skew-256x64k", 256, 65536, 1 << 20},
	{"dense-4kx8k", 4096, 8192, 1 << 14},
}

// intsPerSec reports the custom intersections/sec metric.
func intsPerSec(b *testing.B) {
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "ints/s")
}

func BenchmarkSetOpsIntersect(b *testing.B) {
	for _, c := range setOpsCases {
		small, big := benchLists(1, c.nSmall, c.nBig, c.span)
		buf := make([]uint32, 0, c.nSmall)
		lists := [][]uint32{small, big}
		b.Run(c.name+"/tuned", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				buf = intersectSetsInto(buf[:0], lists, nil, noLo, noHi)
			}
			intsPerSec(b)
		})
		b.Run(c.name+"/legacy", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				buf = legacyIntersect2Into(buf[:0], small, big)
			}
			intsPerSec(b)
		})
	}
}

// hubBitmap builds a hub adjacency bitmap the way the engine does
// (graph.BuildHubBitsets): dense chunks at a low threshold so
// membership tests are O(1) word operations.
func hubBitmap(vals []uint32) *bitset.Bitmap {
	return bitset.FromSortedDense(vals, 512)
}

func BenchmarkSetOpsBitset(b *testing.B) {
	small, big := benchLists(2, 256, 65536, 1<<20)
	bigBits := hubBitmap(big)
	buf := make([]uint32, 0, len(small))
	b.Run("filter-256x64k", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			buf = bigBits.FilterSortedInto(buf[:0], small)
		}
		intsPerSec(b)
	})
	hubA, hubB := benchLists(3, 8192, 8192, 1<<18)
	bitsA, bitsB := hubBitmap(hubA), hubBitmap(hubB)
	out := make([]uint32, 0, len(hubA))
	b.Run("and-8kx8k", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			out = bitsA.AndSortedInto(out[:0], bitsB)
		}
		intsPerSec(b)
	})
	_ = out
}

// BenchmarkSetOpsHubPath compares the full engine paths on hub-vs-leaf
// inputs: the tuned dispatcher with a hub bitmap (what the engine runs
// after BuildHubBitsets) against the legacy sort.Search gallop it
// replaced. This is the pairing the CI speedup gate enforces.
func BenchmarkSetOpsHubPath(b *testing.B) {
	small, big := benchLists(5, 64, 16384, 1<<18)
	bigBits := hubBitmap(big)
	lists := [][]uint32{small, big}
	bits := []*bitset.Bitmap{nil, bigBits}
	buf := make([]uint32, 0, len(small))
	b.Run("skew-64x16k/tuned", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			buf = intersectSetsInto(buf[:0], lists, bits, noLo, noHi)
		}
		intsPerSec(b)
	})
	b.Run("skew-64x16k/legacy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			buf = legacyIntersect2Into(buf[:0], small, big)
		}
		intsPerSec(b)
	})
}

// BenchmarkSetOpsClip covers the clip satellite: the unbounded
// sentinel case (the early-return bugfix) against bounded clips and the
// legacy double-sort.Search version.
func BenchmarkSetOpsClip(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	s := sortedRand(rng, 4096, 1<<16)
	var got []uint32
	b.Run("unbounded/tuned", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			got = clip(s, noLo, noHi)
		}
		intsPerSec(b)
	})
	b.Run("unbounded/legacy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			got = legacyClip(s, noLo, noHi)
		}
		intsPerSec(b)
	})
	lo, hi := int64(s[len(s)/4]), int64(s[3*len(s)/4])
	b.Run("bounded/tuned", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			got = clip(s, lo, hi)
		}
		intsPerSec(b)
	})
	b.Run("bounded/legacy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			got = legacyClip(s, lo, hi)
		}
		intsPerSec(b)
	})
	_ = got
}

// TestSkewedKernelSpeedup is the acceptance gate: on hub-vs-leaf skewed
// inputs the engine's tuned path — the adaptive dispatcher with the
// hub's adjacency in dense bitmap form, exactly what RunPlans executes
// after BuildHubBitsets — must deliver >= 1.5x the intersections/sec
// of the legacy sort.Search gallop it replaced. Measured as a ratio on
// the same machine in the same process, so it is hardware-independent.
func TestSkewedKernelSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	small, big := benchLists(5, 64, 16384, 1<<18)
	lists := [][]uint32{small, big}
	bits := []*bitset.Bitmap{nil, hubBitmap(big)}
	buf := make([]uint32, 0, len(small))
	run := func(fn func()) float64 {
		best := 0.0
		// Best-of-3 to shrug off scheduler noise.
		for trial := 0; trial < 3; trial++ {
			r := testing.Benchmark(func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					fn()
				}
			})
			if ops := float64(r.N) / r.T.Seconds(); ops > best {
				best = ops
			}
		}
		return best
	}
	tuned := run(func() { buf = intersectSetsInto(buf[:0], lists, bits, noLo, noHi) })
	legacy := run(func() { buf = legacyIntersect2Into(buf[:0], small, big) })
	ratio := tuned / legacy
	t.Logf("skewed 64x16k: tuned %.0f ints/s, legacy %.0f ints/s, ratio %.2fx", tuned, legacy, ratio)
	if ratio < 1.5 {
		t.Fatalf("tuned kernels only %.2fx legacy on skewed inputs, want >= 1.5x", ratio)
	}
}

// walkPairs is the per-candidate walk countPairsExcluding replaced, at
// its cheapest: for each usable x of a, one clip of b to the side of x
// the order admits (above it for order > 0, below it otherwise) and a
// probe of the clipped list per member of skip. The engine's walk also
// recomputed bounds and gathered lists per candidate, and always walked
// the second-to-last level's set, however long.
func walkPairs(a, b, skip []uint32, order int) uint64 {
	var n uint64
walk:
	for _, x := range a {
		for _, s := range skip {
			if s == x {
				continue walk
			}
		}
		lo, hi := int64(x), noHi
		if order < 0 {
			lo, hi = noLo, int64(x)
		}
		c := clip(b, lo, hi)
		m := len(c)
		for _, s := range skip {
			if containsSorted(c, s) {
				m--
			}
		}
		n += uint64(m)
	}
	return n
}

// TestSkewedPairKernelNoSlower gates the pair kernel on skew: sizing a
// 4-element set against a hub's 16k-element one, either way round, must
// not cost more than walking the short set and clipping the long one —
// the loop it replaced. A ratio taken in one process on one machine,
// with 10 % allowed for noise; the kernel earns its keep on comparable
// lengths, here it only has to do no harm.
func TestSkewedPairKernelNoSlower(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	short, long := benchLists(7, 4, 16384, 1<<18)
	// A partial match's worth of ids: in both lists, in one, in neither.
	skip := []uint32{short[1], long[len(long)/3], 1<<18 + 1, 1<<18 + 2}
	var sink uint64
	for _, c := range []struct {
		name string
		a, b []uint32 // countPairsExcluding's operands, x in a below y in b
	}{
		{"4 x 16k", short, long},
		{"16k x 4", long, short},
	} {
		// The walk iterates the short list in both cases; with the short
		// list second it counts, for each y, the x below it.
		walk := func() uint64 { return walkPairs(c.a, c.b, skip, 1) }
		if len(c.a) > len(c.b) {
			walk = func() uint64 { return walkPairs(c.b, c.a, skip, -1) }
		}
		if got, want := countPairsExcluding(c.a, c.b, skip, 1), walk(); got != want {
			t.Fatalf("%s: kernel counts %d pairs, the walk %d", c.name, got, want)
		}
		// Alternating short trials, the fastest of each side: the minimum
		// is what the code costs when nothing else ran.
		const trials, calls = 40, 20000
		kernel, legacy := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
		for trial := 0; trial < trials; trial++ {
			start := time.Now()
			for i := 0; i < calls; i++ {
				sink += countPairsExcluding(c.a, c.b, skip, 1)
			}
			mid := time.Now()
			for i := 0; i < calls; i++ {
				sink += walk()
			}
			kernel = min(kernel, mid.Sub(start))
			legacy = min(legacy, time.Since(mid))
		}
		ratio := float64(legacy) / float64(kernel)
		t.Logf("%s: kernel %v, walk %v per %d calls, ratio %.2fx", c.name, kernel, legacy, calls, ratio)
		if ratio < 0.9 {
			t.Errorf("%s: pair kernel at %.2fx the speed of the walk it replaced, want >= 0.9x", c.name, ratio)
		}
	}
	_ = sink
}

// unskippedIntersectSetsInto is intersectSetsInto as it was before the
// operand skip: every non-driver operand is walked from its first
// element. Kept verbatim as the baseline TestOperandSkipSpeedup measures
// the skip against.
func unskippedIntersectSetsInto(buf []uint32, lists [][]uint32, bits []*bitset.Bitmap, lo, hi int64) []uint32 {
	shortest := 0
	for i, l := range lists {
		if len(l) < len(lists[shortest]) {
			shortest = i
		}
	}
	cur := clip(lists[shortest], lo, hi)
	if len(lists) == 1 {
		return cur
	}
	if len(cur) == 0 {
		return buf[:0]
	}
	bounded := lo != noLo || hi != noHi
	var curBits *bitset.Bitmap
	if bits != nil {
		curBits = bits[shortest]
	}
	out := buf[:0]
	first := true
	for i, l := range lists {
		if i == shortest {
			continue
		}
		var bi *bitset.Bitmap
		if bits != nil {
			bi = bits[i]
		}
		if first {
			switch chooseKernel(len(cur), len(l), curBits != nil, bi != nil, bounded) {
			case kernelBitsetAnd:
				out = curBits.AndSortedInto(buf[:0], bi)
			case kernelBitsetFilter:
				out = bi.FilterSortedInto(buf[:0], cur)
			case kernelGallop:
				out = intersectGallop(buf[:0], cur, l)
			default:
				out = intersectMerge(buf[:0], cur, l)
			}
			first = false
		} else if bi != nil && len(l)/(len(out)+1) >= bitsetFilterRatio {
			out = bi.FilterSortedInto(out[:0], out)
		} else {
			out = intersectInPlace(out, l)
		}
		if len(out) == 0 {
			return out
		}
	}
	return out
}

// topDriver returns n ids above the 90th percentile of sorted l, half
// of them members of l: a short list clipped to the top of the id range,
// the shape a symmetry-breaking window leaves a completion set's driver.
func topDriver(rng *rand.Rand, l []uint32, n int) []uint32 {
	p90 := l[len(l)*9/10]
	top := l[len(l)*9/10+1:]
	seen := make(map[uint32]bool, n)
	for len(seen) < n/2 {
		seen[top[rng.Intn(len(top))]] = true
	}
	for len(seen) < n {
		seen[p90+1+rng.Uint32()%(top[len(top)-1]-p90)] = true
	}
	out := make([]uint32, 0, n)
	for x := range seen {
		out = append(out, x)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TestOperandSkipSpeedup gates the operand skip in intersectSetsInto
// against the dispatcher without it, in one process (ROADMAP A(1)). Where
// the driver sits above the 90th percentile of a list short enough to be
// merged, the skip must pay (>= 1.5x); against a 16k-id list the
// dispatcher gallops, whose first probe is the skip's own search, and on
// balanced unbounded lists and ER-sized ones there is nothing below the
// driver to skip — there it must cost nothing (>= 0.9x).
func TestOperandSkipSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	rng := rand.New(rand.NewSource(9))
	mid := sortedRand(rng, 500, 1<<14)
	big := sortedRand(rng, 16384, 1<<18)
	bal1, bal2 := benchLists(10, 1024, 1024, 1<<14)
	er1, er2 := benchLists(11, 10, 10, 64)
	for _, c := range []struct {
		name  string
		lists [][]uint32
		calls int // per trial: a few milliseconds' worth
		min   float64
	}{
		{"32 above p90 of 500", [][]uint32{topDriver(rng, mid, 32), mid}, 20000, 1.5},
		{"32 above p90 of 16k", [][]uint32{topDriver(rng, big, 32), big}, 20000, 0.9},
		{"balanced 1k x 1k", [][]uint32{bal1, bal2}, 2000, 0.9},
		{"ER 10 x 10", [][]uint32{er1, er2}, 200000, 0.9},
	} {
		buf := make([]uint32, 0, 1024)
		want := refIntersect(c.lists, noLo, noHi)
		if got := intersectSetsInto(buf, c.lists, nil, noLo, noHi); !equalU32(got, want) {
			t.Fatalf("%s: %v, want %v", c.name, got, want)
		}
		// Alternating short trials, the fastest of each side.
		skip, plain := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
		for trial := 0; trial < 40; trial++ {
			start := time.Now()
			for i := 0; i < c.calls; i++ {
				buf = intersectSetsInto(buf[:0], c.lists, nil, noLo, noHi)
			}
			mid := time.Now()
			for i := 0; i < c.calls; i++ {
				buf = unskippedIntersectSetsInto(buf[:0], c.lists, nil, noLo, noHi)
			}
			skip = min(skip, mid.Sub(start))
			plain = min(plain, time.Since(mid))
		}
		ratio := float64(plain) / float64(skip)
		t.Logf("%s: skip %v, unskipped %v per %d calls, ratio %.2fx", c.name, skip, plain, c.calls, ratio)
		if ratio < c.min {
			t.Errorf("%s: skip at %.2fx the unskipped dispatcher, want >= %.2fx", c.name, ratio, c.min)
		}
	}
}
