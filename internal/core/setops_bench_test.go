package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// ---- legacy kernels ------------------------------------------------------
//
// Verbatim copies of the sort.Search-based kernels the tuned ones
// replaced, kept as the baseline BenchmarkSetOpsIntersect and
// BenchmarkSetOpsClip compare against.

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
// generations; the skewed rows are hub-vs-leaf shapes.
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
				buf = intersectSetsInto(buf[:0], lists, noLo, noHi)
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

// fastest times f and g in short trials, alternating which runs first,
// and returns the fastest trial of each: the minimum is what the code
// costs when nothing else ran.
func fastest(trials int, f, g func()) (tf, tg time.Duration) {
	tf, tg = time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
	timed := func(h func()) time.Duration {
		start := time.Now()
		h()
		return time.Since(start)
	}
	for i := range trials {
		if i%2 == 0 {
			tf = min(tf, timed(f))
			tg = min(tg, timed(g))
		} else {
			tg = min(tg, timed(g))
			tf = min(tf, timed(f))
		}
	}
	return tf, tg
}

// TestSkewedPairKernelNoSlower gates countPairs' skew branches: sizing a
// 4-element set against a hub's 16k-element one, either way round, must
// cost at most a quarter of the linear merge the same body runs with
// galloping turned off (countPairsSkew's ratio argument). Both sides run
// one function, so where the linker places it moves them alike; the
// margin is wide because galloping reads a few dozen elements where the
// merge reads thousands.
func TestSkewedPairKernelNoSlower(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	short, long := benchLists(7, 4, 16384, 1<<18)
	var sink uint64
	for _, c := range []struct {
		name string
		a, b []uint32
	}{
		{"4 x 16k", short, long},
		{"16k x 4", long, short},
	} {
		l1, e1 := countPairs(c.a, c.b)
		l2, e2 := countPairsSkew(c.a, c.b, math.MaxInt)
		if l1 != l2 || e1 != e2 {
			t.Fatalf("%s: galloping sizes (%d, %d), the merge (%d, %d)", c.name, l1, e1, l2, e2)
		}
		const calls = 2000
		kernel, merge := fastest(40, func() {
			for range calls {
				l, _ := countPairs(c.a, c.b)
				sink += l
			}
		}, func() {
			for range calls {
				l, _ := countPairsSkew(c.a, c.b, math.MaxInt)
				sink += l
			}
		})
		ratio := float64(merge) / float64(kernel)
		t.Logf("%s: gallop %v, merge %v per %d calls, ratio %.1fx", c.name, kernel, merge, calls, ratio)
		if ratio < 4 {
			t.Errorf("%s: galloping at %.1fx the speed of the merge, want >= 4x", c.name, ratio)
		}
	}
	_ = sink
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
// against the same body with the skip turned off (intersectSetsSkip's
// skip argument), so that both sides sit wherever the linker put the one
// function: where a 32-id driver sits above the 90th percentile of a
// 500-id list, short enough to be merged, the skip must pay (>= 1.5x;
// about 5.5x measured). Elsewhere the skip is not entered — against a
// list the dispatcher gallops through, whose first probe does the skip's
// search, or one shorter than skipMin — or costs a probe or two, where
// the running set starts at the operand's start; timing those equal
// bodies measures only the machine's noise, so no row does.
func TestOperandSkipSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	rng := rand.New(rand.NewSource(9))
	mid := sortedRand(rng, 500, 1<<14)
	lists := [][]uint32{topDriver(rng, mid, 32), mid}
	buf := make([]uint32, 0, 1024)
	want := refIntersect(lists, noLo, noHi)
	if got := intersectSetsInto(buf, lists, noLo, noHi); !equalU32(got, want) {
		t.Fatalf("%v, want %v", got, want)
	}
	if got := intersectSetsSkip(buf, lists, noLo, noHi, math.MaxInt); !equalU32(got, want) {
		t.Fatalf("unskipped: %v, want %v", got, want)
	}
	const calls = 5000
	skip, plain := fastest(40, func() {
		for range calls {
			buf = intersectSetsInto(buf[:0], lists, noLo, noHi)
		}
	}, func() {
		for range calls {
			buf = intersectSetsSkip(buf[:0], lists, noLo, noHi, math.MaxInt)
		}
	})
	ratio := float64(plain) / float64(skip)
	t.Logf("skip %v, unskipped %v per %d calls, ratio %.2fx", skip, plain, calls, ratio)
	if ratio < 1.5 {
		t.Errorf("skip at %.2fx the unskipped dispatcher, want >= 1.5x", ratio)
	}
}
