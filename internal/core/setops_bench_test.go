package core

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	"peregrine/internal/gen"
	"peregrine/internal/pattern"
	"peregrine/internal/plan"
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
		// The long list held in marks, as a task's list is: what each
		// intersection costs once the task has marked it.
		var ms markSet
		ms.hold(big, int(c.span))
		b.Run(c.name+"/marked", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				buf = ms.intersect(buf[:0], lists, noLo, noHi)
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

// TestSkewedPairKernelNoSlower gates intersectCount's skew branch:
// sizing the intersection of a 4-element set and a hub's 16k-element one,
// either way round, must cost at most a quarter of the linear merge the
// same body runs with galloping turned off (intersectCountSkew's ratio
// argument). Both sides run one function, so where the linker places it
// moves them alike; the margin is wide because galloping reads a few
// dozen elements where the merge reads thousands.
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
		if g, m := intersectCount(c.a, c.b), intersectCountSkew(c.a, c.b, math.MaxInt); g != m {
			t.Fatalf("%s: galloping sizes %d, the merge %d", c.name, g, m)
		}
		const calls = 2000
		kernel, merge := fastest(40, func() {
			for range calls {
				sink += intersectCount(c.a, c.b)
			}
		}, func() {
			for range calls {
				sink += intersectCountSkew(c.a, c.b, math.MaxInt)
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

// TestMarkedOperandSpeedup gates the marked kernel: where a 20-id driver
// meets a 1,200-id list of 4,096 ids held in marks — a hub's list against
// a leaf's, the task's list against a short operand — scanning the
// driver through the marks must beat the dispatcher galloping it through
// the list (>= 2x; about 8x measured). Both sides call one function,
// (*markSet).intersect: with no list held it falls back to
// intersectSetsInto, so the trick is turned off by the kernel's own
// state and code placement moves both sides alike.
func TestMarkedOperandSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	const span = 4096
	short, long := benchLists(11, 20, 1200, span)
	lists := [][]uint32{long, short}
	var marked, none markSet
	marked.hold(long, span)
	if _, d := markedDriver(lists, marked.held); d < 0 {
		t.Fatal("the marks are not taken")
	}
	buf := make([]uint32, 0, 64)
	want := refIntersect(lists, noLo, noHi)
	if got := marked.intersect(buf, lists, noLo, noHi); !equalU32(got, want) {
		t.Fatalf("marked: %v, want %v", got, want)
	}
	if got := none.intersect(buf, lists, noLo, noHi); !equalU32(got, want) {
		t.Fatalf("unmarked: %v, want %v", got, want)
	}
	const calls = 5000
	scan, plain := fastest(40, func() {
		for range calls {
			buf = marked.intersect(buf[:0], lists, noLo, noHi)
		}
	}, func() {
		for range calls {
			buf = none.intersect(buf[:0], lists, noLo, noHi)
		}
	})
	ratio := float64(plain) / float64(scan)
	t.Logf("marked %v, unmarked %v per %d calls, ratio %.1fx", scan, plain, calls, ratio)
	if ratio < 2 {
		t.Errorf("marked kernel at %.1fx the dispatcher, want >= 2x", ratio)
	}
}

// raceEnabled is set by race_test.go under the race detector, which
// instruments every load: a kernel reading a dozen ids then times the
// instrumentation more than the kernel.
var raceEnabled bool

// TestBoundedScanSpeedup gates the sized clique level's kernel: counting,
// through marks, the ids of a 16k-id list above a bound that leaves 8 of
// them — a candidate's list above the task's id — (*markSet).countAbove,
// which scans down from the top to the bound, must be >= 2x as fast as
// counting the list clipped to the window, whose clip binary-searches
// all 16k ids for it (2.3-3.0x measured on a 2-vCPU x86-64 box). Under
// the race detector both sides read so few ids that its per-load cost
// sets the ratio (about 1.2x), so the gate skips itself there; CI runs
// it in a step without the detector.
func TestBoundedScanSpeedup(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("timing test")
	}
	const span = 1 << 18
	held, s := benchLists(13, 1024, 16384, span)
	var ms markSet
	ms.hold(held, span)
	lo := s[len(s)-9]
	want := ms.count(clip(s, int64(lo), noHi))
	if got := ms.countAbove(s, lo); got != want {
		t.Fatalf("countAbove %d, count(clip) %d", got, want)
	}
	const calls = 20000
	var sink int
	scan, search := fastest(40, func() {
		for range calls {
			sink += ms.countAbove(s, lo)
		}
	}, func() {
		for range calls {
			sink += ms.count(clip(s, int64(lo), noHi))
		}
	})
	ratio := float64(search) / float64(scan)
	t.Logf("countAbove %v, count(clip) %v per %d calls, ratio %.1fx", scan, search, calls, ratio)
	if ratio < 2 {
		t.Errorf("countAbove at %.1fx count(clip), want >= 2x", ratio)
	}
	_ = sink
}

// TestHalvedCutSpeedup gates halved cuts (plan.Cut.Half): counting the
// 4-cycle at its diagonal, whose ends an automorphism swaps, on an ER
// graph of 4096 vertices and 20480 edges, one thread, must be >= 1.25x as
// fast as the same plan with Half and Above cleared, which tallies every
// candidate for the scattered vertex and sums every binding (1.4-1.6x
// measured on a 2-vCPU x86-64 box). Both give the same V. Like its
// neighbours it skips itself under the race detector, which runs the
// package's other tests; CI runs it in a step without the detector.
func TestHalvedCutSpeedup(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("timing test")
	}
	g := gen.ErdosRenyi(gen.ERConfig{Vertices: 4096, Edges: 20480, MaxDegree: 100, Seed: 1})
	ds := plan.Decompositions(pattern.Cycle(4))
	if len(ds) != 1 || !ds[0].Plan.Cut.Half {
		t.Fatalf("the 4-cycle's decompositions %+v, want one halved cut", ds)
	}
	ct := *ds[0].Plan.Cut
	ct.Half = false
	ct.Comps = slices.Clone(ct.Comps)
	for i := range ct.Comps {
		lvs := slices.Clone(ct.Comps[i].Levels)
		for j := range lvs {
			lvs[j].Above = false
		}
		ct.Comps[i].Levels = lvs
	}
	half, full := []*plan.Plan{ds[0].Plan}, []*plan.Plan{{Pat: ds[0].Plan.Pat, Cut: &ct}}
	opt := Options{Threads: 1}
	if h, f := wideMatches(RunPlans(g, half, nil, opt), 0), wideMatches(RunPlans(g, full, nil, opt), 0); h.Cmp(f) != 0 {
		t.Fatalf("V = %v halved, %v in full", h, f)
	}
	th, tf := fastest(15, func() { RunPlans(g, half, nil, opt) }, func() { RunPlans(g, full, nil, opt) })
	ratio := float64(tf) / float64(th)
	t.Logf("halved %v, full %v, ratio %.2fx", th, tf, ratio)
	if ratio < 1.25 {
		t.Errorf("the halved cut at %.2fx the full one, want >= 1.25x", ratio)
	}
}
