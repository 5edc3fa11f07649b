package plan

import (
	"slices"
	"testing"

	"peregrine/internal/pattern"
)

// TestTailOfShapes pins which suffix of a plan's completion steps is its
// Tail, and how the tail's steps group into classes: the longest
// unfiltered suffix of three or more steps whose orders stay inside
// classes and chain each class.
func TestTailOfShapes(t *testing.T) {
	for _, tc := range []struct {
		text  string
		noSym bool
		start int   // Tail.Start; -1 for no tail
		sizes []int // class sizes
	}{
		{"0-1 0-2", false, -1, nil},                                 // two completion levels: the pair path's
		{"0-1 0-2 0-3", false, 0, []int{3}},                         // K1,3: one chained class
		{"0-1 0-2 0-3", true, -1, nil},                              // unordered leaves do not chain
		{"0-1 0-2 0-3 0-4 0-5 0-6", false, 0, []int{6}},             // K1,6
		{"0-1 0-2 0-3 0-4 0-5 0-6 0-7 0-8", false, 0, []int{8}},     // K1,8: maxTailSteps leaves
		{"0-1 0-2 0-3 0-4 0-5 0-6 0-7 0-8 0-9", false, 1, []int{8}}, // K1,9: the first leaf bounds the other eight
		{"0-1 0-3 0-4 1-2", false, 0, []int{1, 2}},                  // chair
		{"0-1 1-2 2-0 0-3 1-4", false, 0, []int{1, 1, 1}},           // bull: sets N(0)∩N(1), N(0), N(1)
		{"0-1 1-2 0-3 3-4 0-5", false, 0, []int{1, 1, 1}},           // spider, ordered on its core
		{"0-1 1-2 0-3 3-4 0-5", true, 0, []int{1, 1, 1}},            // classes of one need no order
		{"0-2 1-2 0-4 3-4 0-5", false, -1, nil},                     // spider, first two leaves ordered across classes
		{"0-1 0-3 2-3 0-4 4-5", false, -1, nil},                     // spider, last two leaves ordered across classes
		{"0-1 0-2 0-3 1-4 1-5", false, 1, []int{1, 2}},              // double star: leaf 2 lies below the rest
		{"0-1 0-2 0-3 0-4 1-5 1-6", false, 0, []int{3, 2}},          // double star, three leaves and two
		{"0-1 0-2 0-3 [3:1]", false, -1, nil},                       // a label filters a tail step
		{"0-1 0-2 0-3 1!2 1!3 2!3", false, -1, nil},                 // anti-edges filter every leaf
		{"0-1 0-2 0-3 1!4 2!4 3!4", false, -1, nil},                 // an anti-vertex check per match
	} {
		p := pattern.MustParse(tc.text)
		pl, err := New(p, Options{NoSymmetryBreaking: tc.noSym})
		if err != nil {
			t.Fatal(err)
		}
		tl := pl.Tail
		if tc.start < 0 {
			if tl != nil {
				t.Errorf("%v noSym=%v: tail from step %d, want none", p, tc.noSym, tl.Start)
			}
			continue
		}
		if tl == nil {
			t.Errorf("%v noSym=%v: no tail, want one from step %d", p, tc.noSym, tc.start)
			continue
		}
		var sizes []int
		steps := 0
		for c, cl := range tl.Classes {
			sizes = append(sizes, cl.Size)
			steps += cl.Size
			if tl.Subsets[c] != 1<<c {
				t.Errorf("%v: Subsets[%d] = %b, want the class alone", p, c, tl.Subsets[c])
			}
			if st := pl.NonCore[cl.Step]; cl.Step < tl.Start || !st.Unfiltered() {
				t.Errorf("%v: class %d stands for step %d %+v", p, c, cl.Step, st)
			}
		}
		if tl.Start != tc.start || !slices.Equal(sizes, tc.sizes) || tl.Start+steps != len(pl.NonCore) {
			t.Errorf("%v noSym=%v: tail from step %d with classes %v, want from %d with %v",
				p, tc.noSym, tl.Start, sizes, tc.start, tc.sizes)
		}
	}
}

// One class of k vertices places them in n candidates n(n−1)…(n−k+1)
// ways, and its chain keeps one in k!.
func TestClassTailOneClassIsFallingFactorial(t *testing.T) {
	for k := 1; k <= maxTailSteps; k++ {
		tl := ClassTail(k)
		if len(tl.Subsets) != 1 || len(tl.Terms) != k {
			t.Fatalf("k=%d: %d subsets, %d terms; want 1 and k", k, len(tl.Subsets), len(tl.Terms))
		}
		div := int64(1)
		for i := 2; i <= k; i++ {
			div *= int64(i)
		}
		if tl.Div != uint64(div) {
			t.Errorf("k=%d: Div %d, want %d", k, tl.Div, div)
		}
		for n := int64(0); n <= 12; n++ {
			var sum int64
			for _, term := range tl.Terms {
				v := term.Coef
				for range term.Factors {
					v *= n
				}
				sum += v
			}
			want := int64(1)
			for i := int64(0); i < int64(k); i++ {
				want *= n - i
			}
			if sum != want {
				t.Errorf("k=%d n=%d: terms sum to %d, want %d", k, n, sum, want)
			}
		}
	}
}

// Pricing a tail as one set per class and a merge per subset must make a
// star and a chair cheaper to count than walking the tail's first level
// and sizing the rest as pairs, as the plan would run without its Tail.
func TestCostOfPricesTail(t *testing.T) {
	for _, text := range []string{"0-1 0-2 0-3 0-4", "0-1 0-3 0-4 1-2"} {
		pl := mustPlan(t, pattern.MustParse(text))
		walked := *pl
		walked.Tail = nil
		for _, s := range []Shape{{}, erShape512, micoShape} {
			if CostOf(pl, s) >= CostOf(&walked, s) {
				t.Errorf("%s on %+v: tail costs %.1f, the walk %.1f", text, s, CostOf(pl, s), CostOf(&walked, s))
			}
		}
	}
}
