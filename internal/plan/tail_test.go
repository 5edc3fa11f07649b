package plan

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"peregrine/internal/pattern"
)

// TestTailOfShapes pins which suffix of a plan's completion steps is its
// Tail, and how the tail's steps group into classes: the longest
// unfiltered suffix of two or more steps whose orders stay inside
// classes and chain each class, or leave it unordered without symmetry
// breaking — where Div keeps every ordering.
func TestTailOfShapes(t *testing.T) {
	for _, tc := range []struct {
		text  string
		noSym bool
		start int   // Tail.Start; -1 for no tail
		sizes []int // class sizes
	}{
		{"0-1 0-2", false, 0, []int{2}},                             // a wedge's two leaves: one chained class
		{"0-1", false, -1, nil},                                     // one completion level is no tail
		{"0-1 0-2 0-3", false, 0, []int{3}},                         // K1,3: one chained class
		{"0-1 0-2 0-3", true, 0, []int{3}},                          // unordered leaves: one class, every ordering kept
		{"0-1 0-2 0-3 0-4 0-5 0-6", false, 0, []int{6}},             // K1,6
		{"0-1 0-2 0-3 0-4 0-5 0-6 0-7 0-8", false, 0, []int{8}},     // K1,8: maxTailSteps leaves
		{"0-1 0-2 0-3 0-4 0-5 0-6 0-7 0-8 0-9", false, 1, []int{8}}, // K1,9: the first leaf bounds the other eight
		{"0-1 0-3 0-4 1-2", false, 0, []int{1, 2}},                  // chair
		{"0-1 1-2 2-0 0-3 1-4", false, 0, []int{1, 1, 1}},           // bull: sets N(0)∩N(1), N(0), N(1)
		{"0-1 1-2 0-3 3-4 0-5", false, 0, []int{1, 1, 1}},           // spider, ordered on its core
		{"0-1 1-2 0-3 3-4 0-5", true, 0, []int{1, 1, 1}},            // classes of one need no order
		{"0-2 1-2 0-4 3-4 0-5", false, 0, []int{1, 1, 1}},           // spider respelled: core-first orders stay on the core
		{"0-1 0-3 2-3 0-4 4-5", false, 0, []int{1, 1, 1}},           // and again
		{"0-1 0-2 0-3 1-4 1-5", false, 0, []int{2, 2}},              // double star: c1 < c2, then a chain per leaf pair
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
		steps, div := 0, uint64(1)
		for c, cl := range tl.Classes {
			sizes = append(sizes, cl.Size)
			steps += cl.Size
			for k := 2; !tc.noSym && k <= cl.Size; k++ {
				div *= uint64(k)
			}
			if tl.Subsets[c] != 1<<c {
				t.Errorf("%v: Subsets[%d] = %b, want the class alone", p, c, tl.Subsets[c])
			}
			if st := pl.NonCore[cl.Step]; cl.Step < tl.Start || !st.Unfiltered() {
				t.Errorf("%v: class %d stands for step %d %+v", p, c, cl.Step, st)
			}
		}
		if tl.Div != div {
			t.Errorf("%v noSym=%v: Div %d, want %d", p, tc.noSym, tl.Div, div)
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
// star and a chair cheaper to count than walking every level but the
// last, as the plan would run without its Tail.
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

// TestUnfilteredSuffixIsTail checks the invariant core-first symmetry
// breaking gives plan.New: no condition orders two completion vertices
// with different candidate sets — different core neighbours, label or
// core anti-edges — so the unfiltered suffix of a plan with no
// anti-vertex check is its Tail whenever it has two to maxTailSteps
// steps. It runs over every connected pattern of two to six vertices,
// edge-induced, vertex-induced and with one vertex labeled, each as
// generated and in random respellings, with and without symmetry
// breaking.
func TestUnfilteredSuffixIsTail(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	respellings := 4
	if testing.Short() {
		respellings = 1
	}
	class := func(st *NonCoreStep) string {
		return fmt.Sprint(st.CoreNbrs, st.Label, st.CoreAnti)
	}
	for n := 2; n <= 6; n++ {
		for _, skel := range pattern.GenerateAllVertexInduced(n) {
			labeled := skel.Clone()
			labeled.SetLabel(0, 1)
			for _, p := range []*pattern.Pattern{skel, pattern.VertexInduced(skel), labeled} {
				for r := 0; r <= respellings; r++ {
					q := p
					if r > 0 {
						q = p.Renumber(rng.Perm(p.N()))
					}
					for _, noSym := range []bool{false, true} {
						pl, err := New(q, Options{NoSymmetryBreaking: noSym})
						if err != nil {
							t.Fatal(err)
						}
						step := make(map[int]*NonCoreStep)
						for i := range pl.NonCore {
							step[pl.NonCore[i].V] = &pl.NonCore[i]
						}
						for _, c := range pl.Conds {
							a, b := step[c.Less], step[c.Greater]
							if a != nil && b != nil && class(a) != class(b) {
								t.Errorf("%v: condition %v orders completion steps %+v and %+v", q, c, *a, *b)
							}
						}
						s := 0
						for s < len(pl.NonCore) && pl.NonCore[len(pl.NonCore)-1-s].Unfiltered() {
							s++
						}
						if len(pl.Checks) > 0 || s < 2 || s > maxTailSteps {
							continue
						}
						if want := len(pl.NonCore) - s; pl.Tail == nil || pl.Tail.Start != want {
							t.Errorf("%v noSym=%v: %d unfiltered steps of %d, tail %+v, want one from step %d",
								q, noSym, s, len(pl.NonCore), pl.Tail, want)
						}
					}
				}
			}
		}
	}
}
