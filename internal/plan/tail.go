package plan

// Counting a completion tail in closed form (DwarvesGraph's pattern
// decomposition, PAPERS.md, with the core as the cut). Non-core vertices
// form an independent set, so once the core and the vertices completed
// before a tail are matched, each tail vertex is free to take any member
// of its candidate set: it needs only to avoid the vertices already
// matched and the other tail vertices, and to respect the orders between
// tail vertices. When those orders stay inside groups of vertices with
// one candidate set each, the number of placements is a polynomial in
// the sizes of intersections of those sets, and internal/core's count
// mode evaluates it instead of walking any level of the tail.
//
// The algebra. Write T_v for tail vertex v's candidate set less the
// matched vertices. The injective placements x_v ∈ T_v number, by
// Möbius inversion over the lattice of set partitions π of the tail,
//
//	Σ_π Π_{B∈π} (−1)^{|B|−1} (|B|−1)! · |∩_{v∈B} T_v|,
//
// where each block B stands for the placements that give all of B one
// vertex. The vertices of a class share a set, so a block's factor
// depends only on the classes it spans, and partitions with the same
// multiset of spanned class sets merge into one term. Every such
// partition has the same number of blocks, hence the same sign, so no
// merged term cancels. A class whose orders close to a chain takes one
// ordering of each of its placements' value sets out of |class|!, so the
// ordered count is the injective one divided by Π |class|! over the
// chained classes; a class with no orders (no symmetry breaking) keeps
// every ordering.

import (
	"fmt"
	"slices"
)

// maxTailSteps bounds a counted tail: its terms come from the set
// partitions of its steps, Bell(8) = 4,140 of them, enumerated once per
// plan.
const maxTailSteps = 8

// Tail is the part of a plan that a count sizes in one step: the longest
// suffix of NonCore, of two or more steps, that is Unfiltered in a plan
// with no anti-vertex check, whose steps group into classes — one
// candidate set each: the same CoreNbrs and the same bounds on vertices
// matched before the tail — with every order between two tail vertices
// inside a class, and each class either chained (its orders close to a
// total order) or wholly unordered. BreakSymmetries' core-first pivots
// make the unfiltered suffix of a plan with no anti-vertex check such a
// tail, up to maxTailSteps of it; an unordered class of two or more
// comes from Options.NoSymmetryBreaking.
//
// A core match's completions through the tail number
//
//	Σ_t t.Coef · Π_{s ∈ t.Factors} size(Subsets[s]) / Div,
//
// where size(mask) is the number of vertices, not yet in the match, that
// lie in the candidate set of every class in mask. A lone last level is
// not a Tail: internal/core sizes it when it is a SizedAtCore plan's
// whole completion, and walks it otherwise.
type Tail struct {
	Start   int // NonCore index of the tail's first step
	Classes []TailClass

	// Subsets are the class sets the terms name, as bit masks over
	// Classes. Subsets[c] is 1<<c for every class c; the intersections
	// of two or more classes' sets follow.
	Subsets []uint32
	Terms   []TailTerm
	Div     uint64 // Π (class size)! over the chained classes
}

// TailClass is one group of tail steps sharing a candidate set.
type TailClass struct {
	Step int // NonCore index of the class's first step, whose CoreNbrs are the class's
	Size int // steps in the class

	// Lower and Upper are the class's bounds on vertices matched before
	// the tail: its window, as a step's LowerBound and UpperBound.
	Lower, Upper []int
}

// TailTerm is one product of the count's sum.
type TailTerm struct {
	Coef    int64
	Factors []int // indices into Subsets, one per block, ascending
}

// TailOf derives pl's Tail from its NonCore steps and Checks: the
// longest that starts at step from or later, or nil when there is none.
// plan.New sets pl.Tail to TailOf(pl, 0); a plan whose steps are edited
// afterwards must derive it again.
func TailOf(pl *Plan, from int) *Tail {
	if len(pl.Checks) > 0 {
		return nil
	}
	for start := max(from, len(pl.NonCore)-maxTailSteps); start <= len(pl.NonCore)-2; start++ {
		if tl := tailFrom(pl.NonCore, start); tl != nil {
			return tl
		}
	}
	return nil
}

// tailFrom returns the Tail of the steps nc[start:], or nil when they do
// not form one.
func tailFrom(nc []NonCoreStep, start int) *Tail {
	steps := nc[start:]
	at := make(map[int]int, len(steps)) // pattern vertex -> index in steps
	for i := range steps {
		if !steps[i].Unfiltered() {
			return nil
		}
		at[steps[i].V] = i
	}
	n := len(steps)
	below := make([][]bool, n) // below[i][j]: steps[i].V must match below steps[j].V
	for i := range below {
		below[i] = make([]bool, n)
	}
	var classes []TailClass
	class := make([]int, n)
	for i := range steps {
		st := &steps[i]
		var lower, upper []int
		for _, pv := range st.LowerBound {
			if j, ok := at[pv]; ok {
				below[j][i] = true
			} else {
				lower = append(lower, pv)
			}
		}
		for _, pv := range st.UpperBound {
			if j, ok := at[pv]; ok {
				below[i][j] = true
			} else {
				upper = append(upper, pv)
			}
		}
		slices.Sort(lower)
		slices.Sort(upper)
		class[i] = slices.IndexFunc(classes, func(c TailClass) bool {
			return slices.Equal(nc[c.Step].CoreNbrs, st.CoreNbrs) && slices.Equal(c.Lower, lower) && slices.Equal(c.Upper, upper)
		})
		if class[i] < 0 {
			class[i] = len(classes)
			classes = append(classes, TailClass{Step: start + i, Lower: lower, Upper: upper})
		}
		classes[class[i]].Size++
	}
	// Close the orders (Warshall). No pair across classes may be ordered,
	// and a class's pairs must be all ordered (a chain) or none.
	for m := range n {
		for i := range n {
			if below[i][m] {
				for j := range n {
					below[i][j] = below[i][j] || below[m][j]
				}
			}
		}
	}
	ordered := make([]int, len(classes)) // per class: its ordered pairs
	for i := range n {
		for j := i + 1; j < n; j++ {
			if below[i][j] || below[j][i] {
				if class[i] != class[j] {
					return nil
				}
				ordered[class[i]]++
			}
		}
	}
	sizes := make([]int, len(classes))
	for c, cl := range classes {
		sizes[c] = cl.Size
		if ordered[c] != 0 && ordered[c] != cl.Size*(cl.Size-1)/2 {
			return nil
		}
	}
	tl := ClassTail(sizes...)
	tl.Start = start
	tl.Classes = classes
	for c, cl := range classes {
		for k := 2; ordered[c] == 0 && k <= cl.Size; k++ {
			tl.Div /= uint64(k) // an unordered class keeps every ordering
		}
	}
	return tl
}

// ClassTail returns the algebra of a tail whose classes have the given
// sizes, every class chained — Subsets, Terms and Div, with Classes
// holding the sizes alone — for the tail's vertices listed class by
// class.
func ClassTail(sizes ...int) *Tail {
	tl := &Tail{Div: 1}
	var of []int // class of each tail vertex
	for c, s := range sizes {
		tl.Classes = append(tl.Classes, TailClass{Size: s})
		tl.Subsets = append(tl.Subsets, 1<<c)
		for i := 1; i <= s; i++ {
			of = append(of, c)
			tl.Div *= uint64(i)
		}
	}
	subset := make(map[uint32]int) // mask -> Subsets index
	for i, mask := range tl.Subsets {
		subset[mask] = i
	}
	term := make(map[string]int) // Factors -> Terms index
	// block[v] is vertex v's block, a restricted growth string: each
	// vertex joins a block of an earlier vertex or opens the next one.
	block := make([]int, len(of))
	var walk func(v, blocks int)
	walk = func(v, blocks int) {
		if v < len(of) {
			for b := 0; b <= blocks; b++ {
				block[v] = b
				walk(v+1, max(blocks, b+1))
			}
			return
		}
		masks, size := make([]uint32, blocks), make([]int, blocks)
		for u, b := range block {
			masks[b] |= 1 << of[u]
			size[b]++
		}
		t := TailTerm{Coef: 1, Factors: make([]int, blocks)}
		for b, mask := range masks {
			for j := 1; j < size[b]; j++ {
				t.Coef *= -int64(j)
			}
			id, ok := subset[mask]
			if !ok {
				id = len(tl.Subsets)
				subset[mask] = id
				tl.Subsets = append(tl.Subsets, mask)
			}
			t.Factors[b] = id
		}
		slices.Sort(t.Factors)
		key := fmt.Sprint(t.Factors)
		if i, ok := term[key]; ok {
			tl.Terms[i].Coef += t.Coef
			return
		}
		term[key] = len(tl.Terms)
		tl.Terms = append(tl.Terms, t)
	}
	walk(0, 0)
	return tl
}
