package core

// Decomposed plans (plan.Cut): a count that binds a small vertex cut per
// task and multiplies its components' placements, each counted by a
// rooted walk of one or two levels over the set kernels. What the plan
// yields is V, the tuple count plan.MorphBatch recovers the pattern's
// count from (see plan/cut.go), summed over tasks in 128 bits.

import (
	"peregrine/internal/graph"
	"peregrine/internal/plan"
)

// cutCounter runs one decomposed plan on one thread: each task adds its
// tuples to v, which RunPlans sums over threads.
type cutCounter struct {
	g    *graph.Graph
	cut  *plan.Cut
	plan int    // the plan's index in the batch
	st   *Stats // the plan's row: tasks and intersections
	sc   *cutScratch
	slot [4]uint32 // the bindings of plan.Cut's slots
	v    u128
}

// cutScratch is one thread's scratch for its decomposed plans, which run
// one after another in each task, so one copy serves them all.
type cutScratch struct {
	bufs  [3][]uint32 // per walk level: its set, when it merges two or more lists
	lists [][]uint32  // for gathering a level's lists

	// A scatter's per-vertex tallies: acc[i][c] counts component i's
	// placements that bind c as the second cut vertex, for every component
	// but the last, whose walk multiplies them out instead. touched lists
	// the c with acc[0][c] > 0, the only ones the other tallies fill, so a
	// task zeroes what it used and nothing else.
	acc     [][]uint64
	touched []uint32
}

// task adds the tuples whose first cut vertex is a.
func (cc *cutCounter) task(a uint32) {
	cc.slot[0] = a
	switch ct := cc.cut; {
	case len(ct.Verts) == 1:
		cc.product()
	case ct.Adjacent:
		for _, c := range cc.g.Adj(a) {
			cc.slot[1] = c
			cc.product()
		}
	default:
		cc.scatter()
	}
}

// product adds, for the bound cut, the product of every component's
// placements.
func (cc *cutCounter) product() {
	p := u128{lo: 1}
	for i := range cc.cut.Comps {
		n := cc.ext(&cc.cut.Comps[i], 0, i)
		if n == 0 {
			return
		}
		p, _ = p.mul(n)
	}
	cc.v, _ = cc.v.add(p) // exact: plan.MorphBatch decomposes only where V fits
}

// scatter adds the task's tuples of a cut whose second vertex is free:
// every component's walk binds it on the way, the first ones tally their
// placements per candidate, and the last one's multiplies the tallies
// out.
func (cc *cutCounter) scatter() {
	comps, sc := cc.cut.Comps, cc.sc
	for len(sc.acc) < len(comps)-1 {
		sc.acc = append(sc.acc, make([]uint64, cc.g.NumVertices()))
	}
	for i := range comps {
		cc.ext(&comps[i], 0, i)
		if len(sc.touched) == 0 {
			break
		}
	}
	for _, c := range sc.touched {
		for _, a := range sc.acc[:len(comps)-1] {
			a[c] = 0
		}
	}
	sc.touched = sc.touched[:0]
}

// ext counts component i's placements from level j on, the last level
// sized and the ones before it walked — unless a level binds the second
// cut vertex of a scatter, which tallies per candidate instead (tally),
// and ext returns 0.
func (cc *cutCounter) ext(comp *plan.CutComp, j, i int) uint64 {
	lv := &comp.Levels[j]
	set := cc.set(lv, j)
	if lv.Slot == 1 {
		cc.tally(comp, j, i, set)
		return 0
	}
	if j == len(comp.Levels)-1 {
		n := len(set) - lv.Sure
		for _, s := range lv.Skip[lv.Sure:] {
			if containsSorted(set, cc.slot[s]) {
				n--
			}
		}
		return uint64(max(n, 0)) // negative only where a file's lists are not symmetric
	}
	var n uint64
	x0, x1 := cc.excluded(lv)
	for _, x := range set {
		if x != x0 && x != x1 {
			cc.slot[lv.Slot] = x
			n += cc.ext(comp, j+1, i)
		}
	}
	return n
}

// tally binds the second cut vertex to each usable member of set, the
// candidates of component i's level j, and counts the placements of the
// levels after it: into the component's tally, or, for the last
// component, into V as a product with the others' tallies. A candidate
// the first component's walk never reached contributes nothing after it.
func (cc *cutCounter) tally(comp *plan.CutComp, j, i int, set []uint32) {
	x0, x1 := cc.excluded(&comp.Levels[j])
	sized := j+1 < len(comp.Levels)
	acc := cc.sc.acc[:len(cc.cut.Comps)-1]
	first := acc[0]
	if i < len(acc) {
		own := acc[i]
		for _, c := range set {
			if c == x0 || c == x1 || i > 0 && first[c] == 0 {
				continue
			}
			n := uint64(1)
			if sized {
				cc.slot[1] = c
				if n = cc.ext(comp, j+1, i); n == 0 {
					continue
				}
			}
			if i == 0 && own[c] == 0 {
				cc.sc.touched = append(cc.sc.touched, c)
			}
			own[c] += n
		}
		return
	}
	v := cc.v
	for _, c := range set {
		t := first[c]
		if t == 0 || c == x0 || c == x1 {
			continue
		}
		p := u128{lo: t}
		if sized {
			cc.slot[1] = c
			n := cc.ext(comp, j+1, i)
			if n == 0 {
				continue
			}
			p, _ = p.mul(n)
		}
		for _, a := range acc[1:] {
			p, _ = p.mul(a[c])
		}
		v, _ = v.add(p)
	}
	cc.v = v
}

// set returns level lv's candidates before the skip test: the one list
// as a view, or the merge of several into level j's buffer, which counts
// as an intersection. Read-only, like every candidate set.
func (cc *cutCounter) set(lv *plan.CutLevel, j int) []uint32 {
	if len(lv.Ops) == 1 {
		return cc.g.Adj(cc.slot[lv.Ops[0]])
	}
	sc := cc.sc
	sc.lists = sc.lists[:0]
	for _, s := range lv.Ops {
		sc.lists = append(sc.lists, cc.g.Adj(cc.slot[s]))
	}
	out := intersectSetsInto(sc.bufs[j], sc.lists, noLo, noHi)
	if cap(out) > cap(sc.bufs[j]) {
		sc.bufs[j] = out[:0:cap(out)]
	}
	cc.st.Intersections++
	return out
}

// excluded returns the bindings of lv.Skip, NoVertex where it names
// fewer than two: a candidate equal to either is not one.
func (cc *cutCounter) excluded(lv *plan.CutLevel) (x0, x1 uint32) {
	x0, x1 = NoVertex, NoVertex
	switch len(lv.Skip) {
	case 2:
		x1 = cc.slot[lv.Skip[1]]
		fallthrough
	case 1:
		x0 = cc.slot[lv.Skip[0]]
	}
	return x0, x1
}
