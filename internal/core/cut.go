package core

// Decomposed plans (plan.Cut): a count that binds a small vertex cut per
// task and multiplies its components' placements, each counted by a
// rooted walk of one to three levels over the set kernels. A task binds
// the cut in two orthogonal steps: a loop over the task vertex's list
// for a walked vertex, where the cut has one, then per binding either a
// scatter's sum over the scattered vertex's candidates or the product of
// the components' counts. What the plan yields is V, the tuple count
// plan.MorphBatch recovers the pattern's count from (see plan/cut.go),
// summed over tasks in 128 bits. The walks are the entries of the
// batch's component table (plan.ShareTrie.Cuts): each is computed once
// per binding of the cut slots it reads, whatever number of plans name
// it. A halved cut (plan.Cut.Half) binds its second vertex only above the
// task's — a walked vertex by starting its loop there, a scattered one
// through its tallies' Above levels — and adds each binding's tuples
// twice; a task's share of V then depends on the halving, while V does
// not.

import (
	"peregrine/internal/graph"
	"peregrine/internal/plan"
)

// cutCounter runs one decomposed plan on one thread: each task adds its
// tuples to v, which RunPlans sums over threads.
type cutCounter struct {
	t     *cutTable
	cut   *plan.Cut
	comps []int    // the table entry of each of cut.Comps
	r     *planRow // the plan's row: tasks and intersections
	v     u128
}

// cutTable is one thread's copy of the batch's component table and the
// state its walks bind. Decomposed plans run one after another in each
// task, so one table serves them all.
type cutTable struct {
	g       *graph.Graph
	entries []plan.CutEntry
	vals    []cutVal // indexed like entries

	// gen[s] advances on every binding of cut slot s, the task's or the
	// walked vertex's: an entry is current while its stamp equals the
	// counter of its Depth, so a new binding invalidates it without
	// touching it.
	gen  [plan.SlotWalked + 1]uint64
	slot [plan.NumSlots]uint32 // the bindings of plan.Cut's slots

	tm      *taskMarks  // the thread's marks of the task vertex's list
	st      *Stats      // the row charged for merges: the plan whose read computes an entry
	share   *ShareStats // credited with every read the table serves
	tv      *cutVal     // the tally the walk in progress fills
	factors [][]uint64  // a scatter's tallies, gathered for its sum
	bufs    [3][]uint32 // per walk level: its set, when it merges two or more lists
	lists   [][]uint32  // for gathering a level's lists
}

// cutVal is a table entry's value for the current binding of its cut
// slots.
type cutVal struct {
	stamp  uint64
	n      uint64 // a walk's placements; for a tally, how many candidates it touched
	merges uint64 // the merges computing it took: what each later read saves

	// A tally's placements per candidate for the scattered vertex, and
	// the candidates with a nonzero tally in touched's first n slots —
	// one more slot than there are vertices, as add writes one past the
	// end. Sized on first use.
	tally   []uint64
	touched []uint32
}

func newCutTable(g *graph.Graph, trie *plan.ShareTrie, tm *taskMarks, share *ShareStats) *cutTable {
	return &cutTable{g: g, entries: trie.Cuts, vals: make([]cutVal, len(trie.Cuts)), tm: tm, share: share}
}

// bind starts task a: it binds the task's cut vertex, which makes every
// entry stale.
func (t *cutTable) bind(a uint32) {
	t.slot[plan.SlotTask] = a
	t.gen[plan.SlotTask]++
}

// task adds the tuples of the bound task: those of each binding of the
// walked vertex, where the cut has one, or of the task's binding alone.
func (cc *cutCounter) task() {
	t := cc.t
	t.st = &cc.r.stats
	if !cc.cut.Walked {
		cc.binding()
		return
	}
	adj := t.g.Adj(t.slot[plan.SlotTask])
	if cc.cut.Half {
		adj = adj[upperBound(adj, t.slot[plan.SlotTask]):]
	}
	for _, c := range adj {
		t.slot[plan.SlotWalked] = c
		t.gen[plan.SlotWalked]++
		cc.binding()
	}
}

// binding adds the tuples of the bound cut slots.
func (cc *cutCounter) binding() {
	if cc.cut.Scatter() {
		cc.scatter()
	} else {
		cc.product()
	}
}

// product adds, for the bound cut, the product of every component's
// placements, twice for a halved cut. Entries are read lazily, so a zero
// factor spares the components after it.
func (cc *cutCounter) product() {
	p := u128{lo: 1}
	if cc.cut.Half {
		p.lo = 2
	}
	for _, id := range cc.comps {
		n := cc.t.read(id).n
		if n == 0 {
			return
		}
		p, _ = p.mul(n)
	}
	cc.v, _ = cc.v.add(p) // exact: plan.MorphBatch decomposes only where V fits
}

// scatter adds the tuples of a binding of a cut whose scattered vertex
// is free: Σ_c Π_i tally_i[c] over the candidates c for it, walking the
// shortest touched list — a candidate missing from any list adds
// nothing. A halved cut's tallies hold only the candidates above the
// task's vertex, and its sum counts twice.
func (cc *cutCounter) scatter() {
	t := cc.t
	var short *cutVal
	t.factors = t.factors[:0]
	for _, id := range cc.comps {
		tv := t.read(id)
		if tv.n == 0 {
			return
		}
		if short == nil || tv.n < short.n {
			short = tv
		}
		t.factors = append(t.factors, tv.tally)
	}
	first, rest := t.factors[0], t.factors[1:]
	var sum u128
	for _, c := range short.touched[:short.n] {
		p := u128{lo: first[c]}
		for _, f := range rest {
			p, _ = p.mul(f[c])
		}
		sum, _ = sum.add(p)
	}
	if cc.cut.Half {
		sum, _ = sum.add(sum)
	}
	cc.v, _ = cc.v.add(sum)
}

// read returns entry id for the bound cut: computed now when stale,
// otherwise served as computed, which the share telemetry counts as a
// walk and its merges saved.
func (t *cutTable) read(id int) *cutVal {
	e, tv := &t.entries[id], &t.vals[id]
	if gen := t.gen[e.Depth]; tv.stamp != gen {
		tv.stamp = gen
		before := t.st.Intersections
		if e.Tally {
			t.reset(tv)
			t.walk(e.Levels, 0)
		} else {
			tv.n = t.walk(e.Levels, 0)
		}
		tv.merges = t.st.Intersections - before
		return tv
	}
	t.share.SharedNodeVisits++
	t.share.IntersectionsSaved += tv.merges
	return tv
}

// reset empties tally tv through its touched list, sizing it on first
// use, and makes it the one the walk fills.
func (t *cutTable) reset(tv *cutVal) {
	if tv.tally == nil {
		n := t.g.NumVertices()
		tv.tally, tv.touched = make([]uint64, n), make([]uint32, n+1)
	}
	for _, c := range tv.touched[:tv.n] {
		tv.tally[c] = 0
	}
	tv.n = 0
	t.tv = tv
}

// walk counts the placements of levels[j:], the last level sized and the
// ones before it walked — unless a level binds the scattered vertex,
// which tallies per candidate instead (tally), and walk returns 0.
func (t *cutTable) walk(levels []plan.CutLevel, j int) uint64 {
	lv := &levels[j]
	set := t.set(lv, j)
	if lv.Slot == plan.SlotScatter {
		t.tally(levels, j, set)
		return 0
	}
	if j == len(levels)-1 {
		n := len(set) - lv.Sure
		for _, s := range lv.Skip[lv.Sure:] {
			if containsSorted(set, t.slot[s]) {
				n--
			}
		}
		return uint64(max(n, 0)) // negative only where a file's lists are not symmetric
	}
	var n uint64
	x0, x1, x2 := t.excluded(lv)
	for _, x := range set {
		if x != x0 && x != x1 && x != x2 {
			t.slot[lv.Slot] = x
			n += t.walk(levels, j+1)
		}
	}
	return n
}

// tally binds the scattered vertex to each usable member of set, the
// candidates of level j, and adds the placements of the levels after it
// to the tally in progress. It scans set from the top down; an Above
// level stops at the first candidate not above the task's vertex, so it
// reads only the ones it keeps and one more, and searches nothing.
func (t *cutTable) tally(levels []plan.CutLevel, j int, set []uint32) {
	lv := &levels[j]
	x0, x1, x2 := t.excluded(lv)
	floor := noLo
	if lv.Above {
		floor = int64(t.slot[plan.SlotTask])
	}
	tv := t.tv
	if j == len(levels)-1 {
		for i := len(set) - 1; i >= 0 && int64(set[i]) > floor; i-- {
			if c := set[i]; c != x0 && c != x1 && c != x2 {
				tv.add(c, 1)
			}
		}
		return
	}
	for i := len(set) - 1; i >= 0 && int64(set[i]) > floor; i-- {
		if c := set[i]; c != x0 && c != x1 && c != x2 {
			t.slot[plan.SlotScatter] = c
			if n := t.walk(levels, j+1); n > 0 {
				tv.add(c, n)
			}
		}
	}
}

// add counts n > 0 placements more at c. The touched list grows without
// a branch: c is written past its end every time, and the end advances
// over it when c's tally was zero.
func (tv *cutVal) add(c uint32, n uint64) {
	tv.touched[tv.n] = c
	tv.n += (tv.tally[c] - 1) >> 63
	tv.tally[c] += n
}

// set returns level lv's candidates before the skip test: the one list
// as a view, or the merge of several into level j's buffer, which counts
// as an intersection — above the task's vertex for an Above level, which
// tally bounds again on a view. Read-only, like every candidate set.
func (t *cutTable) set(lv *plan.CutLevel, j int) []uint32 {
	if len(lv.Ops) == 1 {
		return t.g.Adj(t.slot[lv.Ops[0]])
	}
	t.lists = t.lists[:0]
	for _, s := range lv.Ops {
		t.lists = append(t.lists, t.g.Adj(t.slot[s]))
	}
	t.st.Intersections++
	lo := noLo
	if lv.Above {
		lo = int64(t.slot[plan.SlotTask])
	}
	return t.tm.set(&t.bufs[j], t.lists, lo, noHi)
}

// excluded returns the bindings of lv.Skip, NoVertex where it names
// fewer than three: a candidate equal to any is not one.
func (t *cutTable) excluded(lv *plan.CutLevel) (x0, x1, x2 uint32) {
	x0, x1, x2 = NoVertex, NoVertex, NoVertex
	switch len(lv.Skip) {
	case 3:
		x2 = t.slot[lv.Skip[2]]
		fallthrough
	case 2:
		x1 = t.slot[lv.Skip[1]]
		fallthrough
	case 1:
		x0 = t.slot[lv.Skip[0]]
	}
	return x0, x1, x2
}
