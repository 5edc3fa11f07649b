package plan

// Cross-pattern traversal sharing (ROADMAP: "deeper cross-pattern
// sharing"; Pattern Morphing / DwarvesGraph-style computation reuse).
//
// A MatchingOrder's Steps are built in visit-index space: step t is
// described purely by how it extends the first t bindings — which
// earlier visits' adjacency lists are intersected, which bound the
// candidate id window, which reject by anti-adjacency, and what label
// filters candidates — never by an absolute core position. So two orders
// with equal steps up to depth t enumerate exactly the same partial
// bindings up to depth t, whatever patterns or core sizes they came
// from: the candidate set at each step is a function of the step and
// the bindings alone.
//
// BuildShareTrie merges the steps of every matching order of every plan
// in a batch into a prefix trie keyed on them. The engine executes the
// trie instead of the per-plan orders: each node's candidate set is
// computed once per partial binding and reused by every matching order
// in the node's subtree, so patterns whose matching orders induce
// identical ordered-view prefixes (a 4-clique and a triangle; most of a
// motif batch) stop re-walking the same adjacency intersections. A
// leaf's sequences are in visit order too, so a core binding reaches
// its pattern vertices with no translation.
//
// Completion sets join the trie as slots. A non-core step's candidate
// set under one core sequence is, before its dynamic window, a function
// of the core binding alone: the intersection of some visits' adjacency
// lists inside a window bounded by two visits. Translated into that
// visit-space form (a Step with no anti-edges and no label), the set
// belongs at the node binding the deepest visit it names, where every
// leaf below the node — of any plan, any sequence — can reuse it until
// that visit is rebound. A slot over three or more lists is its prefix
// slot (the same window, the deepest operand left out) intersected with
// one more list, so the expensive part sits as high in the trie as it
// can: the triangle's completion set and the 4-clique's first two lists
// are one slot on the depth-1 node, which the 4-clique's own slot
// extends by one list per triangle. A count never writes that last set:
// its one reader's node is Sized, and the slot Counted, so a count scans
// each triangle's third list through the depth-1 slot's marks instead.
//
// Decomposed plans (Plan.Cut) have no matching orders; what they share
// is their component walks. A walk's level program names cut slots and
// component slots alone, so equal programs count alike for one binding
// of the cut whatever plan they came from — the triangle on the task's
// vertex, or the common-neighbour tally of a 4-cycle's diagonal, recurs
// across a motif batch. The trie's component table (Cuts) holds each
// distinct program once, and every component instance names its entry.

import (
	"slices"
	"sort"

	"peregrine/internal/pattern"
)

// key serializes the step for exact comparison during trie
// construction. Visit indices are < 256 for any plannable core; the
// label uses pattern.LabelCode, the one lossless encoding every
// structural key must share — a truncated label here would merge steps
// of different labels and silently corrupt batched counts.
func (s *Step) key() string {
	buf := make([]byte, 0, len(s.Nbr)+len(s.Anti)+8)
	lb := pattern.LabelCode(s.Label)
	buf = append(buf, lb[:]...)
	buf = append(buf, byte(s.Lo+1), byte(s.Hi+1), byte(len(s.Nbr)))
	for _, t := range s.Nbr {
		buf = append(buf, byte(t))
	}
	for _, t := range s.Anti {
		buf = append(buf, byte(t))
	}
	return string(buf)
}

// ShareLeaf marks a matching order whose steps end at a trie node:
// every complete binding reaching the node is one ordered-view match of
// that order, owed to plan index Plan of the executed batch.
type ShareLeaf struct {
	Plan int
	MO   *MatchingOrder
	// Slots[s][i] is the ShareTrie.Slots index holding NonCore step i's
	// set under MO.Seqs[s], or -1 when a slot would save nothing: the
	// step reads one list (its set is a clipped view of it), or it is the
	// only reader of a two-list set, once per computation (pruneSlots).
	Slots [][]int

	// Levels[s], on a leaf of a plan a count sizes at its core binding
	// (Plan.SizedAtCore), is that plan's one completion step under
	// MO.Seqs[s] in visit space; nil on every other leaf.
	Levels []LeafLevel
}

// LeafLevel is a sized leaf's completion step under one sequence.
type LeafLevel struct {
	// Step is the step's core neighbours' visits (Nbr, sorted, one or
	// more) and the window its core bounds set (Lo, Hi), in a Slot's form.
	Step Step
	// Taken are the visits binding the step's NonCoreStep.Distinct
	// vertices: the bindings a candidate may equal.
	Taken []int
}

// Slot is one completion set computed at a trie node: the intersection
// of the adjacency lists of the bindings of Step.Nbr, strictly between
// the bindings of Step.Lo and Step.Hi (-1: unbounded). Step carries no
// anti-edges and no label — completion filters candidates one by one —
// and its window holds only bounds naming core vertices; a step's
// bounds naming earlier non-core vertices change below the core binding
// and are applied when the set is read. The engine computes a slot on
// first use after its node binds and keeps it until the node binds
// again.
type Slot struct {
	Step Step
	// Depth is the visit index of the deepest reference in Step (operand
	// or bound), hence the depth of the node the slot hangs on.
	Depth int
	// Prefix is the index of the slot over Step.Nbr less its last (deepest)
	// operand with the same window, from which this one is computed by
	// one more intersection; -1 when Step has two operands.
	Prefix int
	// Counted marks a slot whose one read is a sized leaf's (ShareLeaf.
	// Levels) at the slot's own node, and which is no slot's prefix. A
	// count scans its deepest operand through its prefix's marks and never
	// materializes it; an enumeration computes it like any other slot.
	Counted bool
}

// ShareNode is one node of the shared-prefix execution trie. Roots bind
// visit index 0 (the task's start vertex, label-gated by Step.Label);
// every other node extends the binding by one vertex per Step.
type ShareNode struct {
	Step     Step
	Depth    int // visit index this node binds; 0 for roots
	Children []*ShareNode
	Leaves   []ShareLeaf

	// MOs counts the matching orders whose steps pass through this
	// node (leaves here or below): computing the node's candidate set
	// once serves all of them, where unshared execution would compute
	// it MOs times.
	MOs int

	// Plans lists the distinct plan indices with a matching order in
	// this subtree. Populated on roots only, for per-plan task
	// attribution.
	Plans []int

	// Sized marks a node with leaves and no children whose every leaf
	// level (ShareLeaf.Levels) reads the list of the vertex the node binds
	// and, besides it, only what nodes above bind: one operand (a Counted
	// slot's prefix, or a list) and the window. A count sizes such a node's
	// leaves for all of its candidates in one loop per leaf and sequence,
	// binding none of them, and any other sized leaf once per binding
	// delivered to it.
	Sized bool
}

// ShareTrie is the merged execution trie for one plan batch.
type ShareTrie struct {
	Roots []*ShareNode

	// Nodes counts step nodes (roots excluded: the start vertex costs
	// no intersection). ProgramSteps counts steps across all matching
	// orders before merging; Nodes < ProgramSteps means prefixes merged.
	Nodes        uint64
	ProgramSteps uint64

	// MaxCore is the deepest binding any order makes (the largest
	// core size in the batch); executors size per-depth scratch by it.
	MaxCore int

	// Slots are the batch's completion slots, named by index from the
	// leaves' Slots and from one another's Prefix.
	Slots []Slot

	// Cuts is the batch's component table: the distinct component walks
	// (CutComp level programs) of its decomposed plans, or, unshared, one
	// per component instance. CutComps[pi][i] is the entry counting
	// component i of plan pi's Cut; nil for a plan without a Cut.
	Cuts     []CutEntry
	CutComps [][]int
}

// CutEntry is one component walk of a batch's component table. The
// engine computes it on its first read after the cut slots it reads are
// bound, and serves it to every component instance naming it until they
// are bound again: once per task, or, for a walked cut's component, once
// per binding of the walked vertex.
type CutEntry struct {
	Levels []CutLevel
	// Depth is the deepest cut slot the walk reads without binding it:
	// SlotTask, bound by the task, or SlotWalked, bound by a walked cut's
	// loop.
	Depth int
	// Tally marks a scatter's component, whose walk binds the scattered
	// vertex and counts its placements per candidate for it.
	Tally bool
}

// cutEntry returns the table entry walking cc.
func cutEntry(cc *CutComp) CutEntry {
	e := CutEntry{Levels: cc.Levels}
	for _, lv := range cc.Levels {
		e.Tally = e.Tally || lv.Slot == SlotScatter
		if slices.Contains(lv.Ops, SlotWalked) || slices.Contains(lv.Skip, SlotWalked) {
			e.Depth = SlotWalked
		}
	}
	return e
}

// cutKey serializes a component walk for exact comparison: two walks
// with equal keys count alike for every binding of the cut. A halved
// cut's tally (CutLevel.Above) holds only candidates above the task's
// vertex, so it never serves an unhalved one.
func cutKey(levels []CutLevel) string {
	var buf []byte
	for _, lv := range levels {
		above := byte(0)
		if lv.Above {
			above = 1
		}
		buf = append(buf, byte(lv.Slot), byte(lv.Sure), above, byte(len(lv.Ops)), byte(len(lv.Skip)))
		for _, s := range lv.Ops {
			buf = append(buf, byte(s))
		}
		for _, s := range lv.Skip {
			buf = append(buf, byte(s))
		}
	}
	return string(buf)
}

// BuildShareTrie merges the steps of every matching order of every plan
// into a prefix-sharing trie. Construction is
// order-insensitive in everything the execution observes: whatever
// order plans or matching orders are inserted, the same set of
// (prefix, leaf) pairs exists, so per-plan match counts cannot depend
// on batch order.
func BuildShareTrie(pls []*Plan) *ShareTrie { return buildTrie(pls, true) }

// BuildUnsharedTrie lays every matching order out as its own root-to-
// leaf chain with no merging — execution then performs exactly the
// per-plan work of a serial loop. This is the engine's sharing ablation
// (Options.NoSharing) and the baseline the sharing telemetry is
// measured against.
func BuildUnsharedTrie(pls []*Plan) *ShareTrie { return buildTrie(pls, false) }

func buildTrie(pls []*Plan, merge bool) *ShareTrie {
	tr := &ShareTrie{}
	rootByLabel := make(map[pattern.Label]*ShareNode)
	childByKey := make(map[*ShareNode]map[string]*ShareNode)
	planSeen := make(map[*ShareNode]map[int]bool)
	slotByKey := make(map[*ShareNode]map[string]int)
	var path []*ShareNode // path[d]: the node binding visit d on the way to the current leaf
	for pi, pl := range pls {
		visitOf := make([]int, pl.Pat.N()) // pattern vertex -> visit index under one sequence; -1 off the core
		for _, mo := range pl.Orders {
			var root *ShareNode
			if merge {
				root = rootByLabel[mo.Start]
			}
			if root == nil {
				root = &ShareNode{Step: Step{Lo: -1, Hi: -1, Label: mo.Start}}
				tr.Roots = append(tr.Roots, root)
				if merge {
					rootByLabel[mo.Start] = root
				}
			}
			if planSeen[root] == nil {
				planSeen[root] = make(map[int]bool)
			}
			if !planSeen[root][pi] {
				planSeen[root][pi] = true
				root.Plans = append(root.Plans, pi)
			}
			n := root
			n.MOs++
			path = append(path[:0], root)
			for si := range mo.Steps {
				st := &mo.Steps[si]
				tr.ProgramSteps++
				var child *ShareNode
				if merge {
					child = childByKey[n][st.key()]
				}
				if child == nil {
					child = &ShareNode{Step: *st, Depth: n.Depth + 1}
					n.Children = append(n.Children, child)
					if merge {
						if childByKey[n] == nil {
							childByKey[n] = make(map[string]*ShareNode)
						}
						childByKey[n][st.key()] = child
					}
					tr.Nodes++
				}
				child.MOs++
				n = child
				path = append(path, n)
			}
			lf := ShareLeaf{Plan: pi, MO: mo, Slots: make([][]int, len(mo.Seqs))}
			if pl.SizedAtCore() {
				lf.Levels = make([]LeafLevel, len(mo.Seqs))
			}
			for s, seq := range mo.Seqs {
				for v := range visitOf {
					visitOf[v] = -1
				}
				for t, pv := range seq {
					visitOf[pv] = t
				}
				lf.Slots[s] = make([]int, len(pl.NonCore))
				for i := range pl.NonCore {
					lf.Slots[s][i] = -1
					st := completionStep(&pl.NonCore[i], mo, visitOf)
					if len(st.Nbr) > 1 {
						lf.Slots[s][i] = tr.slot(path, st, slotByKey)
					}
					if lf.Levels != nil {
						lv := LeafLevel{Step: st}
						for _, pv := range pl.NonCore[i].Distinct {
							lv.Taken = append(lv.Taken, visitOf[pv])
						}
						lf.Levels[s] = lv
					}
				}
			}
			n.Leaves = append(n.Leaves, lf)
			if n.Depth+1 > tr.MaxCore {
				tr.MaxCore = n.Depth + 1
			}
		}
	}
	tr.pruneSlots()
	tr.markSized()
	tr.CutComps = make([][]int, len(pls))
	cutByKey := make(map[string]int)
	for pi, pl := range pls {
		if pl.Cut == nil {
			continue
		}
		for i := range pl.Cut.Comps {
			key := cutKey(pl.Cut.Comps[i].Levels)
			id, ok := cutByKey[key]
			if !ok || !merge {
				id = len(tr.Cuts)
				tr.Cuts = append(tr.Cuts, cutEntry(&pl.Cut.Comps[i]))
				cutByKey[key] = id
			}
			tr.CutComps[pi] = append(tr.CutComps[pi], id)
		}
	}
	return tr
}

// pruneSlots drops the slots that save no computation: two-list slots
// read once per computation — by one step of one sequence of one leaf,
// the first completion step, at the leaf's own depth. Such a step
// computes its set directly, as the slot would, without the slot's
// bookkeeping. A slot that is another's prefix is always kept; a kept
// slot read that way by a sized leaf is Counted.
func (tr *ShareTrie) pruneSlots() {
	reads := make([]int, len(tr.Slots))
	sized := make([]bool, len(tr.Slots)) // whether a sized leaf reads it
	for _, sl := range tr.Slots {
		if sl.Prefix >= 0 {
			reads[sl.Prefix] += 2
		}
	}
	leaves := tr.leaves()
	for _, lf := range leaves {
		for _, row := range lf.Slots {
			for i, id := range row {
				if id < 0 {
					continue
				}
				// A later step is read once per candidate of the level above
				// it, and a slot above its leaf once per binding in between.
				reads[id]++
				if i > 0 || tr.Slots[id].Depth < lf.depth {
					reads[id]++
				}
				sized[id] = sized[id] || lf.Levels != nil
			}
		}
	}
	newID := make([]int, len(tr.Slots))
	kept := tr.Slots[:0]
	for id, sl := range tr.Slots {
		newID[id] = -1
		if sl.Prefix >= 0 || reads[id] >= 2 {
			newID[id] = len(kept)
			if sl.Prefix >= 0 {
				sl.Prefix = newID[sl.Prefix] // prefixes come first and are kept
			}
			sl.Counted = reads[id] == 1 && sized[id]
			kept = append(kept, sl)
		}
	}
	tr.Slots = kept
	for _, lf := range leaves {
		for _, row := range lf.Slots {
			for i, id := range row {
				if id >= 0 {
					row[i] = newID[id]
				}
			}
		}
	}
}

// markSized sets Sized on the nodes it applies to. It runs after
// pruneSlots, which decides the slots a level reads.
func (tr *ShareTrie) markSized() {
	var walk func(n *ShareNode)
	walk = func(n *ShareNode) {
		n.Sized = n.Depth > 0 && len(n.Children) == 0 && len(n.Leaves) > 0
		for i := range n.Leaves {
			lf := &n.Leaves[i]
			n.Sized = n.Sized && lf.Levels != nil
			for s := 0; n.Sized && s < len(lf.Levels); s++ {
				n.Sized = tr.perNode(lf.Levels[s].Step, lf.Slots[s][0], n.Depth)
			}
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	for _, r := range tr.Roots {
		walk(r)
	}
}

// perNode reports whether a leaf level at depth d — its visit-space step
// st, read through slot id — intersects the list of visit d with at most
// one operand bound above d, inside a window bound above d. A slotless
// level reads one or two lists; a slot read at d alone is Counted, and
// its prefix, the window's and every other operand's, hangs above d.
func (tr *ShareTrie) perNode(st Step, id, d int) bool {
	return slices.Contains(st.Nbr, d) && st.Lo != d && st.Hi != d && (id < 0 || tr.Slots[id].Counted)
}

// leafRef is a leaf and the depth of its node.
type leafRef struct {
	*ShareLeaf
	depth int
}

// leaves lists every leaf of tr with its node's depth.
func (tr *ShareTrie) leaves() []leafRef {
	var out []leafRef
	var walk func(n *ShareNode)
	walk = func(n *ShareNode) {
		for i := range n.Leaves {
			out = append(out, leafRef{&n.Leaves[i], n.Depth})
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	for _, r := range tr.Roots {
		walk(r)
	}
	return out
}

// completionStep translates non-core step st into visit space under the
// core sequence visitOf describes (pattern vertex -> visit index, -1 off
// the core): its core neighbours' visits, and the window its bounds on
// core vertices impose. Matched data ids rise with position, so of the
// core lower bounds only the highest-position one binds, and of the
// upper bounds the lowest. A step with one core neighbour needs no slot:
// its set is a view of one list.
func completionStep(st *NonCoreStep, mo *MatchingOrder, visitOf []int) Step {
	ps := Step{Lo: -1, Hi: -1, Label: pattern.Wildcard}
	for _, pv := range st.CoreNbrs {
		ps.Nbr = append(ps.Nbr, visitOf[pv])
	}
	sort.Ints(ps.Nbr)
	for _, pv := range st.LowerBound {
		if t := visitOf[pv]; t >= 0 && (ps.Lo < 0 || mo.Visit[t] > mo.Visit[ps.Lo]) {
			ps.Lo = t
		}
	}
	for _, pv := range st.UpperBound {
		if t := visitOf[pv]; t >= 0 && (ps.Hi < 0 || mo.Visit[t] < mo.Visit[ps.Hi]) {
			ps.Hi = t
		}
	}
	return ps
}

// slot returns the index of the slot computing ps on the path to the
// current leaf, adding it (and, for three or more operands, its prefix
// slot) to the node binding ps's deepest reference unless that node
// already holds one with the same descriptor.
func (tr *ShareTrie) slot(path []*ShareNode, ps Step, byKey map[*ShareNode]map[string]int) int {
	last := len(ps.Nbr) - 1
	n := path[max(ps.Nbr[last], ps.Lo, ps.Hi)]
	key := ps.key()
	if id, ok := byKey[n][key]; ok {
		return id
	}
	prefix := -1
	if last >= 2 {
		pre := ps
		pre.Nbr = ps.Nbr[:last:last]
		prefix = tr.slot(path, pre, byKey)
	}
	id := len(tr.Slots)
	tr.Slots = append(tr.Slots, Slot{Step: ps, Depth: n.Depth, Prefix: prefix})
	if byKey[n] == nil {
		byKey[n] = make(map[string]int)
	}
	byKey[n][key] = id
	return id
}
