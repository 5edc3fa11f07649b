package plan

import (
	"slices"
	"testing"

	"peregrine/internal/pattern"
)

func planFor(t *testing.T, p *pattern.Pattern) *Plan {
	t.Helper()
	pl, err := New(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

// A matching order is built in pure visit-index space: the triangle's
// single core step intersects the start vertex's adjacency list below
// the start vertex's id.
func TestProgramOfTriangle(t *testing.T) {
	pl := planFor(t, pattern.Clique(3))
	if len(pl.Orders) != 1 {
		t.Fatalf("triangle orders = %d, want 1", len(pl.Orders))
	}
	mo := pl.Orders[0]
	if mo.Start != pattern.Wildcard {
		t.Errorf("start label = %v, want wildcard", mo.Start)
	}
	if len(mo.Steps) != 1 {
		t.Fatalf("steps = %d, want 1", len(mo.Steps))
	}
	st := mo.Steps[0]
	if len(st.Nbr) != 1 || st.Nbr[0] != 0 {
		t.Errorf("Nbr = %v, want [0]", st.Nbr)
	}
	if st.Hi != 0 || st.Lo != -1 {
		t.Errorf("bounds = (%d, %d), want (-1, 0)", st.Lo, st.Hi)
	}
}

// A triangle and a 4-clique induce the same ordered view for their
// first core step, so the merged trie must share that node; the chain
// (unshared) trie must not.
func TestShareTrieMergesCliquePrefix(t *testing.T) {
	pls := []*Plan{planFor(t, pattern.Clique(3)), planFor(t, pattern.Clique(4))}
	tr := BuildShareTrie(pls)
	if tr.ProgramSteps != 3 { // 1 (triangle) + 2 (4-clique core = triangle)
		t.Fatalf("program steps = %d, want 3", tr.ProgramSteps)
	}
	if tr.Nodes != 2 {
		t.Errorf("merged nodes = %d, want 2 (first step shared)", tr.Nodes)
	}
	if len(tr.Roots) != 1 {
		t.Fatalf("roots = %d, want 1 (both wildcard-start)", len(tr.Roots))
	}
	root := tr.Roots[0]
	if root.MOs != 2 || len(root.Plans) != 2 {
		t.Errorf("root MOs = %d plans = %v, want 2 MOs from 2 plans", root.MOs, root.Plans)
	}
	if len(root.Children) != 1 || root.Children[0].MOs != 2 {
		t.Fatalf("first step not shared: children = %d", len(root.Children))
	}
	shared := root.Children[0]
	if len(shared.Leaves) != 1 || shared.Leaves[0].Plan != 0 {
		t.Errorf("triangle leaf missing at shared node: %+v", shared.Leaves)
	}
	if len(shared.Children) != 1 || len(shared.Children[0].Leaves) != 1 || shared.Children[0].Leaves[0].Plan != 1 {
		t.Errorf("4-clique leaf misplaced: %+v", shared.Children)
	}

	un := BuildUnsharedTrie(pls)
	if un.Nodes != un.ProgramSteps {
		t.Errorf("unshared trie merged: nodes = %d, steps = %d", un.Nodes, un.ProgramSteps)
	}
	if len(un.Roots) != 2 {
		t.Errorf("unshared roots = %d, want one chain per matching order", len(un.Roots))
	}
}

// Roots group by start label: differently-labeled starts must not merge,
// identically-labeled ones must.
func TestShareTrieLabeledRoots(t *testing.T) {
	mk := func(text string) *Plan { return planFor(t, pattern.MustParse(text)) }
	pls := []*Plan{
		mk("0-1 1-2 2-0 [0:1] [1:1] [2:1]"), // labeled triangle, all label 1
		mk("0-1 1-2 2-0 [0:2] [1:2] [2:2]"), // labeled triangle, all label 2
		mk("0-1 1-2 2-0"),                   // unlabeled triangle
	}
	tr := BuildShareTrie(pls)
	if len(tr.Roots) != 3 {
		t.Fatalf("roots = %d, want 3 (label 1, label 2, wildcard)", len(tr.Roots))
	}
	for _, root := range tr.Roots {
		if root.MOs != 1 {
			t.Errorf("root label %v serves %d MOs, want 1", root.Step.Label, root.MOs)
		}
	}
}

// Trie construction must be order-insensitive: shuffling the plan batch
// may relabel leaves (plan indices follow the batch) but cannot change
// the merged structure or any plan's leaf population.
func TestShareTrieOrderInsensitive(t *testing.T) {
	base := []*Plan{
		planFor(t, pattern.Clique(3)),
		planFor(t, pattern.Clique(4)),
		planFor(t, pattern.Chain(4)),
		planFor(t, pattern.Cycle(4)),
		planFor(t, pattern.Star(3)),
	}
	perm := []int{3, 0, 4, 2, 1}
	shuffled := make([]*Plan, len(base))
	for i, j := range perm {
		shuffled[i] = base[j]
	}
	a, b := BuildShareTrie(base), BuildShareTrie(shuffled)
	if a.Nodes != b.Nodes || a.ProgramSteps != b.ProgramSteps || a.MaxCore != b.MaxCore {
		t.Fatalf("structure differs: %+v vs %+v", a, b)
	}
	leafCount := func(tr *ShareTrie, n int) map[int]int {
		counts := make(map[int]int, n)
		var walk func(nd *ShareNode)
		walk = func(nd *ShareNode) {
			for _, lf := range nd.Leaves {
				counts[lf.Plan]++
			}
			for _, c := range nd.Children {
				walk(c)
			}
		}
		for _, r := range tr.Roots {
			walk(r)
		}
		return counts
	}
	ca, cb := leafCount(a, len(base)), leafCount(b, len(base))
	for i, j := range perm {
		if ca[j] != cb[i] {
			t.Errorf("plan %d: %d leaves in base order, %d shuffled", j, ca[j], cb[i])
		}
	}
}

// Every matching order must end at exactly one leaf, and MOs counts on
// the path to it must include it — across a batch big enough to force
// both merging and divergence (all 4-vertex motifs, vertex-induced).
func TestShareTrieLeavesComplete(t *testing.T) {
	var pls []*Plan
	total := 0
	for _, m := range pattern.GenerateAllVertexInduced(4) {
		pl := planFor(t, pattern.VertexInduced(m))
		pls = append(pls, pl)
		total += len(pl.Orders)
	}
	tr := BuildShareTrie(pls)
	leaves := 0
	var walk func(nd *ShareNode) int
	walk = func(nd *ShareNode) int {
		below := len(nd.Leaves)
		leaves += len(nd.Leaves)
		for _, c := range nd.Children {
			below += walk(c)
		}
		if below != nd.MOs {
			t.Errorf("node depth %d: MOs = %d but subtree has %d leaves", nd.Depth, nd.MOs, below)
		}
		return below
	}
	for _, r := range tr.Roots {
		walk(r)
	}
	if leaves != total {
		t.Errorf("trie leaves = %d, want %d (one per matching order)", leaves, total)
	}
	if tr.Nodes >= tr.ProgramSteps {
		t.Errorf("no sharing in 4-motif batch: nodes = %d, steps = %d", tr.Nodes, tr.ProgramSteps)
	}
}

// leafOf returns the first leaf of plan pi in tr.
func leafOf(t *testing.T, tr *ShareTrie, pi int) leafRef {
	t.Helper()
	for _, lf := range tr.leaves() {
		if lf.Plan == pi {
			return lf
		}
	}
	t.Fatalf("no leaf for plan %d", pi)
	return leafRef{}
}

// The triangle's completion set and the invariant part of the 4-clique's
// are one slot: adj(v0) ∩ adj(v1) above v0 (the start vertex, the
// highest core position) on the depth-1 node, which the 4-clique's own
// slot extends by adj(v2) one level down.
func TestShareTrieSlotsCliquePrefix(t *testing.T) {
	pls := []*Plan{planFor(t, pattern.Clique(3)), planFor(t, pattern.Clique(4))}
	tr := BuildShareTrie(pls)
	if len(tr.Slots) != 2 {
		t.Fatalf("slots = %+v, want 2", tr.Slots)
	}
	tri := leafOf(t, tr, 0)
	k4 := leafOf(t, tr, 1)
	if len(tri.Slots) != 1 || len(tri.Slots[0]) != 1 {
		t.Fatalf("triangle leaf slots = %v, want one sequence, one step", tri.Slots)
	}
	id := tri.Slots[0][0]
	shared := tr.Slots[id]
	if !slices.Equal(shared.Step.Nbr, []int{0, 1}) || shared.Step.Lo != 0 || shared.Step.Hi != -1 || shared.Depth != 1 || shared.Prefix != -1 {
		t.Errorf("triangle slot = %+v, want Nbr [0 1] above visit 0 at depth 1, no prefix", shared)
	}
	own := tr.Slots[k4.Slots[0][0]]
	if !slices.Equal(own.Step.Nbr, []int{0, 1, 2}) || own.Step.Lo != 0 || own.Depth != 2 || own.Prefix != id {
		t.Errorf("4-clique slot = %+v, want Nbr [0 1 2] above visit 0 at depth 2 from slot %d", own, id)
	}
}

// Unshared chains are separate nodes, so nothing dedups across them: the
// 4-clique's chain keeps its own copy of the triangle's set as its prefix
// slot, and the triangle's chain, whose set has one reader reading it
// once per computation, has no slot at all (pruneSlots).
func TestShareTrieSlotsUnshared(t *testing.T) {
	pls := []*Plan{planFor(t, pattern.Clique(3)), planFor(t, pattern.Clique(4))}
	tr := BuildUnsharedTrie(pls)
	if len(tr.Slots) != 2 {
		t.Fatalf("unshared slots = %+v, want the 4-clique's two", tr.Slots)
	}
	if tri := leafOf(t, tr, 0); tri.Slots[0][0] != -1 {
		t.Errorf("triangle step reads slot %d, want none", tri.Slots[0][0])
	}
	k4 := leafOf(t, tr, 1)
	prefix := tr.Slots[k4.Slots[0][0]].Prefix
	if prefix < 0 || !slices.Equal(tr.Slots[prefix].Step.Nbr, []int{0, 1}) || tr.Slots[prefix].Depth != 1 {
		t.Errorf("4-clique prefix slot %d, want its own Nbr [0 1] slot at depth 1: %+v", prefix, tr.Slots)
	}
}

// A 3..5-clique batch chains slots: the 5-clique's set is the 4-clique's
// slot ∩ one list, which is the triangle's slot ∩ one list.
func TestShareTrieSlotsChain(t *testing.T) {
	var pls []*Plan
	for k := 3; k <= 5; k++ {
		pls = append(pls, planFor(t, pattern.Clique(k)))
	}
	tr := BuildShareTrie(pls)
	if len(tr.Slots) != 3 {
		t.Fatalf("slots = %d, want 3", len(tr.Slots))
	}
	k5 := leafOf(t, tr, 2)
	if k5.depth != 3 {
		t.Fatalf("5-clique leaf at depth %d, want 3", k5.depth)
	}
	id := k5.Slots[0][0]
	for want := 3; want >= 1; want-- {
		sl := tr.Slots[id]
		if sl.Depth != want || len(sl.Step.Nbr) != want+1 {
			t.Fatalf("chain link %+v: want depth %d over %d lists", sl, want, want+1)
		}
		id = sl.Prefix
	}
	if id != -1 {
		t.Errorf("chain does not end at a two-list slot: prefix %d", id)
	}
	tri := leafOf(t, tr, 0)
	k4 := leafOf(t, tr, 1)
	if tr.Slots[k5.Slots[0][0]].Prefix != k4.Slots[0][0] || tr.Slots[k4.Slots[0][0]].Prefix != tri.Slots[0][0] {
		t.Errorf("chain does not run through the smaller cliques' own slots")
	}
}

// A bound naming an earlier non-core vertex is applied when the set is
// read, never part of the slot: the diamond's two tips (0-1 plus two
// common neighbours, ordered by symmetry breaking) share one slot.
func TestShareTrieSlotsIgnoreNonCoreBounds(t *testing.T) {
	for _, text := range []string{
		"0-1 0-2 0-3 1-2 1-3",     // diamond: the second tip is bounded by the first
		"0-2 0-3 0-4 1-2 1-3 1-4", // K(2,3): three tips over the same two core vertices
	} {
		pl := planFor(t, pattern.MustParse(text))
		nonCoreBound := false
		for _, st := range pl.NonCore {
			for _, pv := range append(append([]int(nil), st.LowerBound...), st.UpperBound...) {
				nonCoreBound = nonCoreBound || !slices.Contains(pl.Core, pv)
			}
		}
		if !nonCoreBound {
			t.Fatalf("%s: no step bounded by a non-core vertex: %+v", text, pl.NonCore)
		}
		tr := BuildShareTrie([]*Plan{pl})
		for _, lf := range tr.leaves() {
			for s, row := range lf.Slots {
				if len(row) < 2 || row[0] < 0 {
					t.Fatalf("%s seq %d: slots %v, want one per tip", text, s, row)
				}
				for i := 1; i < len(row); i++ {
					if row[i] != row[0] {
						t.Errorf("%s seq %d: steps use slots %v, want one shared slot", text, s, row)
					}
				}
			}
		}
	}
}

// A step whose operands are all bound above the leaf's depth hangs its
// slot above the leaf, so the engine computes it once per binding of that
// node and reads it for every candidate of the innermost core level. In
// the triangle with a tip over two corners and a tail on the third, the
// sequence that visits the tip's corners first puts its slot at depth 1.
func TestShareTrieSlotsAboveLeaf(t *testing.T) {
	pl := planFor(t, pattern.MustParse("0-1 1-2 2-0 0-3 1-3 2-4"))
	tr := BuildShareTrie([]*Plan{pl})
	above := false
	for _, lf := range tr.leaves() {
		for _, row := range lf.Slots {
			for _, id := range row {
				above = above || (id >= 0 && tr.Slots[id].Depth < lf.depth)
			}
		}
	}
	if !above {
		t.Errorf("no slot above its leaf's depth: %+v", tr.Slots)
	}
}

// nodesOf returns the nodes holding a leaf of plan pi.
func nodesOf(tr *ShareTrie, pi int) []*ShareNode {
	var out []*ShareNode
	var walk func(n *ShareNode)
	walk = func(n *ShareNode) {
		for _, lf := range n.Leaves {
			if lf.Plan == pi {
				out = append(out, n)
				break
			}
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

// A count sizes a childless node's leaves for all its candidates when
// every leaf level reads the candidate's list and one operand bound
// above (Sized); a slot whose one read is such a level is Counted, never
// materialized. In a clique chain only the deepest clique's node is
// Sized, and only its slot Counted: the smaller cliques' nodes have
// children, and their slots are the next one's prefix. Unshared, every
// chain's leaf node is Sized. Without symmetry breaking a clique's
// sequences share one slot, so nothing is. A label on the completion
// makes the plan walk its level, and its leaves carry no Levels.
func TestShareTrieSizedNodes(t *testing.T) {
	var cliques []*Plan
	for k := 3; k <= 5; k++ {
		cliques = append(cliques, planFor(t, pattern.Clique(k)))
	}
	for _, tc := range []struct {
		name  string
		tr    *ShareTrie
		sized []bool // per plan: whether its leaf's node is Sized
	}{
		{"K3", BuildShareTrie(cliques[:1]), []bool{true}},
		{"K3 K4", BuildShareTrie(cliques[:2]), []bool{false, true}},
		{"K3 K4 K5", BuildShareTrie(cliques), []bool{false, false, true}},
		{"K3 K4 K5 unshared", BuildUnsharedTrie(cliques), []bool{true, true, true}},
	} {
		for pi, want := range tc.sized {
			ns := nodesOf(tc.tr, pi)
			if len(ns) != 1 || ns[0].Sized != want {
				t.Errorf("%s: plan %d's nodes %+v, want one with Sized %v", tc.name, pi, ns, want)
			}
			lf := leafOf(t, tc.tr, pi)
			if len(lf.Levels) != 1 || !slices.Equal(lf.Levels[0].Step.Nbr, []int{0, 1, 2, 3}[:pi+2]) || len(lf.Levels[0].Taken) != 0 {
				t.Errorf("%s: plan %d's levels %+v, want its clique's one over every core visit", tc.name, pi, lf.Levels)
			}
			if id := lf.Slots[0][0]; id >= 0 && tc.tr.Slots[id].Counted != want {
				t.Errorf("%s: plan %d's slot %+v, want Counted %v", tc.name, pi, tc.tr.Slots[id], want)
			}
		}
		for _, sl := range tc.tr.Slots {
			if sl.Counted && (sl.Prefix < 0 || sl.Depth != len(sl.Step.Nbr)-1) {
				t.Errorf("%s: Counted slot %+v is not a three-list slot read at its own node", tc.name, sl)
			}
		}
	}

	noSym, err := New(pattern.Clique(4), Options{NoSymmetryBreaking: true})
	if err != nil {
		t.Fatal(err)
	}
	if ns := nodesOf(BuildShareTrie([]*Plan{noSym}), 0); len(ns) != 1 || ns[0].Sized {
		t.Errorf("unbroken 4-clique: nodes %+v, want one not Sized", ns)
	}

	// A C5 spelling whose leaves size per node yet may hold core vertices.
	c5 := BuildShareTrie([]*Plan{planFor(t, pattern.MustParse("0-1 0-2 1-3 2-4 3-4"))})
	taken := false
	for _, n := range nodesOf(c5, 0) {
		for _, lf := range n.Leaves {
			taken = taken || n.Sized && len(lf.Levels[0].Taken) > 0
		}
	}
	if !taken {
		t.Error("C5: no Sized node whose level may hold a core vertex")
	}

	labeled := planFor(t, pattern.MustParse("0-1 1-2 2-0 [2:1]"))
	if lf := leafOf(t, BuildShareTrie([]*Plan{labeled}), 0); labeled.SizedAtCore() || lf.Levels != nil {
		t.Errorf("labeled completion: sized at core %v, levels %+v; want a walk", labeled.SizedAtCore(), lf.Levels)
	}
}
