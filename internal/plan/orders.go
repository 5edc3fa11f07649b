package plan

import (
	"fmt"
	"sort"

	"peregrine/internal/pattern"
)

// matchingOrders enumerates all linear extensions of the partial order
// restricted to the core, groups extensions inducing identical ordered
// graphs into one MatchingOrder each, and precomputes the engine's
// traversal steps (§4.1, §5.2).
func matchingOrders(p *pattern.Pattern, core []int, conds []Cond) []*MatchingOrder {
	k := len(core)
	inCore := make(map[int]int, k) // pattern vertex -> index in core slice
	for i, v := range core {
		inCore[v] = i
	}
	// Partial order restricted to core pairs.
	var coreConds []Cond
	for _, c := range conds {
		if _, a := inCore[c.Less]; a {
			if _, b := inCore[c.Greater]; b {
				coreConds = append(coreConds, c)
			}
		}
	}
	// Enumerate the linear extensions of the partial order directly: a
	// vertex may be placed once all its predecessors are placed. This
	// avoids the k! blowup of filtering raw permutations — a totally
	// ordered core (e.g. a clique's) yields exactly one extension.
	// maxExtensions caps pathological cases (a large core with symmetry
	// breaking disabled); plan.New turns the empty result into an error.
	const maxExtensions = 1 << 16
	preds := make(map[int][]int, k)
	for _, c := range coreConds {
		preds[c.Greater] = append(preds[c.Greater], c.Less)
	}
	var seqs [][]int
	placedPos := make(map[int]int, k)
	seq := make([]int, 0, k)
	overflow := false
	var rec func()
	rec = func() {
		if overflow {
			return
		}
		if len(seq) == k {
			if len(seqs) >= maxExtensions {
				overflow = true
				return
			}
			seqs = append(seqs, append([]int(nil), seq...))
			return
		}
		// Candidates in ascending order for deterministic output.
		for _, v := range core {
			if _, ok := placedPos[v]; ok {
				continue
			}
			ready := true
			for _, u := range preds[v] {
				if _, ok := placedPos[u]; !ok {
					ready = false
					break
				}
			}
			if !ready {
				continue
			}
			placedPos[v] = len(seq)
			seq = append(seq, v)
			rec()
			seq = seq[:len(seq)-1]
			delete(placedPos, v)
		}
	}
	rec()
	if overflow {
		return nil
	}
	sort.Slice(seqs, func(a, b int) bool {
		for i := range seqs[a] {
			if seqs[a][i] != seqs[b][i] {
				return seqs[a][i] < seqs[b][i]
			}
		}
		return false
	})

	// Group sequences by the ordered graph they induce: positional
	// adjacency (both colors) plus positional labels (encoded with
	// pattern.LabelCode so distinct labels can never share a key).
	orderKey := func(seq []int) string {
		buf := make([]byte, 0, k*k+4*k)
		for i := 0; i < k; i++ {
			lb := pattern.LabelCode(p.LabelOf(seq[i]))
			buf = append(buf, lb[:]...)
			for j := 0; j < i; j++ {
				buf = append(buf, byte(p.EdgeKindOf(seq[i], seq[j])))
			}
		}
		return string(buf)
	}
	groups := make(map[string]*MatchingOrder)
	var out []*MatchingOrder
	for _, seq := range seqs {
		key := orderKey(seq)
		mo, ok := groups[key]
		if !ok {
			mo = buildOrder(p, seq)
			groups[key] = mo
			out = append(out, mo)
		}
		vseq := make([]int, k)
		for t, pos := range mo.Visit {
			vseq[t] = seq[pos]
		}
		mo.Seqs = append(mo.Seqs, vseq)
	}
	return out
}

// buildOrder constructs the traversal steps for the ordered graph
// induced by seq. Traversal starts at the highest position (the start
// vertex of a task) and repeatedly visits the highest-position unvisited
// vertex adjacent to the visited set — the paper's "follow matching
// orders high-to-low" rule (§5.2) generalized to stay connected. Each
// step names the visits before it: the ones it must neighbour or not,
// and the nearest ones below and above its position, which bound its
// candidates' ids.
func buildOrder(p *pattern.Pattern, seq []int) *MatchingOrder {
	k := len(seq)
	mo := &MatchingOrder{Start: p.LabelOf(seq[k-1])}
	adj := func(i, j int) pattern.EdgeKind { return p.EdgeKindOf(seq[i], seq[j]) }

	visited := make([]bool, k)
	mo.Visit = []int{k - 1}
	visited[k-1] = true
	for len(mo.Visit) < k {
		next := -1
		for pos := k - 1; pos >= 0; pos-- {
			if visited[pos] {
				continue
			}
			for _, w := range mo.Visit {
				if adj(pos, w) == pattern.Regular {
					next = pos
					break
				}
			}
			if next != -1 {
				break
			}
		}
		if next == -1 {
			// The core is connected, so this cannot happen; guard anyway.
			panic(fmt.Sprintf("plan: disconnected core traversal for %v", p))
		}
		step := Step{Lo: -1, Hi: -1, Label: p.LabelOf(seq[next])}
		for t, w := range mo.Visit {
			switch adj(next, w) {
			case pattern.Regular:
				step.Nbr = append(step.Nbr, t)
			case pattern.Anti:
				step.Anti = append(step.Anti, t)
			}
			if w < next && (step.Lo == -1 || w > mo.Visit[step.Lo]) {
				step.Lo = t
			}
			if w > next && (step.Hi == -1 || w < mo.Visit[step.Hi]) {
				step.Hi = t
			}
		}
		mo.Steps = append(mo.Steps, step)
		mo.Visit = append(mo.Visit, next)
		visited[next] = true
	}
	return mo
}

// nonCoreSteps orders the non-core regular vertices for completion and
// precomputes each vertex's constraints. Completion order: vertices with
// more core constraints first (their candidate sets are smallest), ties
// by id for determinism.
func nonCoreSteps(p *pattern.Pattern, core []int, conds []Cond) []NonCoreStep {
	isCore := make(map[int]bool, len(core))
	for _, v := range core {
		isCore[v] = true
	}
	var rest []int
	for _, v := range p.RegularVertices() {
		if !isCore[v] {
			rest = append(rest, v)
		}
	}
	constraintCount := func(v int) int {
		c := 0
		for _, u := range p.Neighbors(v) {
			if isCore[u] {
				c++
			}
		}
		for _, u := range p.AntiNeighbors(v) {
			if isCore[u] {
				c++
			}
		}
		return c
	}
	sort.Slice(rest, func(i, j int) bool {
		ci, cj := constraintCount(rest[i]), constraintCount(rest[j])
		if ci != cj {
			return ci > cj
		}
		return rest[i] < rest[j]
	})

	// ordered[u][w]: the conditions put u below w, directly or through
	// other vertices.
	n := p.N()
	ordered := make([][]bool, n)
	for u := range ordered {
		ordered[u] = make([]bool, n)
	}
	for _, c := range conds {
		ordered[c.Less][c.Greater] = true
	}
	for k := range n {
		for u := range n {
			for w := range n {
				ordered[u][w] = ordered[u][w] || ordered[u][k] && ordered[k][w]
			}
		}
	}

	matchedBefore := make(map[int]bool, p.N())
	for _, v := range core {
		matchedBefore[v] = true
	}
	before := append([]int(nil), core...) // in match order
	steps := make([]NonCoreStep, 0, len(rest))
	for _, v := range rest {
		st := NonCoreStep{V: v, Label: p.LabelOf(v)}
		for _, u := range before {
			if !p.HasEdge(u, v) && !ordered[u][v] && !ordered[v][u] {
				st.Distinct = append(st.Distinct, u)
			}
		}
		for _, u := range p.Neighbors(v) {
			// Every regular edge has a cover endpoint, so u is core.
			st.CoreNbrs = append(st.CoreNbrs, u)
		}
		for _, u := range p.AntiNeighbors(v) {
			if p.IsAntiVertex(u) {
				continue // handled by AntiVertexCheck
			}
			// Anti-edges between regular vertices are covered, so u is core.
			st.CoreAnti = append(st.CoreAnti, u)
		}
		for _, c := range conds {
			switch {
			case c.Greater == v && matchedBefore[c.Less]:
				st.LowerBound = append(st.LowerBound, c.Less)
			case c.Less == v && matchedBefore[c.Greater]:
				st.UpperBound = append(st.UpperBound, c.Greater)
			}
		}
		matchedBefore[v] = true
		before = append(before, v)
		steps = append(steps, st)
	}
	return steps
}

// antiChecks precomputes the §4.3 constraint for each anti-vertex.
func antiChecks(p *pattern.Pattern) []AntiVertexCheck {
	var out []AntiVertexCheck
	for _, a := range p.AntiVertices() {
		chk := AntiVertexCheck{V: a, Nbrs: p.AntiNeighbors(a)}
		for _, u := range chk.Nbrs {
			// Pattern neighbors of u whose matches are excluded from the
			// common-neighbor candidates: regular neighbors plus regular
			// anti-neighbors (the latter are never common neighbors anyway,
			// but excluding them matches the formula and is harmless).
			var ex []int
			for _, w := range p.Neighbors(u) {
				if !p.IsAntiVertex(w) {
					ex = append(ex, w)
				}
			}
			chk.Exclude = append(chk.Exclude, ex)
		}
		out = append(out, chk)
	}
	return out
}
