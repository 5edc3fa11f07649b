package core

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"

	"peregrine/internal/gen"
	"peregrine/internal/graph"
	"peregrine/internal/pattern"
	"peregrine/internal/plan"
)

// Run is the tests' one-pattern form of RunPlans: compile p, run it as
// a batch of one, read Per[0]. Count and Exists are its two shapes.
func Run(tb testing.TB, g *graph.Graph, p *pattern.Pattern, cb Callback, opt Options) Stats {
	tb.Helper()
	pl, err := plan.New(p, plan.Options{NoSymmetryBreaking: opt.NoSymmetryBreaking})
	if err != nil {
		tb.Fatal(err)
	}
	var pcb PlanCallback
	if cb != nil {
		pcb = func(ctx *Ctx, _ int, m *Match) { cb(ctx, m) }
	}
	return RunPlans(g, []*plan.Plan{pl}, pcb, opt).Per[0]
}

func Count(tb testing.TB, g *graph.Graph, p *pattern.Pattern, opt Options) uint64 {
	tb.Helper()
	return Run(tb, g, p, nil, opt).Matches
}

func Exists(tb testing.TB, g *graph.Graph, p *pattern.Pattern, opt Options) bool {
	tb.Helper()
	var found atomic.Bool
	Run(tb, g, p, func(ctx *Ctx, _ *Match) { found.Store(true); ctx.Stop() }, opt)
	return found.Load()
}

func mustPlan(t *testing.T, p *pattern.Pattern) *plan.Plan {
	t.Helper()
	pl, err := plan.New(p, plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

// A batched run must produce, per plan, exactly the counts of running
// each plan alone — while scanning the task space once, not once per
// plan.
func TestRunPlansMatchesSerialCounts(t *testing.T) {
	g := gen.ErdosRenyi(gen.ERConfig{Vertices: 64, Edges: 140, Seed: 12})
	pats := []*pattern.Pattern{
		pattern.Clique(3),
		pattern.Star(3),
		pattern.Chain(4),
		pattern.Cycle(4),
	}
	pls := make([]*plan.Plan, len(pats))
	want := make([]uint64, len(pats))
	var serialTasks uint64
	for i, p := range pats {
		pls[i] = mustPlan(t, p)
		st := RunPlans(g, pls[i:i+1], nil, Options{}).Per[0]
		want[i] = st.Matches
		serialTasks += st.Tasks
	}

	ms := RunPlans(g, pls, nil, Options{})
	for i := range pats {
		if ms.Per[i].Matches != want[i] {
			t.Errorf("plan %d (%v): batched = %d, serial = %d", i, pats[i], ms.Per[i].Matches, want[i])
		}
	}
	if ms.Tasks != uint64(g.NumVertices()) {
		t.Errorf("batched tasks = %d, want %d (one traversal)", ms.Tasks, g.NumVertices())
	}
	if serialTasks != uint64(len(pats))*uint64(g.NumVertices()) {
		t.Fatalf("serial tasks = %d, want %d", serialTasks, len(pats)*int(g.NumVertices()))
	}
	if ms.Tasks >= serialTasks {
		t.Errorf("batched run scanned %d tasks, serial loop %d; batching must scan fewer", ms.Tasks, serialTasks)
	}
}

// Matches must arrive tagged with the producing plan's index, and a
// plan listed twice is matched independently per occurrence.
func TestRunPlansTagsAndDuplicates(t *testing.T) {
	g := gen.ErdosRenyi(gen.ERConfig{Vertices: 48, Edges: 110, Seed: 11})
	tri := mustPlan(t, pattern.Clique(3))
	wedge := mustPlan(t, pattern.Star(3))
	pls := []*plan.Plan{tri, wedge, tri} // triangle plan twice

	var mu sync.Mutex
	perPlan := make([]uint64, len(pls))
	ms := RunPlans(g, pls, func(ctx *Ctx, pat int, m *Match) {
		if m.Pattern != pls[pat].Pat {
			t.Errorf("match tagged %d carries pattern %v, want %v", pat, m.Pattern, pls[pat].Pat)
		}
		mu.Lock()
		perPlan[pat]++
		mu.Unlock()
	}, Options{})

	for i := range pls {
		if perPlan[i] != ms.Per[i].Matches {
			t.Errorf("plan %d: callback saw %d matches, stats say %d", i, perPlan[i], ms.Per[i].Matches)
		}
	}
	if perPlan[0] != perPlan[2] {
		t.Errorf("duplicate plan counts differ: %d vs %d", perPlan[0], perPlan[2])
	}
	if total := ms.Matches(); total != perPlan[0]+perPlan[1]+perPlan[2] {
		t.Errorf("MultiStats.Matches = %d, want %d", total, perPlan[0]+perPlan[1]+perPlan[2])
	}
}

// Per-plan stats must be exactly attributed: a label-constrained plan
// in a batch is charged only the tasks its start-label gate admitted,
// while wildcard plans are charged every claimed task — and the
// batch-wide Tasks figure still counts the single shared scan.
func TestRunPlansPerPlanTaskAttribution(t *testing.T) {
	b := graph.NewBuilder()
	// Two triangles: one all label 1, one all label 2.
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 0)
	b.AddEdge(3, 4)
	b.AddEdge(4, 5)
	b.AddEdge(5, 3)
	for v := uint32(0); v < 3; v++ {
		b.SetLabel(v, 1)
	}
	for v := uint32(3); v < 6; v++ {
		b.SetLabel(v, 2)
	}
	g := b.Build()

	wild := mustPlan(t, pattern.Clique(3))
	lab1 := mustPlan(t, pattern.MustParse("0-1 1-2 2-0 [0:1] [1:1] [2:1]"))
	lab2 := mustPlan(t, pattern.MustParse("0-1 1-2 2-0 [0:2] [1:2] [2:2]"))
	ms := RunPlans(g, []*plan.Plan{wild, lab1, lab2}, nil, Options{Threads: 2})

	if ms.Tasks != 6 {
		t.Errorf("batch tasks = %d, want 6 (one shared scan)", ms.Tasks)
	}
	if ms.Per[0].Tasks != 6 {
		t.Errorf("wildcard plan tasks = %d, want 6", ms.Per[0].Tasks)
	}
	if ms.Per[1].Tasks != 3 || ms.Per[2].Tasks != 3 {
		t.Errorf("labeled plan tasks = %d / %d, want 3 / 3 (label-gated)", ms.Per[1].Tasks, ms.Per[2].Tasks)
	}
	if ms.Per[0].Matches != 2 || ms.Per[1].Matches != 1 || ms.Per[2].Matches != 1 {
		t.Errorf("matches = %d / %d / %d, want 2 / 1 / 1", ms.Per[0].Matches, ms.Per[1].Matches, ms.Per[2].Matches)
	}
}

// Shared and unshared execution must agree on every per-plan figure,
// and the sharing telemetry must account exactly: intersections
// performed plus intersections saved equals the unshared workload.
func TestRunPlansSharingTelemetryExact(t *testing.T) {
	g := gen.ErdosRenyi(gen.ERConfig{Vertices: 96, Edges: 260, Seed: 21})
	var pls []*plan.Plan
	for _, m := range pattern.GenerateAllVertexInduced(4) {
		pls = append(pls, mustPlan(t, pattern.VertexInduced(m)))
	}
	sh := RunPlans(g, pls, nil, Options{Threads: 4})
	un := RunPlans(g, pls, nil, Options{Threads: 4, NoSharing: true})

	for i := range pls {
		if sh.Per[i].Matches != un.Per[i].Matches || sh.Per[i].CoreMatches != un.Per[i].CoreMatches || sh.Per[i].Tasks != un.Per[i].Tasks {
			t.Errorf("plan %d: shared %+v != unshared %+v", i, sh.Per[i], un.Per[i])
		}
	}
	if sh.Share.TrieNodes >= sh.Share.ProgramSteps {
		t.Errorf("4-motif batch built no shared prefixes: %d nodes / %d steps", sh.Share.TrieNodes, sh.Share.ProgramSteps)
	}
	if un.Share.TrieNodes != un.Share.ProgramSteps || un.Share.IntersectionsSaved != 0 || un.Share.SharedNodeVisits != 0 {
		t.Errorf("unshared run reports sharing: %+v", un.Share)
	}
	if sh.Share.Intersections+sh.Share.IntersectionsSaved != un.Share.Intersections {
		t.Errorf("sharing accounting: %d performed + %d saved != %d unshared",
			sh.Share.Intersections, sh.Share.IntersectionsSaved, un.Share.Intersections)
	}
	if sh.Share.SharedNodeVisits == 0 || sh.Share.IntersectionsSaved == 0 {
		t.Errorf("no sharing observed at runtime: %+v", sh.Share)
	}
}

// An empty plan slice and an empty graph are both no-ops, and early
// returns must still ship complete per-plan Stats snapshots: a
// pre-cancelled context reports Stopped on every entry so callers
// reading Per[i] (like peregrine.CountWithStats) can tell an aborted
// run from a genuine zero count.
func TestRunPlansEdgeCases(t *testing.T) {
	g := gen.ErdosRenyi(gen.ERConfig{Vertices: 16, Edges: 30, Seed: 7})
	ms := RunPlans(g, nil, nil, Options{})
	if len(ms.Per) != 0 || ms.Tasks != 0 {
		t.Errorf("empty plan slice: %+v", ms)
	}

	tri := mustPlan(t, pattern.Clique(3))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ms = RunPlans(g, []*plan.Plan{tri}, nil, Options{Context: ctx, Threads: 2})
	if !ms.Stopped || !ms.Per[0].Stopped {
		t.Errorf("pre-cancelled context: Stopped = %v, Per[0].Stopped = %v, want both true", ms.Stopped, ms.Per[0].Stopped)
	}
	if ms.Per[0].Threads != 2 {
		t.Errorf("pre-cancelled context: Per[0].Threads = %d, want 2", ms.Per[0].Threads)
	}

	empty := gen.ErdosRenyi(gen.ERConfig{Vertices: 0, Edges: 0, Seed: 7})
	ms = RunPlans(empty, []*plan.Plan{tri}, nil, Options{Threads: 3})
	if ms.Per[0].Threads != 3 || ms.Per[0].Stopped {
		t.Errorf("empty graph: Per[0] = %+v, want Threads=3, not stopped", ms.Per[0])
	}
}

// A count and an enumeration of one batch do the same work: per plan,
// the same matches, core matches, tasks and intersections. Count mode
// sizes a plan whose completion is one level at its core binding — for
// all of a trie node's candidates in one loop where the trie marks the
// node Sized — and charges each candidate the core match and the
// intersection its walk would take; this pins that accounting. The
// batch holds cliques, which such nodes size, and cycles whose level
// may hold core vertices; both symmetry settings, shared and unshared
// tries, one and four threads, and a task range split in two, whose
// halves must sum alike — on Build's layout, where a clique's sized
// level scans each candidate's list down to its bound, and hubs-first,
// where it does not.
func TestCountAndEnumerationDoTheSameWork(t *testing.T) {
	built := gen.RMAT(gen.RMATConfig{Vertices: 64, Edges: 500, Seed: 2})
	desc, err := graph.RenumberDescending(built)
	if err != nil {
		t.Fatal(err)
	}
	texts := []string{
		"0-1 1-2 2-0",
		"0-1 0-2 0-3 1-2 1-3 2-3",
		"0-1 0-2 0-3 0-4 1-2 1-3 1-4 2-3 2-4 3-4",
		"0-2 0-3 1-2 1-3",
		"0-3 0-4 1-2 1-4 2-3",
		"0-1 0-2 1-3 2-4 3-4",
	}
	noop := func(*Ctx, int, *Match) {}
	for _, layout := range []struct {
		name string
		g    *graph.Graph
	}{{"ascending", built}, {"hubs-first", desc}} {
		g := layout.g
		for _, noSym := range []bool{false, true} {
			var pls []*plan.Plan
			for _, text := range texts {
				pl, err := plan.New(pattern.MustParse(text), plan.Options{NoSymmetryBreaking: noSym})
				if err != nil {
					t.Fatal(err)
				}
				pls = append(pls, pl)
			}
			for _, noSharing := range []bool{false, true} {
				for _, threads := range []int{1, 4} {
					for _, split := range []bool{false, true} {
						run := func(cb PlanCallback) []Stats {
							opt := Options{Threads: threads, NoSymmetryBreaking: noSym, NoSharing: noSharing}
							if !split {
								return RunPlans(g, pls, cb, opt).Per
							}
							opt.TaskHi = g.NumVertices() / 2
							per := RunPlans(g, pls, cb, opt).Per
							opt.TaskLo, opt.TaskHi = opt.TaskHi, 0
							for i, s := range RunPlans(g, pls, cb, opt).Per {
								per[i].Matches += s.Matches
								per[i].CoreMatches += s.CoreMatches
								per[i].Tasks += s.Tasks
								per[i].Intersections += s.Intersections
							}
							return per
						}
						count, enum := run(nil), run(noop)
						for i, text := range texts {
							c, e := count[i], enum[i]
							if c.Matches != e.Matches || c.CoreMatches != e.CoreMatches || c.Tasks != e.Tasks || c.Intersections != e.Intersections {
								t.Errorf("%s %s noSym=%v noSharing=%v threads=%d split=%v: count %v intersections=%d, enumeration %v intersections=%d",
									layout.name, text, noSym, noSharing, threads, split, c, c.Intersections, e, e.Intersections)
							}
						}
					}
				}
			}
		}
	}
}
