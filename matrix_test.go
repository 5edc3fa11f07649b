package peregrine

// The count matrix: every way this package counts is a cell of one table,
// checked against one oracle, internal/ref's brute-force matcher. A cell
// fixes a seeded graph, a pattern form and a value on each axis below,
// counts every connected 2–4-vertex pattern of that form (5-vertex too on
// er-48, the smallest graph, unless -short; the tail and cut forms count
// tailPatterns and cutPatterns instead) and compares with the oracle.
// A row of the table is graphs × a union of products of axis values, run
// as the test of its name; TestCountMatrix adds cells until every pair of
// values of two axes co-occurs, which TestCountMatrixCoversAllPairs
// asserts; FuzzCountMatrix counts a parsed pattern in a cell it draws.

import (
	"hash/fnv"
	"maps"
	"math/bits"
	"math/rand"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"peregrine/internal/core"
	"peregrine/internal/gen"
	"peregrine/internal/graph"
	"peregrine/internal/pattern"
	"peregrine/internal/plan"
	"peregrine/internal/ref"
)

// The axes, in the order a cell holds them. Value 0 of each is what the
// library does by default.
const axLayout, axEntry, axSym, axShare, axMorph, axRange, axNumber, axBatch, numAxes = 0, 1, 2, 3, 4, 5, 6, 7, 8

var axisValues = [numAxes][]string{
	axLayout: {"built", "edgelist", "pgr", "shards3", "desc", "renumbered-shards3"},
	axEntry:  {"RunPlans-count", "RunPlans-enumerate", "CountMany", "CountEach", "CountEachMerged", "PlanCount", "MotifCounts"},
	axSym:    {"sym", "no-sym"},
	axShare:  {"trie", "unshared"},
	axMorph:  {"morph", "direct"},
	axRange:  {"whole", "thirds", "uneven"},
	axNumber: {"generated", "renumbered", "cache-per-range"},
	axBatch:  {"solo", "size", "subset", "pairs"},
}

// Axis values by name.
const atBuilt, atEdgeList, atPGR, atShards, atDesc, atRenumShards = 0, 1, 2, 3, 4, 5
const viaRunCount, viaRunEnum, viaCountMany, viaCountEach, viaMerged, viaPlanCount, viaMotifs = 0, 1, 2, 3, 4, 5, 6
const overWhole, overThirds, overUneven = 0, 1, 2
const asGenerated, asRenumbered, cachePerRange = 0, 1, 2
const asSolo, asSize, asSubset, asPairs = 0, 1, 2, 3

// A form derives the patterns a cell counts from a connected unlabeled
// skeleton; the tail and cut forms count tailPatterns and cutPatterns
// instead.
type form int

const plainForm, viForm, mixedForm, antiForm, labeledVIForm, bothForm, tailForm, cutForm form = 0, 1, 2, 3, 4, 5, 6, 7

var formNames = []string{"plain", "vertex-induced", "mixed-labels", "anti-vertex", "labeled-vertex-induced", "plain+vertex-induced", "tails", "cuts"}

// tailPatterns have completion tails of three or more levels, which a
// count sizes in closed form (plan.Tail); the spider comes in three
// spellings, each sized whole.
var tailPatterns = sync.OnceValue(func() (out []*Pattern) {
	for _, text := range []string{
		"0-1 0-2 0-3 0-4 0-5",     // K1,5: one class of five leaves
		"0-1 0-2 0-3 0-4 0-5 0-6", // K1,6
		"0-1 1-2 0-3 3-4 0-5",     // spider: three classes of one
		"0-2 1-2 0-4 3-4 0-5",     // the spider respelled
		"0-1 0-3 2-3 0-4 4-5",     // and again
		"0-1 0-2 0-3 1-4 1-5",     // double star: two chained pairs
		"0-1 0-2 0-3 0-4 1-5 1-6", // double star, three leaves and two
	} {
		out = append(out, pattern.MustParse(text))
	}
	return out
})

// cutPatterns have a vertex cut the count can decompose at (plan.Cut):
// the 4-cycle, P4, the 5-cycle, P5, the 6-cycle, the house, the bull, the
// wheel W4, whose only cuts have three vertices, and the chair, each in
// two spellings, edge- and vertex-induced — the latter morph first, and
// their relatives decompose.
var cutPatterns = sync.OnceValue(func() (out []*Pattern) {
	for _, text := range []string{
		"0-1 1-2 2-3 3-0",                 // C4: a diagonal
		"0-1 1-2 2-3",                     // P4: an inner vertex, or the middle edge
		"0-1 1-2 2-3 3-4 4-0",             // C5: two non-adjacent vertices
		"0-1 1-2 2-3 3-4",                 // P5: its middle vertex
		"0-1 1-2 2-3 3-4 4-5 5-0",         // C6: two opposite vertices
		"0-1 1-2 2-3 3-0 0-4 1-4",         // the house
		"0-1 1-2 2-0 0-3 1-4",             // the bull: its triangle's edge
		"0-1 0-2 0-3 0-4 1-3 1-4 2-3 2-4", // W4: its hub and two opposite rim vertices
		"0-1 0-2 0-3 1-4",                 // the chair: its degree-3 vertex
	} {
		p := pattern.MustParse(text)
		for _, q := range []*Pattern{p, p.Renumber(rand.New(rand.NewSource(int64(p.N()))).Perm(p.N()))} {
			out = append(out, q, pattern.VertexInduced(q))
		}
	}
	return out
})

func (f form) of(s *Pattern) []*Pattern {
	p := s.Clone()
	switch f {
	case viForm:
		return []*Pattern{pattern.VertexInduced(s)}
	case bothForm:
		return []*Pattern{p, pattern.VertexInduced(s)}
	case mixedForm:
		p.SetLabel(0, 0)
		p.SetLabel(p.N()-1, 1)
	case antiForm:
		a := p.AddVertex()
		p.AddAntiEdge(0, a)
		p.AddAntiEdge(s.N()-1, a)
	case labeledVIForm:
		var out []*Pattern
		for variant := 0; variant < 3; variant++ {
			for v := 0; v < p.N(); v++ {
				p.SetLabel(v, Label((v+variant)%3))
			}
			out = append(out, pattern.VertexInduced(p))
		}
		return out
	}
	return []*Pattern{p}
}

// skeletons are the connected unlabeled patterns of 2..5 vertices, by size.
var skeletons = sync.OnceValue(func() (out [][]*Pattern) {
	for size := 2; size <= 5; size++ {
		out = append(out, pattern.GenerateAllVertexInduced(size))
	}
	return out
})

// matrixFamilies are the seeded graphs. A graph key is a family name,
// optionally suffixed "-l<k>" for k uniform vertex labels; labels are
// drawn after the edges, so a labeled graph has its family's structure.
var matrixFamilies = map[string]func(labels int) *Graph{
	"er-48":   func(l int) *Graph { return gen.ErdosRenyi(gen.ERConfig{Vertices: 48, Edges: 110, Seed: 11, Labels: l}) },
	"er-64":   func(l int) *Graph { return gen.ErdosRenyi(gen.ERConfig{Vertices: 64, Edges: 140, Seed: 12, Labels: l}) },
	"rmat-64": func(l int) *Graph { return gen.RMAT(gen.RMATConfig{Vertices: 64, Edges: 160, Seed: 13, Labels: l}) },
}

var graphMemo sync.Map // graph key -> *Graph

func matrixGraph(key string) *Graph {
	if g, ok := graphMemo.Load(key); ok {
		return g.(*Graph)
	}
	family, labels, _ := strings.Cut(key, "-l")
	l, _ := strconv.Atoi(labels)
	g, _ := graphMemo.LoadOrStore(key, matrixFamilies[family](l))
	return g.(*Graph)
}

// A cell is one point of the matrix.
type cell struct {
	graph string
	form  form
	v     [numAxes]int
}

func (c cell) String() string {
	parts := []string{c.graph, formNames[c.form]}
	for a, v := range c.v {
		parts = append(parts, axisValues[a][v])
	}
	return strings.Join(parts, " ")
}

// batches is c's corpus — every skeleton of 2..4 vertices in c's form,
// and of 5 on er-48, or the tail patterns, respelled in a renumbered
// cell (a cache-per-range cell respells what seeds its caches instead,
// see optsAt) — split the way c's batch axis asks: one pattern per batch, one
// batch per size, seeded draws with duplicates each followed by its
// shuffle, or every pair of 2–4-vertex patterns.
func (c cell) batches() [][]*Pattern {
	sizes := 3
	if strings.HasPrefix(c.graph, "er-48") && !testing.Short() {
		sizes = 4
	}
	bySize := [][]*Pattern{slices.Clone(tailPatterns())}
	if c.form == cutForm {
		bySize = [][]*Pattern{slices.Clone(cutPatterns())}
	} else if c.form != tailForm {
		bySize = make([][]*Pattern, sizes)
		for i, ss := range skeletons()[:sizes] {
			for _, s := range ss {
				bySize[i] = append(bySize[i], c.form.of(s)...)
			}
		}
	}
	for _, ps := range bySize {
		for i, p := range ps {
			if c.v[axNumber] == asRenumbered {
				ps[i] = spell(p, 0)
			}
		}
	}
	flat := slices.Concat(bySize...)
	var out [][]*Pattern
	switch c.v[axBatch] {
	case asSolo:
		for _, p := range flat {
			out = append(out, []*Pattern{p})
		}
	case asSize:
		out = bySize
	case asSubset:
		rng := rand.New(rand.NewSource(int64(len(flat))))
		for range 4 {
			b := make([]*Pattern, 1+rng.Intn(len(flat)))
			for i := range b {
				b[i] = flat[rng.Intn(len(flat))]
			}
			shuffled := slices.Clone(b)
			rng.Shuffle(len(b), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
			out = append(out, b, shuffled)
		}
	case asPairs:
		small := slices.Concat(bySize[:3]...)
		for i, p := range small {
			for _, q := range small[i+1:] {
				out = append(out, []*Pattern{p, q})
			}
		}
	}
	return out
}

// spell renames p's vertices by a permutation seeded from its text and k,
// so a pattern has one k-th respelling across the matrix.
func spell(p *Pattern, k int) *Pattern {
	h := fnv.New64a()
	h.Write([]byte(p.String()))
	return p.Renumber(rand.New(rand.NewSource(int64(h.Sum64()) + int64(k))).Perm(p.N()))
}

// options are c's switches as run options. A renumbered or cache-per-range
// cell compiles through its own fresh plan cache.
func (c cell) options() []Option {
	opts := []Option{WithThreads(4)}
	for a, o := range map[int]Option{axSym: WithoutSymmetryBreaking(), axShare: WithoutSharing(),
		axMorph: WithoutMorphing(), axNumber: WithPlanCache(NewPlanCache(0))} {
		if c.v[a] != 0 {
			opts = append(opts, o)
		}
	}
	return opts
}

// A row runs as the test of its name: a subtest per graph of on, each
// running the cells of every block on that graph.
type row struct {
	on     []sub
	blocks []block
}

// sub runs a graph's cells under a subtest name.
type sub struct{ name, graph string }

func on(graphs ...string) (out []sub) {
	for _, g := range graphs {
		out = append(out, sub{g, g})
	}
	return out
}

// A block is a product: every combination of its forms and axis values
// is a cell; a nil axis takes value 0.
type block struct {
	forms []form
	axes  ax
}

func (b block) cells(graph string) []cell {
	var out []cell
	for _, f := range b.forms {
		out = append(out, cell{graph: graph, form: f})
	}
	for a, vals := range b.axes {
		var next []cell
		for _, c := range out {
			for _, v := range vals {
				c.v[a] = v
				next = append(next, c)
			}
		}
		if vals != nil {
			out = next
		}
	}
	return out
}

type ax = [numAxes][]int

var (
	noSym, unshared, direct, both = []int{1}, []int{1}, []int{1}, []int{0, 1}
	perRange                      = []int{cachePerRange}
	plainOn                       = on("er-48", "er-64", "rmat-64")
	labeledOn                     = []sub{{"er-48", "er-48-l3"}, {"er-64", "er-64-l2"}, {"rmat-64", "rmat-64-l4"}}
	morphOn                       = append(on("er-48", "er-64", "rmat-64"), sub{"er-48-labeled", "er-48-l3"}, sub{"rmat-64-labeled", "rmat-64-l4"})
	fourForms                     = []form{plainForm, viForm, mixedForm, antiForm}
	plain, vi, labeledVI          = []form{plainForm}, []form{viForm}, []form{labeledVIForm}
	skeletonForms                 = []form{plainForm, viForm, mixedForm, antiForm, labeledVIForm, bothForm}
	fourWays                      = []int{atBuilt, atShards, atDesc, atRenumShards}
)

// matrixRows are the named rows.
var matrixRows = map[string]row{
	"TestDifferentialVertexInduced":             {plainOn, []block{{vi, ax{axMorph: direct}}}},
	"TestDifferentialEdgeInduced":               {plainOn, []block{{plain, ax{axMorph: direct}}}},
	"TestDifferentialUnorderedAgainstReference": {plainOn, []block{{plain, ax{axSym: noSym, axMorph: direct}}}},
	// Counting equals enumerating, on every layout, solo and a size at a
	// time, shared and unshared, and over three task ranges.
	"TestDifferentialCountVsEnumerate": {labeledOn, []block{
		{fourForms, ax{axLayout: fourWays, axEntry: {viaRunCount, viaRunEnum}, axSym: both, axMorph: direct, axBatch: {asSolo, asSize}}},
		{fourForms, ax{axLayout: fourWays, axEntry: {viaRunCount, viaRunEnum}, axSym: both, axShare: unshared, axMorph: direct,
			axBatch: {asSize}}},
		{fourForms, ax{axSym: both, axShare: both, axMorph: direct, axRange: {overThirds}, axBatch: {asSize}}},
		{fourForms, ax{axSym: both, axMorph: direct, axRange: {overThirds}}},
	}},
	// Tails sized in closed form, and their respellings that fall back, on
	// the count and the enumeration alike.
	"TestDifferentialCountTails": {on("er-48"), []block{
		{[]form{tailForm}, ax{axEntry: {viaRunCount, viaRunEnum, viaCountMany}, axSym: both, axShare: both,
			axNumber: {asGenerated, asRenumbered, cachePerRange}, axBatch: {asSolo, asSize}}},
	}},
	"TestDifferentialSharedBatches": {plainOn, []block{
		{vi, ax{axEntry: {viaCountMany}, axShare: unshared}},
		{vi, ax{axEntry: {viaCountMany}, axMorph: direct, axBatch: {asSize, asSubset}}},
	}},
	"TestDifferentialSharedPairs": {on("er-48"), []block{{vi, ax{axEntry: {viaCountMany}, axBatch: {asPairs}}}}},
	"TestDifferentialSharedLabeled": {on("er-48-l3", "rmat-64-l4"), []block{
		{vi, ax{axEntry: {viaMotifs}, axBatch: {asSize}}},
		{labeledVI, ax{axEntry: {viaCountMany}, axShare: unshared}},
		{labeledVI, ax{axEntry: {viaCountMany}, axBatch: {asSize}}},
	}},
	"TestMetamorphicSubsetsAndShuffles": {on("rmat-64"), []block{{vi, ax{axEntry: {viaCountMany}, axBatch: {asSubset}}}}},
	// Morphing is invisible through every entry point, whole and by range.
	"TestDifferentialMorphedVertexInduced": {morphOn, []block{
		{vi, ax{axEntry: {viaCountMany}, axMorph: both, axBatch: {asSolo, asSize}}},
		{vi, ax{axEntry: {viaMotifs}, axBatch: {asSize}}},
		{vi, ax{axEntry: {viaCountMany, viaCountEach, viaMerged, viaPlanCount}, axRange: {overUneven}, axBatch: {asSolo, asSize}}},
		{vi, ax{axEntry: {viaCountEach, viaMerged, viaPlanCount}}},
	}},
	"TestDifferentialMorphedLabeledPatterns": {on("er-48-l3"), []block{{labeledVI, ax{axEntry: {viaCountMany}, axMorph: both}}}},
	"TestMorphMetamorphicBatches": {[]sub{{"er-48", "er-48"}, {"er-48-labeled", "er-48-l3"}},
		[]block{{vi, ax{axEntry: {viaCountMany}, axBatch: {asSubset}}}}},
	"TestDifferentialShardedUnlabeled": {on("er-64"), []block{{vi, ax{axLayout: {atBuilt, atShards}, axEntry: {viaCountMany}}}}},
	"TestDifferentialShardedLabeled": {on("er-48-l3"),
		[]block{{labeledVI, ax{axLayout: {atBuilt, atShards}, axEntry: {viaCountMany}}}}},
	"TestTaskRangeAdditivity": {on("rmat-64-l4"), []block{{plain, ax{axLayout: {atBuilt, atShards}, axEntry: {viaCountMany},
		axSym: both, axRange: {overThirds, overUneven}, axBatch: {asSize}}}}},
	"TestBackendsIdenticalCounts": {[]sub{{"rmat", "rmat-64"}, {"labeled", "rmat-64-l4"}},
		[]block{{[]form{plainForm, viForm}, ax{axLayout: {atEdgeList, atPGR}, axEntry: {viaCountMany}, axBatch: {asSize}}}}},
	"TestPreparedCountEachMatchesSerialCount": {plainOn, []block{{[]form{bothForm}, ax{axEntry: {viaCountEach}, axBatch: {asSize}}}}},
	"TestCountEachMergedMatchesSeparateRuns": {plainOn,
		[]block{{plain, ax{axEntry: {viaMerged}, axNumber: both, axBatch: {asSize, asSubset}}}}},
	// Renumbered layouts: the same counts and the same OrigID-mapped matches.
	"TestRenumberingDifferential": {on("rmat-64", "rmat-64-l4", "er-48"),
		[]block{{[]form{plainForm, viForm}, ax{axLayout: {atDesc}, axEntry: {viaRunEnum}, axSym: both, axMorph: direct}}}},
	"TestRenumberingDifferentialSharded": {on("rmat-64", "rmat-64-l4"),
		[]block{{plain, ax{axLayout: {atRenumShards}, axEntry: {viaRunEnum}, axSym: both, axMorph: direct}}}},
	"TestTaskRangesCoverDescending": {on("rmat-64"), []block{{plain, ax{axLayout: {atDesc}, axRange: {overThirds}}}}},
	// Each task range counted through its own fresh plan cache, seeded
	// with another spelling of every pattern — as by nodes other clients
	// reached first, or by one node across a restart — sums to the whole.
	// The blocks meet every value of the other axes in pairs the rows above
	// already hold, so TestCountMatrix's filler is what it was without the
	// value; the tail and cut forms do the same in TestDifferentialCountTails
	// and TestDifferentialCountCuts.
	"TestTaskRangesSumAcrossPlanCaches": {[]sub{{"er-48", "er-48-l3"}, {"rmat-64", "rmat-64-l4"}}, []block{
		{skeletonForms, ax{axEntry: {viaCountMany}, axRange: {overThirds, overUneven}, axNumber: perRange}},
		{[]form{viForm, bothForm}, ax{axEntry: {viaCountEach, viaMerged, viaPlanCount}, axRange: {overUneven}, axNumber: perRange,
			axBatch: {asSize}}},
		{vi, ax{axLayout: {atEdgeList, atPGR}, axEntry: {viaCountMany}, axNumber: perRange, axBatch: {asSize}}},
		{vi, ax{axLayout: {atShards}, axEntry: {viaCountMany}, axNumber: perRange}},
		{plain, ax{axLayout: {atDesc}, axRange: {overThirds}, axNumber: perRange}},
		{plain, ax{axLayout: {atRenumShards}, axEntry: {viaRunEnum}, axMorph: direct, axNumber: perRange}},
		{vi, ax{axEntry: {viaMotifs}, axNumber: perRange, axBatch: {asSize}}},
		{vi, ax{axEntry: {viaCountMany}, axNumber: perRange, axBatch: {asSubset, asPairs}}},
	}},
}

func TestDifferentialVertexInduced(t *testing.T)             { runRow(t) }
func TestDifferentialEdgeInduced(t *testing.T)               { runRow(t) }
func TestDifferentialUnorderedAgainstReference(t *testing.T) { runRow(t) }
func TestDifferentialCountVsEnumerate(t *testing.T)          { runRow(t) }
func TestDifferentialCountTails(t *testing.T)                { runRow(t) }
func TestDifferentialSharedBatches(t *testing.T)             { runRow(t) }
func TestDifferentialSharedPairs(t *testing.T)               { runRow(t) }
func TestDifferentialSharedLabeled(t *testing.T)             { runRow(t) }
func TestMetamorphicSubsetsAndShuffles(t *testing.T)         { runRow(t) }
func TestDifferentialMorphedVertexInduced(t *testing.T)      { runRow(t) }
func TestDifferentialMorphedLabeledPatterns(t *testing.T)    { runRow(t) }
func TestMorphMetamorphicBatches(t *testing.T)               { runRow(t) }
func TestDifferentialShardedUnlabeled(t *testing.T)          { runRow(t) }
func TestDifferentialShardedLabeled(t *testing.T)            { runRow(t) }
func TestTaskRangeAdditivity(t *testing.T)                   { runRow(t) }
func TestBackendsIdenticalCounts(t *testing.T)               { runRow(t) }
func TestCountEachMergedMatchesSeparateRuns(t *testing.T)    { runRow(t) }
func TestPreparedCountEachMatchesSerialCount(t *testing.T)   { runRow(t) }
func TestRenumberingDifferential(t *testing.T)               { runRow(t) }
func TestRenumberingDifferentialSharded(t *testing.T)        { runRow(t) }
func TestTaskRangesCoverDescending(t *testing.T)             { runRow(t) }
func TestTaskRangesSumAcrossPlanCaches(t *testing.T)         { runRow(t) }

// cutRow counts what in-process counting decomposes at a vertex cut, and
// the paths that must not decompose — task ranges, no symmetry breaking,
// a coordinator's PlanCount — on the same patterns. It adds no pair of
// axis values the rows lack, so it stays out of matrixRows, from whose
// cells TestCountMatrix plans its filler: the filler keeps its cells.
var cutRow = row{plainOn, []block{
	{[]form{cutForm}, ax{axEntry: {viaCountMany, viaCountEach, viaMerged, viaPlanCount}, axMorph: both, axNumber: both,
		axBatch: {asSolo, asSize}}},
	{[]form{cutForm}, ax{axLayout: {atShards}, axEntry: {viaCountMany}, axSym: both, axShare: both, axBatch: {asSize}}},
	{[]form{cutForm}, ax{axEntry: {viaCountMany, viaRunCount}, axRange: {overThirds}, axBatch: {asSize}}},
	{[]form{cutForm}, ax{axEntry: {viaCountMany, viaPlanCount}, axRange: {overThirds}, axNumber: perRange, axBatch: {asSize}}},
}}

func TestDifferentialCountCuts(t *testing.T) { runRowOf(t, cutRow) }

// TestCountMatrix runs the cells no row holds that every pair of axis
// values needs.
func TestCountMatrix(t *testing.T) {
	for _, c := range fillerCells(rowCells()) {
		t.Run(c.String(), func(t *testing.T) { runCell(t, &layouts{t, map[string]*Graph{}}, c) })
	}
}

func TestCountMatrixCoversAllPairs(t *testing.T) {
	cells := rowCells()
	cells = append(cells, fillerCells(cells)...)
	seen := pairsOf(cells)
	for _, p := range allPairs() {
		if !seen[p] {
			t.Errorf("%s never meets %s", axisValues[p.a][p.va], axisValues[p.b][p.vb])
		}
	}
	t.Logf("%d cells", len(cells))
}

func runRow(t *testing.T) {
	r, ok := matrixRows[t.Name()]
	if !ok {
		t.Fatal("matrixRows has no row of this name")
	}
	runRowOf(t, r)
}

func runRowOf(t *testing.T, r row) {
	for _, s := range r.on {
		t.Run(s.name, func(t *testing.T) {
			ls := &layouts{t, map[string]*Graph{}}
			for _, b := range r.blocks {
				for _, c := range b.cells(s.graph) {
					runCell(t, ls, c)
				}
			}
		})
	}
}

func runCell(t *testing.T, ls *layouts, c cell) {
	r := cellRun{c, ls.get(c.graph, c.v[axLayout]), c.options()}
	for _, b := range c.batches() {
		if !r.check(t, b) {
			return
		}
	}
}

// rowCells is every cell of every row.
func rowCells() (out []cell) {
	for _, name := range slices.Sorted(maps.Keys(matrixRows)) {
		r := matrixRows[name]
		for _, s := range r.on {
			for _, b := range r.blocks {
				out = append(out, b.cells(s.graph)...)
			}
		}
	}
	return out
}

// valuePair is two values of two axes, a < b.
type valuePair struct{ a, va, b, vb int }

// clashes reports a cell no entry point can run: MotifCounts always asks
// for every motif of a size.
func clashes(c cell, set [numAxes]bool) bool {
	return set[axEntry] && set[axBatch] && c.v[axEntry] == viaMotifs && c.v[axBatch] != asSize
}

// allPairs is every pair of values of two axes some cell can hold.
func allPairs() (out []valuePair) {
	for a := 0; a < numAxes; a++ {
		for b := a + 1; b < numAxes; b++ {
			for va := range axisValues[a] {
				for vb := range axisValues[b] {
					var c cell
					var set [numAxes]bool
					c.v[a], c.v[b], set[a], set[b] = va, vb, true, true
					if !clashes(c, set) {
						out = append(out, valuePair{a, va, b, vb})
					}
				}
			}
		}
	}
	return out
}

func pairsOf(cells []cell) map[valuePair]bool {
	seen := map[valuePair]bool{}
	for _, c := range cells {
		for a := 0; a < numAxes; a++ {
			for b := a + 1; b < numAxes; b++ {
				seen[valuePair{a, c.v[a], b, c.v[b]}] = true
			}
		}
	}
	return seen
}

// fillerCells adds a cell for each pair no cell of base holds. Its other
// axes take, one by one, the value meeting the most missing pairs; its
// form rotates, on er-64 and rmat-64, unlabeled and labeled.
func fillerCells(base []cell) []cell {
	seen := pairsOf(base)
	var out []cell
	for _, need := range allPairs() {
		if seen[need] {
			continue
		}
		var c cell
		var set [numAxes]bool
		c.v[need.a], c.v[need.b], set[need.a], set[need.b] = need.va, need.vb, true, true
		for x := range numAxes {
			if set[x] {
				continue
			}
			set[x] = true
			best, gain := 0, -1
			for v := range axisValues[x] {
				if c.v[x] = v; clashes(c, set) {
					continue
				}
				n := 0
				for y := range numAxes {
					if y != x && set[y] && !seen[valuePair{min(x, y), c.v[min(x, y)], max(x, y), c.v[max(x, y)]}] {
						n++
					}
				}
				if n > gain {
					best, gain = v, n
				}
			}
			c.v[x] = best
		}
		i := len(out)
		c.form = form(i % int(tailForm)) // the skeleton forms
		if c.v[axEntry] == viaMotifs {
			c.form = viForm
		} else if c.v[axBatch] == asPairs && c.form == labeledVIForm {
			c.form = mixedForm // not 27 patterns' 351 pairs
		}
		c.graph = []string{"er-64", "rmat-64", "er-64-l2", "rmat-64-l4"}[i%4]
		if c.form == mixedForm || c.form == labeledVIForm {
			c.graph = []string{"er-64-l2", "rmat-64-l4"}[i%2]
		}
		out = append(out, c)
		maps.Copy(seen, pairsOf([]cell{c}))
	}
	return out
}

// layouts materializes each graph layout a test needs once.
type layouts struct {
	tb testing.TB
	m  map[string]*Graph
}

func (ls *layouts) get(key string, l int) *Graph {
	k := key + "/" + axisValues[axLayout][l]
	if g, ok := ls.m[k]; ok {
		return g
	}
	g := matrixGraph(key)
	var err error
	if l == atDesc || l == atRenumShards {
		if g, err = graph.RenumberDescending(g); err != nil {
			ls.tb.Fatal(err)
		}
	}
	switch l {
	case atEdgeList:
		g = reload(ls.tb, g, "g.txt", SaveGraph)
	case atPGR:
		g = reload(ls.tb, g, "g.pgr", SaveGraph)
	case atShards, atRenumShards:
		g = shardedCopy(ls.tb, g, 3)
	}
	ls.m[k] = g
	return g
}

// reload saves g under name in a temporary directory and loads it back.
func reload(tb testing.TB, g *Graph, name string, save func(string, *Graph) error) *Graph {
	tb.Helper()
	path := filepath.Join(tb.TempDir(), name)
	if err := save(path, g); err != nil {
		tb.Fatal(err)
	}
	lg, err := LoadGraph(path)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { lg.Close() })
	return lg
}

// shardedCopy writes g as a manifest over shards fragments and loads it back.
func shardedCopy(tb testing.TB, g *Graph, shards int) *Graph {
	return reload(tb, g, "g.manifest", func(path string, g *Graph) error { return SaveShardedGraph(path, g, shards) })
}

// cellRun counts batches the way its cell says.
type cellRun struct {
	c    cell
	g    *Graph // the cell's layout
	opts []Option
}

// check counts b and compares every count with the oracle's; it reports
// the first mismatch only.
func (r cellRun) check(t *testing.T, b []*Pattern) bool {
	t.Helper()
	pats, got := r.count(t, b)
	for i, p := range pats {
		if want := r.want(p); got[i] != want {
			t.Errorf("%v: %v in a batch of %d counts %d, oracle %d", r.c, p, len(b), got[i], want)
			return false
		}
	}
	return true
}

// want is the oracle's count of p with and without symmetry breaking.
func (r cellRun) want(p *Pattern) uint64 {
	o := oracle(r.c.graph, p)
	return [2]uint64{o.unique, o.all}[r.c.v[axSym]]
}

// ranges are the task ranges a cell's counts sum over: the zero range is
// the whole graph, and hi 0 runs to the last vertex.
func (r cellRun) ranges() [][2]uint32 {
	n := r.g.NumVertices()
	switch r.c.v[axRange] {
	case overThirds:
		return [][2]uint32{{0, n / 3}, {n / 3, 2 * n / 3}, {2 * n / 3, n}}
	case overUneven:
		return [][2]uint32{{0, 1}, {1, n / 4}, {n / 4, n - 1}, {n - 1, 0}}
	}
	return [][2]uint32{{}}
}

// at is opts plus more, restricted to the task range rg.
func at(opts []Option, rg [2]uint32, more ...Option) []Option {
	out := append(slices.Clone(opts), more...)
	if rg != ([2]uint32{}) {
		out = append(out, WithTaskRange(rg[0], rg[1]))
	}
	return out
}

func (r cellRun) prepare(t *testing.T, opts []Option, b []*Pattern) *PreparedQuery {
	q, err := PrepareWith(opts, b...)
	must(t, err)
	return q
}

// optsAt is the cell's options for its k-th task range. A cache-per-range
// cell counts each range through a fresh plan cache that first compiled
// the k-th respelling of every pattern of seed, as a node other clients
// reached first, or one restarted, would.
func (r cellRun) optsAt(t *testing.T, k int, seed []*Pattern) []Option {
	t.Helper()
	if r.c.v[axNumber] != cachePerRange {
		return r.opts
	}
	opts := append(slices.Clone(r.opts), WithPlanCache(NewPlanCache(0)))
	respelled := make([]*Pattern, len(seed))
	for i, p := range seed {
		respelled[i] = spell(p, k+1)
	}
	r.prepare(t, opts, respelled)
	return opts
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// count runs b through the cell's entry point, summed over its ranges,
// and returns the patterns it asked for with their counts.
func (r cellRun) count(t *testing.T, b []*Pattern) ([]*Pattern, []uint64) {
	t.Helper()
	got := make([]uint64, len(b))
	add := func(part []uint64, err error) {
		must(t, err)
		for i := range part {
			got[i] += part[i]
		}
	}
	switch r.c.v[axEntry] {
	case viaRunCount, viaRunEnum:
		return b, r.runPlans(t, b)
	case viaCountMany:
		for k, rg := range r.ranges() {
			add(CountMany(r.g, b, at(r.optsAt(t, k, b), rg)...))
		}
	case viaCountEach:
		for k, rg := range r.ranges() {
			opts := r.optsAt(t, k, b)
			add(r.prepare(t, opts, b).CountEach(r.g, at(opts, rg)...))
		}
	case viaMerged:
		// As a coalescer would: the batch split over up to three queries,
		// a lone pattern asked for twice.
		parts := slices.Collect(slices.Chunk(b, (len(b)+2)/3))
		if len(b) == 1 {
			parts = append(parts, b)
		}
		b = slices.Concat(parts...)
		got = make([]uint64, len(b))
		for k, rg := range r.ranges() {
			opts := r.optsAt(t, k, b)
			qs := make([]*PreparedQuery, len(parts))
			for i := range parts {
				qs[i] = r.prepare(t, opts, parts[i])
			}
			per, _, err := CountEachMerged(r.g, qs, at(opts, rg)...)
			add(matchCounts(slices.Concat(per...)), err)
		}
	case viaPlanCount:
		// As a coordinator would once a node has reported the graph's
		// Shape: rewrite once, count the executed set and its cuts by range
		// where they are shipped, sum in 128 bits, recover once.
		cp, err := PlanCount(ShapeOf(r.g), []*PreparedQuery{r.prepare(t, r.opts, b)}, r.opts...)
		must(t, err)
		per, _ := cp.Finish(runExecuted(t, r.g, cp, r.ranges(), func(k int) []Option { return r.optsAt(t, k, cp.Executed()) }))
		got = matchCounts(per[0])
	case viaMotifs:
		got = r.motifs(t, b)
	}
	return b, got
}

// runExecuted counts cp's executed set as the nodes it is shipped to do —
// PrepareExecuted with its cuts, a ranged count that never rewrites — over
// each of ranges, the k-th under optsAt(k), and sums the rows in 128 bits,
// as a coordinator's merge does.
func runExecuted(t *testing.T, g *Graph, cp *CountPlan, ranges [][2]uint32, optsAt func(k int) []Option) MultiStats {
	t.Helper()
	sum := MultiStats{Per: make([]Stats, len(cp.Executed())), MatchesHi: make([]uint64, len(cp.Executed()))}
	for k, rg := range ranges {
		opts := optsAt(k)
		q, err := PrepareExecuted(opts, cp.Executed(), cp.Cuts())
		must(t, err)
		_, ms, err := q.CountEachWithStats(g, at(opts, rg, WithoutMorphing())...)
		must(t, err)
		for i := range sum.Per {
			var carry uint64
			sum.Per[i].Matches, carry = bits.Add64(sum.Per[i].Matches, ms.Per[i].Matches, 0)
			sum.MatchesHi[i] += carry
			if ms.MatchesHi != nil {
				sum.MatchesHi[i] += ms.MatchesHi[i]
			}
		}
	}
	return sum
}

// finish recovers a CountPlan's requested counts from its executed ones.
func finish(cp *CountPlan, executed []uint64) []uint64 {
	rows := make([]Stats, len(executed))
	for i, n := range executed {
		rows[i].Matches = n
	}
	per, _ := cp.Finish(MultiStats{Per: rows})
	return matchCounts(per[0])
}

// runPlans runs PlanCount's executed plans through core.RunPlans range by
// range, planned per range under optsAt, then Finish. An enumerating cell
// also runs each range with a callback: the calls must equal the count and
// the OrigID-mapped matches the oracle's — each sorted under symmetry
// breaking, whose choice of automorphic representative depends on the id
// order.
func (r cellRun) runPlans(t *testing.T, b []*Pattern) []uint64 {
	t.Helper()
	enum, sorted := r.c.v[axEntry] == viaRunEnum, r.c.v[axSym] == 0
	var cp *CountPlan
	var counts []uint64
	var calls, sums []atomic.Uint64
	for k, rg := range r.ranges() {
		opts := r.optsAt(t, k, b)
		cpk, err := PlanCount(Shape{}, []*PreparedQuery{r.prepare(t, opts, b)}, opts...) // no cuts: they enumerate nothing
		must(t, err)
		if cp == nil {
			cp = cpk
			counts = make([]uint64, len(cp.exec))
			calls = make([]atomic.Uint64, len(cp.exec))
			sums = make([]atomic.Uint64, len(cp.exec))
		} else if !slices.EqualFunc(cpk.exec, cp.exec, func(p, q *plan.Plan) bool { return p.Pat.Equal(q.Pat) }) {
			t.Fatalf("%v: range %v executes %v, the first range %v", r.c, rg, cpk.Executed(), cp.Executed())
		}
		o := cpk.cfg.opts
		o.TaskLo, o.TaskHi = rg[0], rg[1]
		for i, s := range core.RunPlans(r.g, cpk.exec, nil, o).Per {
			counts[i] += s.Matches
		}
		if enum {
			core.RunPlans(r.g, cpk.exec, func(_ *core.Ctx, i int, m *core.Match) {
				calls[i].Add(1)
				sums[i].Add(matchHash(r.g, m.Mapping, sorted))
			}, o)
		}
	}
	for i, pl := range cp.exec {
		if !enum {
			break
		}
		o := oracle(r.c.graph, pl.Pat)
		// Symmetry breaking delivers each class of all/unique matches once.
		want, got := o.sorted, sums[i].Load()*(o.all/max(o.unique, 1))
		if !sorted {
			want, got = o.exact, sums[i].Load()
		}
		if n := calls[i].Load(); n != counts[i] || got != want {
			t.Errorf("%v: %v enumerates %d matches, counts %d; match multiset equals the oracle's: %v",
				r.c, pl.Pat, n, counts[i], got == want)
		}
	}
	return finish(cp, counts)
}

// motifs counts b's size with MotifCounts and, on a labeled graph,
// LabeledMotifCounts, whose classes must add up to the oracle's total and,
// with symmetry breaking, count as the oracle says up to 4 vertices.
func (r cellRun) motifs(t *testing.T, b []*Pattern) []uint64 {
	t.Helper()
	size := b[0].N()
	got := make([]uint64, len(b))
	classes := map[string]MotifCount{}
	for k, rg := range r.ranges() {
		opts := r.optsAt(t, k, b)
		mc, err := MotifCounts(r.g, size, at(opts, rg)...)
		must(t, err)
		for i := range mc {
			got[i] += mc[i].Count
		}
		if !r.g.Labeled() {
			continue
		}
		lm, err := LabeledMotifCounts(r.g, size, at(opts, rg)...)
		must(t, err)
		for code, m := range lm {
			m.Count += classes[code].Count
			classes[code] = m
		}
	}
	var total, want uint64
	for _, m := range classes {
		total += m.Count
		if vi := pattern.VertexInduced(m.Pattern); size <= 4 && r.c.v[axSym] == 0 && m.Count != r.want(vi) {
			t.Errorf("%v: labeled motif %v counts %d, oracle %d", r.c, m.Pattern, m.Count, r.want(vi))
		}
	}
	for _, p := range b {
		want += r.want(p)
	}
	if r.g.Labeled() && total != want {
		t.Errorf("%v: labeled %d-motifs add up to %d, oracle %d", r.c, size, total, want)
	}
	return got
}

// refCounts is the oracle's answer for a pattern on a graph.
type refCounts struct {
	all, unique   uint64 // matches without and with symmetry breaking
	exact, sorted uint64 // Σ matchHash over every match as is, and each sorted
}

var refMemo sync.Map // graph key and pattern text -> refCounts

// oracle is internal/ref's answer for p on the graph as built. ref tries
// every vertex of g at each position, so it runs on p respelled
// breadth-first, and every match maps back to p's numbering.
func oracle(graph string, p *Pattern) refCounts {
	key := graph + " " + p.String()
	if o, ok := refMemo.Load(key); ok {
		return o.(refCounts)
	}
	order := p.RegularVertices()[:1]
	for i := 0; i < len(order); i++ {
		for _, u := range p.Neighbors(order[i]) {
			if !slices.Contains(order, u) {
				order = append(order, u)
			}
		}
	}
	perm := make([]int, p.N())
	for i, v := range append(order, p.AntiVertices()...) {
		perm[v] = i
	}
	g, mp := matrixGraph(graph), make([]uint32, p.N())
	var o refCounts
	ref.Enumerate(g, p.Renumber(perm), func(m []uint32) bool {
		for v, i := range perm {
			mp[v] = m[i]
		}
		o.all++
		o.exact += matchHash(g, mp, false)
		o.sorted += matchHash(g, mp, true)
		return true
	})
	// A class is |Aut(p)| matches, less the automorphisms that move only
	// anti-vertices, which leave the delivered mapping alone.
	autos, fixing := p.Automorphisms(), 0
	for _, a := range autos {
		if !slices.ContainsFunc(p.RegularVertices(), func(v int) bool { return a[v] != v }) {
			fixing++
		}
	}
	o.unique = o.all / uint64(len(autos)/fixing)
	refMemo.Store(key, o)
	return o
}

// matchHash hashes a match's OrigID-mapped vertices, sorted first if
// asked; a run's sum of it fingerprints its match multiset.
func matchHash(g *Graph, m []uint32, sorted bool) uint64 {
	var buf [8]uint32
	ids := buf[:len(m)]
	for i, v := range m {
		if v != NoVertex {
			v = g.OrigID(v)
		}
		ids[i] = v
	}
	if sorted {
		slices.Sort(ids)
	}
	h := uint64(len(ids))
	for _, v := range ids {
		h = (h ^ h>>29 ^ uint64(v)) * 0x9e3779b97f4a7c15
	}
	return h
}

// FuzzCountMatrix counts a parsed pattern of up to 5 vertices in the cell
// pick selects, on er-48 or its labeled copy, with a respelling and a
// duplicate in a batch other than solo, and, as pick draws, a pattern of
// the cut form beside it. On a morphing cell the oracle's counts of
// MorphTerms' relatives, weighted and divided, must give p's.
func FuzzCountMatrix(f *testing.F) {
	for _, s := range []string{"0-1 1-2 0!2", "0-1 1-2 2-3 0!2 0!3 1!3", "0-1 1-2 2-0 0-3 1!3 2!3",
		"0-1 0-2 0-3 0-4 1!2 3!4", "0-1 1-2 2-3 3-4 4-0 0!2 1!3"} {
		f.Add(uint64(0), s)
	}
	// Past every axis and the graph, pick draws a cut pattern: the 4-cycle
	// beside a triangle, the 5-cycle beside a vertex-induced P4.
	cells := uint64(1)
	for a, vals := range axisValues {
		n := uint64(len(vals))
		if a == axEntry {
			n-- // as the draw below
		}
		cells *= n
	}
	f.Add(cells*2*1, "0-1 1-2 2-0")
	f.Add(cells*2*(1+2*8), "0-1 1-2 2-3 0!2 0!3 1!3")
	f.Fuzz(func(t *testing.T, pick uint64, text string) {
		p, err := ParsePattern(text)
		if err != nil || p.Validate() != nil || !p.ConnectedRegular() || p.N() < 2 || p.N() > 5 {
			t.Skip()
		}
		c := cell{graph: "er-48"}
		for a := range c.v {
			n := uint64(len(axisValues[a]))
			if a == axEntry {
				n-- // MotifCounts counts no given pattern
			}
			c.v[a], pick = int(pick%n), pick/n
		}
		if pick%2 == 1 {
			c.graph = "er-48-l3"
		}
		pick /= 2
		b := []*Pattern{p}
		if c.v[axBatch] != asSolo {
			b = append(b, spell(p, 0), p)
		}
		if pick%2 == 1 {
			c.form = cutForm
			b = append(b, cutPatterns()[pick/2%uint64(len(cutPatterns()))])
		}
		if c.v[axNumber] == asRenumbered {
			b[0] = spell(p, 0)
		}
		r := cellRun{c, (&layouts{t, map[string]*Graph{}}).get(c.graph, c.v[axLayout]), c.options()}
		r.check(t, b)
		if c.v[axMorph] == 0 && c.v[axSym] == 0 && plan.Morphable(p) {
			terms, div := plan.MorphTerms(p)
			var sum int64
			for _, tm := range terms {
				sum += tm.Coef * int64(oracle(c.graph, tm.Pat).unique)
			}
			if sum != div*int64(r.want(p)) {
				t.Errorf("%v: morph relation gives %d/%d, oracle %d", p, sum, div, r.want(p))
			}
		}
	})
}
