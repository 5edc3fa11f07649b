// Package peregrine is a pattern-aware graph mining system, a Go
// reproduction of "Peregrine: A Pattern-Aware Graph Mining System"
// (Jamshidi, Mahadasa, Vora — EuroSys 2020).
//
// Graph mining tasks are expressed directly over graph patterns
// ("pattern-first" programming): construct or generate a Pattern,
// then Match it against a data Graph. The engine analyzes the pattern
// once — breaking its symmetries, extracting its core substructure and
// computing matching orders — and then explores only subgraphs that
// match, with no isomorphism or canonicality checks and no intermediate
// partial matches materialized in memory.
//
// Two structural-constraint abstractions extend plain patterns:
// anti-edges (Pattern.AddAntiEdge) require strict disconnection between
// two matched vertices, and anti-vertices require the strict absence of
// a common neighbor. Vertex-induced matching is expressed through
// anti-edges per Theorem 3.1 (see VertexInducedPattern).
//
// The entry points mirror the paper's API: ForEachMatch (the paper's
// match()), Count, Exists, and the mining applications MotifCounts,
// CliqueCount, CliqueExists, FSM, and GlobalClusteringCoefficientExceeds.
// All of them run through the prepared-query path (Prepare): plans are
// compiled once per pattern shape into a process-wide cache, several
// patterns execute in a single graph traversal, and PreparedQuery.Matches
// streams matches through a range-over-func iterator without buffering.
package peregrine

import (
	"context"
	"runtime"
	"time"

	"peregrine/internal/core"
	"peregrine/internal/gen"
	"peregrine/internal/graph"
	"peregrine/internal/pattern"
	"peregrine/internal/plan"
	"peregrine/internal/profile"
)

// Graph is an immutable data graph with degree-ordered vertex ids.
type Graph = graph.Graph

// GraphBuilder accumulates edges and labels before building a Graph.
type GraphBuilder = graph.Builder

// NewGraphBuilder returns an empty graph builder.
func NewGraphBuilder() *GraphBuilder { return graph.NewBuilder() }

// LoadGraph reads a data graph from a file in either supported format,
// detected from the content: the .pgr binary CSR format (loaded by
// mmap where possible) or a text edge list ("src dst" lines, optional
// "v id label" lines, '#' comments). Use Open to defer the load.
//
// A .pgr-backed graph holds a file mapping until Close is called;
// processes loading many graphs over their lifetime should Close each
// one when done (a dropped, un-Closed graph keeps its read-only
// mapping until process exit).
func LoadGraph(path string) (*Graph, error) {
	src, err := graph.OpenPath(path)
	if err != nil {
		return nil, err
	}
	return src.Load()
}

// GraphFromEdges builds an unlabeled graph from (src, dst) pairs.
func GraphFromEdges(edges [][2]uint32) *Graph {
	b := graph.NewBuilder()
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	return b.Build()
}

// Pattern is a graph pattern: a small labeled graph with regular edges,
// anti-edges, and anti-vertices, treated as a first-class value.
type Pattern = pattern.Pattern

// Label is a pattern or data vertex label; Wildcard matches any label.
type Label = pattern.Label

// Wildcard is the label of an unlabeled pattern vertex.
const Wildcard = pattern.Wildcard

// Pattern constructors (paper Figure 2).
var (
	// NewPattern returns a pattern with n isolated vertices.
	NewPattern = pattern.New
	// ParsePattern builds a pattern from text, e.g. "0-1 1-2 2-0 [0:4] 1!3".
	ParsePattern = pattern.Parse
	// MustParsePattern is ParsePattern that panics on error.
	MustParsePattern = pattern.MustParse
	// LoadPatterns reads one pattern per line from a file [L1].
	LoadPatterns = pattern.Load
	// GenerateClique returns the complete pattern on k vertices [S1].
	GenerateClique = pattern.Clique
	// GenerateStar returns the star pattern with k vertices [S2].
	GenerateStar = pattern.Star
	// GenerateChain returns the path pattern with k vertices [S3].
	GenerateChain = pattern.Chain
	// GenerateCycle returns the cycle pattern with k vertices.
	GenerateCycle = pattern.Cycle
	// GenerateAllEdgeInduced returns all unique connected patterns with
	// the given number of edges [G1].
	GenerateAllEdgeInduced = pattern.GenerateAllEdgeInduced
	// GenerateAllVertexInduced returns all unique connected patterns with
	// the given number of vertices [G2].
	GenerateAllVertexInduced = pattern.GenerateAllVertexInduced
	// ExtendByEdge grows patterns by one edge, deduplicated [C1].
	ExtendByEdge = pattern.ExtendByEdge
	// ExtendByVertex grows patterns by one vertex, deduplicated [C2].
	ExtendByVertex = pattern.ExtendByVertex
	// VertexInducedPattern converts a pattern to its anti-edge-augmented
	// form whose edge-induced matches are the original's vertex-induced
	// matches (Theorem 3.1).
	VertexInducedPattern = pattern.VertexInduced
)

// Match is one complete match delivered to a callback: Mapping[v] is the
// data vertex matched to pattern vertex v (NoVertex for anti-vertices).
// The Mapping slice is reused across invocations; copy it to retain it.
type Match = core.Match

// NoVertex marks an unmatched mapping slot.
const NoVertex = core.NoVertex

// Ctx identifies the calling worker and supports early termination:
// calling Ctx.Stop inside a callback stops the exploration (§5.3).
type Ctx = core.Ctx

// MatchFunc processes one match; it runs concurrently on worker threads.
type MatchFunc = core.Callback

// Stats summarizes one engine execution.
type Stats = core.Stats

// Breakdown accumulates the per-stage time split of Figure 11.
type Breakdown = profile.Breakdown

// LoadBalance records per-worker busy and finish times (§6.7).
type LoadBalance = profile.LoadBalance

// NewLoadBalance returns a recorder for n workers.
func NewLoadBalance(n int) *LoadBalance { return profile.NewLoadBalance(n) }

// ExplorationPlan is the analyzed form of a pattern: partial orders,
// pattern core, and matching orders (§4.1).
type ExplorationPlan = plan.Plan

// PlanFor computes the exploration plan of a pattern without running it;
// useful for inspecting how a pattern will be matched.
func PlanFor(p *Pattern) (*ExplorationPlan, error) {
	return plan.New(p, plan.Options{})
}

// Option configures a match execution.
type Option func(*config)

type config struct {
	opts          core.Options
	vertexInduced bool
	noMorph       bool
	planCache     *plan.Cache // nil means the process-wide default
}

// WithThreads sets the worker count (default: GOMAXPROCS).
func WithThreads(n int) Option { return func(c *config) { c.opts.Threads = n } }

// WithoutSymmetryBreaking disables symmetry breaking (the paper's PRG-U
// configuration): every automorphic variant of every match is delivered.
func WithoutSymmetryBreaking() Option {
	return func(c *config) { c.opts.NoSymmetryBreaking = true }
}

// VertexInduced matches the pattern with vertex-induced semantics by
// converting it per Theorem 3.1 before planning.
func VertexInduced() Option { return func(c *config) { c.vertexInduced = true } }

// WithoutSharing disables cross-pattern traversal sharing in batched
// executions: every matching order explores on its own, performing the
// per-plan work of a serial loop. Counts are identical either way —
// this is the ablation MultiStats.Share is measured against.
func WithoutSharing() Option { return func(c *config) { c.opts.NoSharing = true } }

// WithoutMorphing disables pattern morphing on batched counting paths:
// the batch executes exactly the pattern set it was given, with no
// rewriting into edge-add/edge-remove relatives and no algebraic count
// recovery. Counts are identical either way — this is the ablation
// MultiStats.Morph is measured against, mirroring WithoutSharing.
func WithoutMorphing() Option { return func(c *config) { c.noMorph = true } }

// WithTaskRange restricts the exploration to mining tasks whose start
// vertex lies in [lo, hi); hi == 0 means NumVertices. Every match is
// rooted at exactly one task (its maximum-id core vertex), so counts
// from disjoint ranges sum to the full-graph count exactly — the
// partitioning seam distributed execution fans out over.
//
// Ranged counting executions run without pattern morphing: a pattern
// and its morphed relatives can have different cores, so the same
// vertex set roots at different tasks and the recovery algebra only
// balances over the whole graph. Sharing and symmetry breaking apply
// unchanged. To rewrite a count that is split over ranges, rewrite first
// and recover from the per-row sums: PlanCount, the executed set and its
// cuts by range (PrepareExecuted), CountPlan.Finish.
func WithTaskRange(lo, hi uint32) Option {
	return func(c *config) { c.opts.TaskLo, c.opts.TaskHi = lo, hi }
}

// WithDeadline bounds the exploration's wall time: past the deadline the
// engine stops as if Ctx.Stop had been called and Stats.Stopped reports
// the truncation. Useful for existence queries whose negative answers
// require exhaustive search (e.g. ruling out a large clique).
func WithDeadline(d time.Duration) Option { return func(c *config) { c.opts.Deadline = d } }

// WithContext cancels the exploration when ctx is done: workers observe
// the stop flag at their next check and unwind, and Stats.Stopped
// reports the truncation. Services use this to abort queries whose
// client disconnected or whose job was cancelled.
func WithContext(ctx context.Context) Option { return func(c *config) { c.opts.Context = ctx } }

// WithBreakdown attaches a Figure 11 stage-time recorder.
func WithBreakdown(b *Breakdown) Option { return func(c *config) { c.opts.Breakdown = b } }

// WithLoadBalance attaches a per-worker load recorder.
func WithLoadBalance(lb *LoadBalance) Option { return func(c *config) { c.opts.LoadBalance = lb } }

func buildConfig(opts []Option) config {
	var c config
	for _, o := range opts {
		o(&c)
	}
	return c
}

// cache resolves the plan cache executions compile and morph through.
func (c config) cache() *plan.Cache {
	if c.planCache != nil {
		return c.planCache
	}
	return defaultPlanCache
}

// planOptions renders the config's plan-affecting settings.
func (c config) planOptions() plan.Options {
	return plan.Options{NoSymmetryBreaking: c.opts.NoSymmetryBreaking}
}

// taskRanged reports whether the execution scans a sub-range of the
// task space; morphing is disabled for such runs (see WithTaskRange).
func (c config) taskRanged() bool {
	return c.opts.TaskLo != 0 || c.opts.TaskHi != 0
}

func (c config) pattern(p *Pattern) *Pattern {
	if c.vertexInduced {
		return pattern.VertexInduced(p)
	}
	return p
}

// ForEachMatch finds every match of p in g and invokes f for each — the
// paper's match(G, p, f). f runs concurrently on worker threads. The
// pattern's plan comes from the process-wide cache: repeated calls for
// the same pattern shape skip analysis entirely.
func ForEachMatch(g *Graph, p *Pattern, f MatchFunc, opts ...Option) (Stats, error) {
	q, err := PrepareWith(opts, p)
	if err != nil {
		return Stats{}, err
	}
	var pf func(ctx *Ctx, pat int, m *Match)
	if f != nil {
		pf = func(ctx *Ctx, _ int, m *Match) { f(ctx, m) }
	}
	ms, err := q.ForEach(g, pf, opts...)
	if err != nil {
		return Stats{}, err
	}
	return ms.Per[0], nil
}

// Count returns the number of matches of p in g — the paper's count().
func Count(g *Graph, p *Pattern, opts ...Option) (uint64, error) {
	n, _, err := CountWithStats(g, p, opts...)
	return n, err
}

// CountWithStats returns the match count along with execution
// statistics. It is the one-pattern case of CountMany and counts the
// same way: a pattern with anti-edges may execute as cheaper relatives
// (see WithoutMorphing), in which case Stats carries the recovered
// count with the run's task and thread figures only.
func CountWithStats(g *Graph, p *Pattern, opts ...Option) (uint64, Stats, error) {
	q, err := PrepareWith(opts, p)
	if err != nil {
		return 0, Stats{}, err
	}
	_, ms, err := q.CountEachWithStats(g, opts...)
	if err != nil {
		return 0, Stats{}, err
	}
	return ms.Per[0].Matches, ms.Per[0], nil
}

// Exists reports whether p has at least one match in g, terminating the
// exploration at the first match (§5.3).
func Exists(g *Graph, p *Pattern, opts ...Option) (bool, error) {
	q, err := PrepareWith(opts, p)
	if err != nil {
		return false, err
	}
	return q.Exists(g, opts...)
}

// CountMany counts matches for several patterns, returning counts keyed
// by each pattern's position in ps. All patterns are matched in a
// single traversal of g (see PreparedQuery.CountEach); use Prepare
// directly to reuse the compiled form across calls.
func CountMany(g *Graph, ps []*Pattern, opts ...Option) ([]uint64, error) {
	counts, _, err := CountManyWithStats(g, ps, opts...)
	return counts, err
}

// CountManyWithStats is CountMany along with the batched execution
// statistics, including the cross-pattern traversal sharing figures in
// MultiStats.Share.
func CountManyWithStats(g *Graph, ps []*Pattern, opts ...Option) ([]uint64, MultiStats, error) {
	if len(ps) == 0 {
		return nil, MultiStats{}, nil
	}
	q, err := PrepareWith(opts, ps...)
	if err != nil {
		return nil, MultiStats{}, err
	}
	return q.CountEachWithStats(g, opts...)
}

// Dataset identifies a built-in synthetic stand-in dataset (see README
// "Reproducing the paper's tables" for the substitutions for the
// paper's datasets).
type Dataset = gen.Dataset

// Built-in stand-in datasets for the paper's evaluation graphs.
const (
	MicoLite       = gen.MicoLite
	PatentsLite    = gen.PatentsLite
	PatentsLabeled = gen.PatentsLabeled
	OrkutLite      = gen.OrkutLite
	FriendsterLite = gen.FriendsterLite
)

// StandardDataset builds a stand-in dataset at the given scale (1 = test
// scale; larger scales multiply vertices and edges).
func StandardDataset(d Dataset, scale int) *Graph { return gen.Standard(d, scale) }

func defaultThreads() int { return runtime.GOMAXPROCS(0) }
