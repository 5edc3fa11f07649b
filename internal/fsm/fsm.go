// Package fsm implements frequent subgraph mining (paper Figure 4a):
// level-wise growth of labeled patterns with MNI support and dynamic
// label discovery (§3.2.1), executed on the pattern-aware engine with
// on-the-fly aggregation (§5.4).
package fsm

import (
	"context"
	"encoding/binary"
	"fmt"
	"maps"
	"runtime"
	"slices"
	"time"

	"peregrine/internal/core"
	"peregrine/internal/graph"
	"peregrine/internal/mni"
	"peregrine/internal/pattern"
	"peregrine/internal/plan"
)

// FrequentPattern is one result: a fully labeled pattern and its MNI
// support.
type FrequentPattern struct {
	Pattern *pattern.Pattern
	Support int
}

// Level summarizes one FSM iteration.
type Level struct {
	Edges             int
	QueriesMatched    int // partially-labeled query patterns explored
	LabeledDiscovered int
	LabeledFrequent   int
	Elapsed           time.Duration
}

// Result carries the frequent patterns of the final level plus
// per-level statistics.
type Result struct {
	Frequent    []FrequentPattern
	Levels      []Level // the levels that ran to completion
	DomainBytes int     // peak bitmap memory across levels (Figure 13 accounting)
	// Stopped reports that a deadline or a cancelled context cut a level
	// short. Supports computed from a truncated scan are not supports, so
	// Frequent is nil: "nothing is frequent" is Stopped == false.
	Stopped bool
}

// Mine returns the labeled patterns with exactly maxEdges edges whose
// MNI support in g is at least support. It starts from the single
// unlabeled edge, discovers frequent labelings dynamically, and grows
// frequent patterns edge by edge, relying on MNI's anti-monotonicity.
// opts.Deadline bounds the whole mine, not each level.
func Mine(g *graph.Graph, maxEdges, support int, opts core.Options) (*Result, error) {
	if !g.Labeled() {
		return nil, fmt.Errorf("fsm: requires a labeled graph")
	}
	if maxEdges < 1 {
		return nil, fmt.Errorf("fsm: needs maxEdges >= 1")
	}
	if support < 1 {
		return nil, fmt.Errorf("fsm: needs support >= 1")
	}
	if opts.Threads <= 0 {
		opts.Threads = runtime.GOMAXPROCS(0)
	}
	if opts.Deadline > 0 {
		// The engine arms Deadline afresh on every run; one context
		// deadline spans the levels.
		ctx := opts.Context
		if ctx == nil {
			ctx = context.Background()
		}
		ctx, cancel := context.WithTimeout(ctx, opts.Deadline)
		defer cancel()
		opts.Context, opts.Deadline = ctx, 0
	}

	res := &Result{}
	queries := pattern.GenerateAllEdgeInduced(1) // the single unlabeled edge
	for edges := 1; edges <= maxEdges; edges++ {
		lvlStart := time.Now()
		table, stopped, err := matchLevel(g, queries, opts)
		if err != nil {
			return nil, err
		}
		if stopped {
			res.Stopped = true
			break
		}
		if sz := table.SizeBytes(); sz > res.DomainBytes {
			res.DomainBytes = sz
		}
		var frequent []FrequentPattern // in canonical-code order: the table's keys
		for _, code := range slices.Sorted(maps.Keys(table.ByCode)) {
			d := table.ByCode[code]
			if s := d.Support(); s >= support {
				frequent = append(frequent, FrequentPattern{Pattern: d.Pattern(), Support: s})
			}
		}
		res.Levels = append(res.Levels, Level{
			Edges:             edges,
			QueriesMatched:    len(queries),
			LabeledDiscovered: len(table.ByCode),
			LabeledFrequent:   len(frequent),
			Elapsed:           time.Since(lvlStart),
		})
		if edges == maxEdges {
			res.Frequent = frequent
			break
		}
		if len(frequent) == 0 {
			break // anti-monotonicity: nothing larger can be frequent
		}
		next := make([]*pattern.Pattern, 0, len(frequent))
		for _, f := range frequent {
			next = append(next, f.Pattern)
		}
		queries = pattern.ExtendByEdge(next)
	}
	return res, nil
}

// levelChunk is how many query patterns of a level share one traversal.
// A level's time is MNI aggregation in the callback, not the scan, so
// the batch size hardly moves it (64, 256 and a whole 2,000-query level
// measured alike); what grows with the batch is memory — the per-thread
// remap caches, and thread-local tables whose matches spread over every
// labeling of the batch between publishes.
const levelChunk = 64

// matchLevel matches every query pattern of one FSM level — levelChunk
// of them per traversal of g, through the share trie — and aggregates
// MNI domains keyed by discovered labeled pattern; it also reports
// whether a traversal was cut short. Aggregation follows the paper's
// on-the-fly design (§5.4): workers accumulate into thread-local tables
// and periodically publish them to an asynchronous aggregator; the
// matching threads never block.
func matchLevel(g *graph.Graph, queries []*pattern.Pattern, opts core.Options) (*mni.Table, bool, error) {
	plans := make([]*plan.Plan, len(queries))
	regs := make([][]int, len(queries))
	for i, q := range queries {
		pl, err := plan.New(q, plan.Options{NoSymmetryBreaking: opts.NoSymmetryBreaking})
		if err != nil {
			return nil, false, err
		}
		plans[i], regs[i] = pl, q.RegularVertices()
	}

	agg := newOnTheFly(opts.Threads, 0, mni.NewTable, mni.Merge)

	type worker struct {
		local   *mni.Table
		pending int
		// Per-query caches of the canonical remapping by discovered label
		// vector, so each distinct labeling pays the canonicalization cost
		// once. One cache per query: the same label vector names different
		// structures under different queries.
		remaps []map[string]*labelRemap
		// An empty domain per canonical code, built on the code's first
		// labeling: a fresh local table's miss copies its orbit layout
		// instead of computing the orbits again.
		empty  map[string]*mni.Domain
		key    []byte
		mapped []uint32
	}
	workers := make([]*worker, opts.Threads)
	for i := range workers {
		workers[i] = &worker{
			local:  mni.NewTable(),
			remaps: make([]map[string]*labelRemap, min(len(queries), levelChunk)),
			empty:  make(map[string]*mni.Domain),
		}
	}

	stopped := false
	for lo := 0; lo < len(queries) && !stopped; lo += levelChunk {
		hi := min(lo+levelChunk, len(queries))
		for _, w := range workers {
			clear(w.remaps)
		}
		ms := core.RunPlans(g, plans[lo:hi], func(ctx *core.Ctx, pat int, m *core.Match) {
			w := workers[ctx.Thread]
			q, reg := queries[lo+pat], regs[lo+pat]
			// Label-discovery key: the labels of the matched vertices,
			// whole — labels sharing a key would share one labeling.
			w.key = w.key[:0]
			for _, v := range reg {
				w.key = binary.BigEndian.AppendUint32(w.key, g.Label(m.Mapping[v]))
			}
			if w.remaps[pat] == nil {
				w.remaps[pat] = make(map[string]*labelRemap)
			}
			rm, ok := w.remaps[pat][string(w.key)]
			if !ok {
				rm = newLabelRemap(g, q, m.Mapping)
				w.remaps[pat][string(w.key)] = rm
			}
			if cap(w.mapped) < q.N() {
				w.mapped = make([]uint32, q.N())
			}
			mapped := w.mapped[:q.N()]
			for _, v := range reg {
				mapped[rm.perm[v]] = m.Mapping[v]
			}
			w.local.Get(rm.code, func() *mni.Domain {
				if w.empty[rm.code] == nil {
					w.empty[rm.code] = mni.NewDomain(rm.canonical)
				}
				return w.empty[rm.code].Empty()
			}).AddMatch(mapped)
			w.pending++
			if w.pending >= 4096 {
				w.local = agg.Publish(ctx.Thread, w.local)
				w.pending = 0
			}
		}, opts)
		stopped = ms.Stopped
	}
	for i, w := range workers {
		agg.Flush(i, w.local)
	}
	return agg.Close(), stopped, nil
}

// labelRemap caches, for one (query pattern, discovered labeling) pair,
// the canonical labeled pattern and the permutation from query vertices
// to canonical positions. Folding matches through the permutation lets
// isomorphic labelings discovered from different queries share domains.
type labelRemap struct {
	canonical *pattern.Pattern
	code      string
	perm      []int
}

func newLabelRemap(g *graph.Graph, q *pattern.Pattern, mapping []uint32) *labelRemap {
	labeled := q.Clone()
	for _, v := range q.RegularVertices() {
		labeled.SetLabel(v, pattern.Label(g.Label(mapping[v])))
	}
	code, perm := labeled.CanonicalForm()
	return &labelRemap{canonical: labeled.Renumber(perm), code: code, perm: perm}
}
