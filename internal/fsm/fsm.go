// Package fsm implements frequent subgraph mining (paper Figure 4a):
// level-wise growth of labeled patterns with MNI support and dynamic
// label discovery (§3.2.1), executed on the pattern-aware engine.
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
// Each thread's tally holds a chunk's images until the chunk is folded,
// so the chunk bounds that memory; one traversal per whole level measured
// slower and larger (ROADMAP, "Tried and dropped").
const levelChunk = 64

// matchLevel matches every query pattern of one FSM level — levelChunk
// of them per traversal of g, through the share trie — and returns the
// MNI domains of the discovered labeled patterns, keyed by canonical
// code; it also reports whether a traversal was cut short. Labels are
// discovered as in LabeledMotifCounts (§3.2.1): a worker tallies its
// matches by query and the labels of the matched vertices, one bitmap of
// images per regular query vertex, and never canonicalizes. After each
// chunk the calling goroutine folds every worker's tally into the table,
// canonicalizing each distinct (query, labeling) key once.
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

	// A key is the query's index in the level, then the labels of its
	// regular vertices, 4 bytes each: whole labels, since labels sharing
	// a key would share one labeling.
	type tally struct {
		images map[string]mni.Images
		key    []byte
	}
	tallies := make([]tally, opts.Threads)
	table := mni.NewTable()
	for lo := 0; lo < len(queries); lo += levelChunk {
		for i := range tallies {
			tallies[i].images = make(map[string]mni.Images)
		}
		ms := core.RunPlans(g, plans[lo:min(lo+levelChunk, len(queries))], func(ctx *core.Ctx, pat int, m *core.Match) {
			t := &tallies[ctx.Thread]
			reg := regs[lo+pat]
			t.key = binary.BigEndian.AppendUint32(t.key[:0], uint32(lo+pat))
			for _, v := range reg {
				t.key = binary.BigEndian.AppendUint32(t.key, g.Label(m.Mapping[v]))
			}
			im := t.images[string(t.key)]
			if im == nil {
				im = mni.NewImages(len(reg))
				t.images[string(t.key)] = im
			}
			for i, v := range reg {
				im[i].Add(m.Mapping[v])
			}
		}, opts)
		if ms.Stopped {
			return nil, true, nil
		}
		// The fold: each distinct key is canonicalized once, and its
		// images land in its code's domain through the canonical
		// permutation (at[i] is the canonical vertex of reg[i]).
		type target struct {
			d  *mni.Domain
			at []int
		}
		folded := make(map[string]target)
		for _, t := range tallies {
			for key, im := range t.images {
				tg, ok := folded[key]
				if !ok {
					qi := binary.BigEndian.Uint32([]byte(key))
					reg := regs[qi]
					labeled := queries[qi].Clone()
					for i, v := range reg {
						labeled.SetLabel(v, pattern.Label(binary.BigEndian.Uint32([]byte(key[4+4*i:]))))
					}
					code, perm := labeled.CanonicalForm()
					tg.d = table.ByCode[code]
					if tg.d == nil {
						tg.d = mni.NewDomain(labeled.Renumber(perm))
						table.ByCode[code] = tg.d
					}
					tg.at = make([]int, len(reg))
					for i, v := range reg {
						tg.at[i] = perm[v]
					}
					folded[key] = tg
				}
				tg.d.Fold(im, tg.at)
			}
		}
	}
	return table, false, nil
}
