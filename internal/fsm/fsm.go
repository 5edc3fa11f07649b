// Package fsm implements frequent subgraph mining (paper Figure 4a):
// level-wise growth of labeled patterns with MNI support, executed on the
// pattern-aware engine. Its dynamic label discovery (§3.2.1), Discover,
// is the one copy of that mechanism: FSM and the labeled motif census
// both match unlabeled patterns, tally the matches by the labels they
// landed on, and canonicalize each labeling once.
package fsm

import (
	"fmt"
	"maps"
	"slices"
	"time"

	"peregrine/internal/core"
	"peregrine/internal/graph"
	"peregrine/internal/mni"
	"peregrine/internal/pattern"
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
	DomainBytes int     // peak MNI domain memory across levels (Figure 13 accounting)
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
	opts, cancel := spanDeadline(opts) // one deadline spans the levels
	defer cancel()

	res := &Result{}
	queries := pattern.GenerateAllEdgeInduced(1) // the single unlabeled edge
	for edges := 1; edges <= maxEdges; edges++ {
		lvlStart := time.Now()
		domains := make(map[string]*mni.Domain)
		stopped, err := matchLevel(g, queries, domains, opts)
		if err != nil {
			return nil, err
		}
		if stopped {
			res.Stopped = true
			break
		}
		var frequent []FrequentPattern // in canonical-code order
		size := 0
		for _, code := range slices.Sorted(maps.Keys(domains)) {
			d := domains[code]
			size += d.SizeBytes()
			if s := d.Support(); s >= support {
				frequent = append(frequent, FrequentPattern{Pattern: d.Pattern(), Support: s})
			}
		}
		res.DomainBytes = max(res.DomainBytes, size)
		res.Levels = append(res.Levels, Level{
			Edges:             edges,
			QueriesMatched:    len(queries),
			LabeledDiscovered: len(domains),
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

// matchLevel matches every query pattern of one FSM level through
// Discover and folds the MNI domains of the discovered labeled patterns
// into domains, keyed by canonical code; it reports whether a traversal
// was cut short. A thread's tally for a (query, labeling) key is one set
// of images per query vertex; its fold lands them in the code's domain
// through the canonical permutation.
func matchLevel(g *graph.Graph, queries []*pattern.Pattern, domains map[string]*mni.Domain, opts core.Options) (bool, error) {
	return Discover(g, queries, queries, opts, func(im *[]mni.Set, reg []int, m *core.Match) {
		if *im == nil {
			*im = make([]mni.Set, len(m.Mapping))
		}
		for _, v := range reg {
			(*im)[v].Add(m.Mapping[v], g.NumVertices())
		}
	}, func(labeled *pattern.Pattern, code string, perm []int, im *[]mni.Set) {
		d := domains[code]
		if d == nil {
			d = mni.NewDomain(labeled.Renumber(perm), g.NumVertices())
			domains[code] = d
		}
		d.Fold(*im, perm)
	})
}
