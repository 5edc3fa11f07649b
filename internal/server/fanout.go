package server

import (
	"peregrine"
)

// Fanout is a count request planned for execution elsewhere — the two
// halves a coordinator wraps around its range fan-out. PlanFanout is
// the library's plan half (resolve → dedup → rewrite), Request what
// every node executes over its own task range, and Finish the library's
// finish half (recover → demux) over the per-pattern sums of the nodes'
// answers. The rewrite's recovery is a linear map over counts, and
// ranged counts of one executed row sum exactly — a decomposed row's V
// too, since a task binds its cut's first vertex — so recovering the
// sums once equals recovering a whole-graph run: the rewrite reaches the
// nodes although a ranged run may not rewrite on its own.
type Fanout struct {
	q  *compiledQuery
	cp *peregrine.CountPlan
}

// PlanFanout compiles count request req exactly as a node's POST
// /v1/query does — the same validation, the same error texts, all of
// them the client's (HTTP 400) — and plans its execution through plans,
// priced for a graph of shape s: with the graph's own Shape, the
// executed set is the one a node counting req whole would run.
func PlanFanout(req Request, plans *peregrine.PlanCache, s peregrine.Shape) (*Fanout, error) {
	q, err := compile(req, plans)
	if err != nil {
		return nil, err
	}
	cp, err := peregrine.PlanCount(s, []*peregrine.PreparedQuery{q.prepared})
	if err != nil {
		return nil, err
	}
	return &Fanout{q: q, cp: cp}, nil
}

// Request returns the request each node executes. A batch the rewrite
// leaves alone goes out as it came in. A rewritten one goes out as the
// executed set's pattern texts, which spell their anti-edges and labels
// out, with vertexInduced cleared, and with cuts naming each decomposed
// row's cut in those texts' numbering: nodes run them as given, because a
// ranged run never rewrites again (the morph gate in peregrine's
// PlanCount).
func (f *Fanout) Request() Request {
	req := f.q.req
	if !f.cp.Rewritten() {
		return req
	}
	executed := f.cp.Executed()
	req.Pattern, req.VertexInduced = "", false
	req.Patterns = make([]string, len(executed))
	for i, p := range executed {
		req.Patterns[i] = p.String()
	}
	req.Cuts = f.cp.Cuts()
	return req
}

// Finish turns sum — the nodes' answers to Request added up in 128 bits,
// one perPattern row per Request pattern — into the answer to the
// request as it came in: the requested pattern texts with their
// recovered counts (per-pattern rows for list-form requests only, as on
// a node), stats.matches their total, and stats.morphing the plan's
// rewrite tally, once. The other stats stay the nodes' summed traversal
// figures.
func (f *Fanout) Finish(sum *Result) *Result {
	if !f.cp.Rewritten() {
		return sum
	}
	executed := peregrine.MultiStats{Per: make([]peregrine.Stats, len(sum.PerPattern))}
	for i, row := range sum.PerPattern {
		executed.Per[i].Matches = row.Count
		if row.CountHi != 0 {
			if executed.MatchesHi == nil {
				executed.MatchesHi = make([]uint64, len(sum.PerPattern))
			}
			executed.MatchesHi[i] = row.CountHi
		}
	}
	per, ms := f.cp.Finish(executed)
	res := f.q.countResult(per[0], ms, nil)
	if sum.Stats != nil {
		st := *sum.Stats
		st.Matches, st.Morphing = res.Stats.Matches, res.Stats.Morphing
		res.Stats = &st
	}
	return res
}
