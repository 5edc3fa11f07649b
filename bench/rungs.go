package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"sync/atomic"

	"peregrine"
	"peregrine/internal/core"
	"peregrine/internal/profile"
	"peregrine/internal/server"
)

// work is what the API an op went through reported about the engine's
// side of it. Library rungs fill ms (nil for a one-shot Exists, which
// returns no statistics); served rungs fill rs and bytes.
type work struct {
	ms        *core.MultiStats
	rs        *server.RunStats
	bytes     int     // response body
	imbalance float64 // profiled core runs: max ÷ mean worker busy time
}

// counters are the work figures an untraced run can total for free:
// they repeat exactly wherever the path is deterministic, which is
// what the A/A check asserts.
type counters struct {
	Intersections uint64 `json:"intersections"` // trie + completion where the rung reports both
	Matches       uint64 `json:"matches"`
	Tasks         uint64 `json:"tasks"`
}

func (c *counters) add(w work) {
	switch {
	case w.ms != nil:
		c.Intersections += w.ms.Share.Intersections + w.ms.Intersections
		c.Matches += w.ms.Matches()
		c.Tasks += w.ms.Tasks
	case w.rs != nil:
		if w.rs.Sharing != nil {
			c.Intersections += w.rs.Sharing.Intersections
		}
		c.Matches += w.rs.Matches
		c.Tasks += w.rs.Tasks
	}
}

// runner issues ops against an env at any rung and checks each answer
// against the oracle. With a tracer, each call into a module is wrapped
// in a span under the op's root span.
type runner struct {
	e       *env
	or      *oracle
	tr      *tracer
	threads int

	// The traced pass's variations on a rung. label names the spans when
	// one rung is replayed in two ways; entry picks the package peregrine
	// entry point count ops go through; breakdown, at rungCore, attaches
	// the Figure 11 stage recorder and a per-op load-balance recorder.
	label     string
	entry     entryPoint
	breakdown *profile.Breakdown
}

type entryPoint int

const (
	entryCountMany entryPoint = iota // peregrine.CountMany: prepare through the plan cache, then count
	entryPrepared                    // PreparedQuery.CountEach on a query prepared once
	entryMerged                      // CountEachMerged of the op and its partner: the coalescer's engine call
)

// runOpts are the options of every library call; oneShotOpts add what
// the one-shot entry points need to compile the op's raw patterns.
func (r *runner) runOpts() []peregrine.Option {
	return []peregrine.Option{peregrine.WithThreads(r.threads), peregrine.WithDeadline(opTimeout)}
}

func (r *runner) oneShotOpts() []peregrine.Option {
	if r.e.w.vertexInduced {
		return append(r.runOpts(), peregrine.VertexInduced())
	}
	return r.runOpts()
}

// do runs op o (position id of its list) at rung at. A non-nil error
// means the op failed: it errored, timed out, was refused, or its
// answer differs from the oracle's.
func (r *runner) do(at rung, id int, o *op) (work, error) {
	name := r.label
	if name == "" {
		name = at.String()
	}
	root := r.tr.begin(id, name, -1)
	defer r.tr.end(root)
	var (
		out outcome
		wk  work
		err error
	)
	call := r.tr.begin(id, name+".call", root)
	switch at {
	case rungCore:
		out, wk = r.doCore(o)
	case rungPeregrine:
		out, wk, err = r.doPeregrine(o)
	default:
		var raw []byte
		raw, err = r.post(at, o)
		r.tr.end(call)
		if err != nil {
			return wk, err
		}
		call = r.tr.begin(id, name+".decode", root)
		out, wk, err = decode(o, raw)
	}
	r.tr.end(call)
	if err != nil {
		return wk, err
	}
	if wk.ms != nil && wk.ms.Stopped && o.kind == server.KindCount {
		return wk, fmt.Errorf("count %q stopped at the %v deadline", o.key(), opTimeout)
	}
	verify := r.tr.begin(id, name+".verify", root)
	defer r.tr.end(verify)
	return wk, r.or.check(o, &out)
}

// collector gathers what the callback paths deliver: the first match
// (exists) or the first matchLimit mappings (matches).
type collector struct {
	kind  string
	found atomic.Bool
	mu    sync.Mutex
	rows  [][]uint32
}

func (c *collector) visit(ctx *core.Ctx, m *core.Match) {
	if c.kind == server.KindExists {
		c.found.Store(true)
		ctx.Stop()
		return
	}
	c.mu.Lock()
	if len(c.rows) < matchLimit {
		c.rows = append(c.rows, m.OrigMapping(ctx.G))
	}
	full := len(c.rows) >= matchLimit
	c.mu.Unlock()
	if full {
		ctx.Stop()
	}
}

func (c *collector) outcome() outcome { return outcome{found: c.found.Load(), matches: c.rows} }

func (r *runner) doCore(o *op) (outcome, work) {
	opt := core.Options{Threads: r.threads, Deadline: opTimeout}
	if r.breakdown != nil {
		opt.Breakdown, opt.LoadBalance = r.breakdown, profile.NewLoadBalance(r.threads)
	}
	var out outcome
	var ms core.MultiStats
	if o.kind == server.KindCount {
		ms = core.RunPlans(r.e.g, o.plans, nil, opt)
		out.counts = make([]uint64, len(ms.Per))
		for i := range ms.Per {
			out.counts[i] = ms.Per[i].Matches
		}
		if o.recover != nil {
			out.counts = o.recover(out.counts)
		}
	} else {
		c := &collector{kind: o.kind}
		ms = core.RunPlans(r.e.g, o.plans, func(ctx *core.Ctx, _ int, m *core.Match) { c.visit(ctx, m) }, opt)
		out = c.outcome()
	}
	wk := work{ms: &ms}
	if opt.LoadBalance != nil {
		var busy []float64
		for _, d := range opt.LoadBalance.Busy() {
			busy = append(busy, d.Seconds())
		}
		wk.imbalance = ratio(slices.Max(busy), mean(busy))
	}
	return out, wk
}

func (r *runner) doPeregrine(o *op) (outcome, work, error) {
	switch o.kind {
	case server.KindCount:
		switch r.entry {
		case entryPrepared:
			counts, ms, err := o.prepared.CountEachWithStats(r.e.g, r.runOpts()...)
			return outcome{counts: counts}, work{ms: &ms}, err
		case entryMerged:
			per, ms, err := peregrine.CountEachMerged(r.e.g, []*peregrine.PreparedQuery{o.prepared, o.partner.prepared}, r.runOpts()...)
			if err != nil {
				return outcome{}, work{}, err
			}
			out := outcome{counts: make([]uint64, len(per[0]))}
			for i, st := range per[0] {
				out.counts[i] = st.Matches
			}
			return out, work{ms: &ms}, nil
		}
		counts, ms, err := peregrine.CountManyWithStats(r.e.g, o.raw, r.oneShotOpts()...)
		return outcome{counts: counts}, work{ms: &ms}, err
	case server.KindExists:
		found, err := peregrine.Exists(r.e.g, o.raw[0], r.oneShotOpts()...)
		return outcome{found: found}, work{}, err
	default:
		c := &collector{kind: o.kind}
		st, err := peregrine.ForEachMatch(r.e.g, o.raw[0], c.visit, r.oneShotOpts()...)
		return c.outcome(), work{ms: &core.MultiStats{Per: []core.Stats{st}, Tasks: st.Tasks}}, err
	}
}

// post sends the op's request body at a served rung and returns the
// response body; anything but 200 is a failed op.
func (r *runner) post(at rung, o *op) ([]byte, error) {
	if at == rungHandler {
		rec := httptest.NewRecorder()
		r.e.handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(o.body)))
		if rec.Code != http.StatusOK {
			return nil, fmt.Errorf("%s %q: status %d: %s", o.kind, o.key(), rec.Code, rec.Body.Bytes())
		}
		return rec.Body.Bytes(), nil
	}
	url, err := r.e.url(at)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(context.Background(), http.MethodPost, url, bytes.NewReader(o.body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := r.e.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s %q: status %d: %s", o.kind, o.key(), resp.StatusCode, raw)
	}
	return raw, nil
}

// decode reads a terminal job snapshot into the op's outcome.
func decode(o *op, raw []byte) (outcome, work, error) {
	var info server.JobInfo
	if err := json.Unmarshal(raw, &info); err != nil {
		return outcome{}, work{}, fmt.Errorf("%s %q: bad response: %w", o.kind, o.key(), err)
	}
	if info.Status != server.StatusDone || info.Result == nil {
		return outcome{}, work{}, fmt.Errorf("%s %q: job %s: %s", o.kind, o.key(), info.Status, info.Error)
	}
	res := info.Result
	out := outcome{matches: res.Matches}
	for _, row := range res.PerPattern {
		out.counts = append(out.counts, row.Count)
	}
	if res.Exists != nil {
		out.found = *res.Exists
	} else if o.kind == server.KindExists {
		return outcome{}, work{}, fmt.Errorf("exists %q: response carries no answer", o.key())
	}
	return out, work{rs: res.Stats, bytes: len(raw)}, nil
}
