package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"peregrine/internal/server"
)

// span is one timed call into a module, recorded from the benchmark's
// side of the boundary. Spans of one op share Op; Parent is the index
// of the enclosing span in the trace, -1 for an op's root span.
type span struct {
	Op      int    `json:"op"`
	Name    string `json:"name"`
	Parent  int    `json:"parent"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.EndNS - s.StartNS }

// tracer holds spans in memory until the run ends. A nil *tracer is
// tracing off: begin and end are no-ops, so the untraced pass runs the
// same code path without taking a timestamp.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	jobs  []nodeJob
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (its index in the trace).
func (t *tracer) begin(op int, name string, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Op: op, Name: name, Parent: parent, StartNS: now})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].EndNS = now
	t.mu.Unlock()
}

// selfTimes returns, per span, its duration minus the part of its
// interval that its child spans cover. Children may overlap each other
// (a coordinator's shard jobs run concurrently), so covered time is the
// length of the union of the children's intervals clipped to the parent.
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].StartNS < spans[kids[b]].StartNS })
		var covered int64
		edge := s.StartNS // everything before edge is already counted
		for _, k := range kids {
			lo, hi := max(spans[k].StartNS, edge), min(spans[k].EndNS, s.EndNS)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = s.dur() - covered
	}
	return self
}

// selfMSByName is the median self time, in ms, of the spans with each name.
func selfMSByName(spans []span) map[string]float64 {
	self := selfTimes(spans)
	by := make(map[string][]float64)
	for i, s := range spans {
		by[s.Name] = append(by[s.Name], float64(self[i])/1e6)
	}
	out := make(map[string]float64, len(by))
	for name, xs := range by {
		out[name] = median(xs)
	}
	return out
}

func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// nodeJob is one POST /v1/query as a serving node saw it, recorded by
// wrapNode: the server-side half of an HTTP round trip, and — behind a
// coordinator — one shard job of a fanned-out request.
type nodeJob struct {
	key            string // the request's pattern texts, as forwarded
	startNS, endNS int64
}

// wrapNode records a nodeJob around every query a node serves. The
// coordinator forwards neither headers nor an id, so jobs are linked to
// the op that caused them afterwards, by pattern text and containment
// in time (linkJobs).
func (t *tracer) wrapNode(inner http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			inner.ServeHTTP(w, r)
			return
		}
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		var req server.Request
		_ = json.Unmarshal(body, &req) // a body the node will refuse still gets a span
		start := time.Since(t.t0).Nanoseconds()
		inner.ServeHTTP(w, r)
		end := time.Since(t.t0).Nanoseconds()
		t.mu.Lock()
		t.jobs = append(t.jobs, nodeJob{key: patternKey(req.Pattern, req.Patterns), startNS: start, endNS: end})
		t.mu.Unlock()
	})
}

func patternKey(one string, many []string) string {
	if one != "" {
		return one
	}
	return strings.Join(many, "|")
}

// resetJobs forgets the node jobs recorded so far (warm-up traffic).
func (t *tracer) resetJobs() {
	t.mu.Lock()
	t.jobs = t.jobs[:0]
	t.mu.Unlock()
}

// linkJobs turns the node jobs recorded since the last call into
// "node.job" spans under the round-trip span that caused each: the
// span named parentName with the same pattern key whose interval
// contains the job. Two in-flight ops with identical patterns are
// told apart by giving each job to the candidate holding the fewest.
// It returns, per parent span id, the durations (ns) of its jobs.
func (t *tracer) linkJobs(parentName string, keyOf func(op int) string) map[int][]int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[int][]int64)
	for _, j := range t.jobs {
		best := -1
		for id, s := range t.spans {
			if s.Name != parentName || s.StartNS > j.startNS || s.EndNS < j.endNS || keyOf(s.Op) != j.key {
				continue
			}
			if best < 0 || len(out[id]) < len(out[best]) {
				best = id
			}
		}
		if best < 0 {
			continue
		}
		t.spans = append(t.spans, span{Op: t.spans[best].Op, Name: "node.job", Parent: best, StartNS: j.startNS, EndNS: j.endNS})
		out[best] = append(out[best], j.endNS-j.startNS)
	}
	t.jobs = t.jobs[:0]
	return out
}
