// Package coord is the scale-out layer: a coordinator that owns a
// shard→node assignment and serves the same POST /v1/query count API
// as a single peregrine-serve node, fanning each query out as
// per-shard task-range jobs and merging the answers.
//
// The distribution primitive is the task range (peregrine.
// WithTaskRange): a count over start vertices [lo, hi) is exact for
// matches rooted in that range, and disjoint ranges' counts sum to the
// whole-graph counts — with or without symmetry breaking. The
// coordinator therefore needs no cross-node communication at all: one
// HTTP round per shard, then addition.
//
// The rewrite happens here, above the fan-out, because a ranged run
// cannot rewrite on its own (a pattern and its relatives root one vertex
// set at different tasks). Its recovery is a linear map over counts, so
// it commutes with the range sum: the coordinator plans a request as a
// node would (server.PlanFanout: the same compile, the same 400s, priced
// for the same graph Shape, which it reads once from a node's GET
// /v1/graphs), sends the executed set out by range as ordinary pattern
// text plus the cuts of the rows that run decomposed, adds the answers
// per executed row — a decomposed row's V in 128 bits — and recovers the
// requested counts once at the merge.
//
// Each shard carries a replica list of nodes that can serve it; a node
// that fails mid-query (the connection drops, the process dies, it
// answers for the wrong range) costs one retry of that shard's range on
// the next replica, not the whole query. A node's 4xx is the client's
// error and goes back to the client as it is: no replica would answer a
// bad request differently.
package coord

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"peregrine"
	"peregrine/internal/server"
)

// ShardSpec assigns one contiguous task range to a replica list of
// nodes. Nodes are base URLs ("http://host:port") tried in order; the
// first is the shard's preferred owner, the rest are failover.
type ShardSpec struct {
	Lo    uint32   `json:"lo"`
	Hi    uint32   `json:"hi"` // exclusive; must exceed Lo
	Nodes []string `json:"nodes"`
}

// Config parameterizes a Coordinator.
type Config struct {
	// Graph is the graph name each node has registered; requests that
	// name no graph get this one, and requests naming a different graph
	// are refused (the assignment is per graph).
	Graph string
	// Shards is the task-range partition. Ranges must be disjoint;
	// together they should cover [0, V) or merged counts undercount.
	Shards []ShardSpec
	// Timeout bounds each per-shard HTTP round; 0 means 5 minutes.
	Timeout time.Duration
	// Client overrides the HTTP client (tests); nil uses a default.
	Client *http.Client
}

// Coordinator fans count queries out across shards and merges results.
type Coordinator struct {
	cfg    Config
	client *http.Client
	jobSeq atomic.Uint64

	// The coordinator compiles and rewrites every request itself, through
	// its own plan cache, and tallies its rewrites for GET /v1/stats: the
	// nodes' ranged runs never morph, so their counters cannot.
	plans *peregrine.PlanCache
	morph server.MorphCounters

	// shape is the Shape of the graph the nodes serve, once one has
	// reported it loaded (planShape); nil until then.
	shape atomic.Pointer[peregrine.Shape]

	// Per-shard failover state: preferred replica index, advanced when
	// a replica fails so later queries skip straight to the survivor.
	mu    sync.Mutex
	pref  []int
	fails []uint64 // per-shard failover count, served by /v1/coord
}

// New validates cfg and returns a Coordinator.
func New(cfg Config) (*Coordinator, error) {
	if cfg.Graph == "" {
		return nil, fmt.Errorf("coord: config needs a graph name")
	}
	if len(cfg.Shards) == 0 {
		return nil, fmt.Errorf("coord: config needs at least one shard")
	}
	sorted := append([]ShardSpec(nil), cfg.Shards...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Lo < sorted[j].Lo })
	for i, sh := range sorted {
		if sh.Hi <= sh.Lo {
			return nil, fmt.Errorf("coord: shard %d range [%d,%d) is empty", i, sh.Lo, sh.Hi)
		}
		if len(sh.Nodes) == 0 {
			return nil, fmt.Errorf("coord: shard %d has no nodes", i)
		}
		if i > 0 && sh.Lo < sorted[i-1].Hi {
			return nil, fmt.Errorf("coord: shard ranges [%d,%d) and [%d,%d) overlap",
				sorted[i-1].Lo, sorted[i-1].Hi, sh.Lo, sh.Hi)
		}
	}
	cfg.Shards = sorted
	if cfg.Timeout <= 0 {
		cfg.Timeout = 5 * time.Minute
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{}
	}
	return &Coordinator{
		cfg:    cfg,
		client: client,
		plans:  peregrine.NewPlanCache(0),
		pref:   make([]int, len(sorted)),
		fails:  make([]uint64, len(sorted)),
	}, nil
}

// Nodes returns the distinct node URLs across all shards, in first-use
// order.
func (c *Coordinator) Nodes() []string {
	seen := make(map[string]bool)
	var out []string
	for _, sh := range c.cfg.Shards {
		for _, n := range sh.Nodes {
			if !seen[n] {
				seen[n] = true
				out = append(out, n)
			}
		}
	}
	return out
}

// Handler returns the coordinator's HTTP API: the node-compatible
// subset (POST /v1/query for counts, GET /v1/stats, GET /v1/graphs,
// GET /healthz) plus GET /v1/coord describing the shard assignment.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/query", c.handleQuery)
	mux.HandleFunc("/v1/stats", c.handleStats)
	mux.HandleFunc("/v1/graphs", c.handleGraphs)
	mux.HandleFunc("/v1/coord", c.handleCoord)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintln(w, `{"status":"ok"}`)
	})
	return mux
}

// httpError writes a JSON error body, matching the node convention.
func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

// handleQuery plans a count query, fans its executed pattern set out as
// per-shard task-range jobs and responds with a terminal job snapshot,
// the same shape a node's wait:true query returns — so clients cannot
// tell a coordinator from a single node. A request no node would run is
// refused here, in the node's words, before any node sees it.
func (c *Coordinator) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var req server.Request
	dec := json.NewDecoder(io.LimitReader(r.Body, 1<<20))
	dec.DisallowUnknownFields() // as a node does: a misspelt field is a 400, not a different query
	if err := dec.Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if req.Kind != server.KindCount {
		httpError(w, http.StatusBadRequest,
			"coordinator serves count queries only (kind %q): send others to a node directly", req.Kind)
		return
	}
	if req.TaskLo != 0 || req.TaskHi != 0 {
		httpError(w, http.StatusBadRequest, "the coordinator owns task ranges; leave taskLo/taskHi unset")
		return
	}
	if req.Graph == "" {
		req.Graph = c.cfg.Graph
	}
	// A node's order: the request must compile (400) before its graph is
	// looked up (404).
	fan, err := server.PlanFanout(req, c.plans, c.planShape(r.Context()))
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if req.Graph != c.cfg.Graph {
		httpError(w, http.StatusNotFound, "coordinator serves graph %q only", c.cfg.Graph)
		return
	}

	created := time.Now().UTC()
	id := fmt.Sprintf("coord-%d", c.jobSeq.Add(1))
	sub := fan.Request()
	merged, err := c.fanOut(r.Context(), sub)
	if ce := (*clientError)(nil); errors.As(err, &ce) && ce.code == http.StatusBadRequest && sub.Cuts != nil {
		// A node refuses a cut of a request the coordinator accepted when
		// the kept Shape is not its graph's (the graph changed under its
		// name): read the Shape afresh and plan once more.
		c.shape.Store(nil)
		if fan, err = server.PlanFanout(req, c.plans, c.planShape(r.Context())); err == nil {
			merged, err = c.fanOut(r.Context(), fan.Request())
		}
	}
	if err == nil {
		merged = fan.Finish(merged)
		if st := merged.Stats; st != nil && st.Morphing != nil {
			c.morph.Observe(*st.Morphing)
		}
	}
	finished := time.Now().UTC()
	info := server.JobInfo{
		ID:       id,
		Request:  req,
		Created:  created,
		Finished: &finished,
	}
	var ce *clientError
	if errors.As(err, &ce) {
		httpError(w, ce.code, "%s", ce.msg)
		return
	}
	info.Status, info.Result = server.StatusDone, merged
	w.Header().Set("Content-Type", "application/json")
	if err != nil {
		info.Status, info.Error = server.StatusFailed, err.Error()
		w.WriteHeader(http.StatusBadGateway)
	}
	_ = json.NewEncoder(w).Encode(info)
}

// shapeWait bounds planShape's ask of the nodes (or Config.Timeout, if
// shorter): a query waits no longer for a Shape before it plans for the
// zero one.
const shapeWait = 2 * time.Second

// planShape returns the Shape the coordinator plans for: its graph's,
// as the first node to list it loaded reports it, kept from then on — the
// Shape a node's in-process count plans for, so both execute one set. Until
// a node has the graph loaded it asks every node on every query, all at
// once and for at most shapeWait, so a hung node costs no more than that,
// and returns the zero Shape, the cost model's sparse default, which never
// decomposes.
func (c *Coordinator) planShape(ctx context.Context) peregrine.Shape {
	if s := c.shape.Load(); s != nil {
		return *s
	}
	ctx, cancel := context.WithTimeout(ctx, min(shapeWait, c.cfg.Timeout))
	defer cancel()
	nodes := c.Nodes()
	found := make(chan peregrine.Shape, len(nodes))
	var wg sync.WaitGroup
	for _, node := range nodes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body, err := c.getJSON(ctx, node, "/v1/graphs")
			var list []server.GraphInfo
			if err != nil || json.Unmarshal(body, &list) != nil {
				return
			}
			for _, gi := range list {
				if gi.Name == c.cfg.Graph && gi.Loaded {
					found <- gi.Shape()
					return
				}
			}
		}()
	}
	go func() { wg.Wait(); close(found) }()
	if s, ok := <-found; ok {
		c.shape.Store(&s)
		return s
	}
	return peregrine.Shape{}
}

// fanOut runs req once per shard, each restricted to the shard's task
// range, and adds the per-shard results up, pattern by pattern.
func (c *Coordinator) fanOut(ctx context.Context, req server.Request) (*server.Result, error) {
	results := make([]*server.Result, len(c.cfg.Shards))
	errs := make([]error, len(c.cfg.Shards))
	var wg sync.WaitGroup
	for i := range c.cfg.Shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = c.runShard(ctx, req, i)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			sh := c.cfg.Shards[i]
			return nil, fmt.Errorf("shard [%d,%d): %w", sh.Lo, sh.Hi, err)
		}
	}
	return mergeResults(results), nil
}

// runShard executes req over shard i's task range, walking the shard's
// replica list until a node answers. A replica that fails is demoted:
// later queries start from the survivor instead of re-discovering the
// failure per request. A clientError ends the walk at once, demoting
// nobody.
func (c *Coordinator) runShard(ctx context.Context, req server.Request, i int) (*server.Result, error) {
	sh := c.cfg.Shards[i]
	sub := req
	sub.TaskLo = sh.Lo
	sub.TaskHi = sh.Hi
	sub.Wait = true
	body, err := json.Marshal(sub)
	if err != nil {
		return nil, err
	}

	c.mu.Lock()
	start := c.pref[i]
	c.mu.Unlock()

	var lastErr error
	for attempt := 0; attempt < len(sh.Nodes); attempt++ {
		ri := (start + attempt) % len(sh.Nodes)
		res, err := c.postQuery(ctx, sh.Nodes[ri], sub, body)
		var ce *clientError
		if errors.As(err, &ce) {
			return nil, err
		}
		if err == nil {
			if attempt > 0 {
				c.mu.Lock()
				c.pref[i] = ri
				c.fails[i]++
				c.mu.Unlock()
			}
			return res, nil
		}
		lastErr = fmt.Errorf("node %s: %w", sh.Nodes[ri], err)
		if ctx.Err() != nil {
			return nil, lastErr
		}
	}
	return nil, fmt.Errorf("all %d replicas failed: %w", len(sh.Nodes), lastErr)
}

// clientError is a node's 4xx answer to a shard job.
type clientError struct {
	code int
	msg  string
}

func (e *clientError) Error() string { return fmt.Sprintf("status %d: %s", e.code, e.msg) }

// postQuery runs one synchronous per-shard job — sub, encoded as body —
// against a node, and accepts only an answer to exactly that job.
func (c *Coordinator) postQuery(ctx context.Context, node string, sub server.Request, body []byte) (*server.Result, error) {
	ctx, cancel := context.WithTimeout(ctx, c.cfg.Timeout)
	defer cancel()
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost,
		strings.TrimRight(node, "/")+"/v1/query", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hr.Header.Set("Content-Type", "application/json")
	resp, err := c.client.Do(hr)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var info server.JobInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		return nil, fmt.Errorf("bad response: %w", err)
	}
	if resp.StatusCode >= 400 && resp.StatusCode < 500 {
		return nil, &clientError{code: resp.StatusCode, msg: info.Error}
	}
	if resp.StatusCode != http.StatusOK {
		if info.Error != "" {
			return nil, fmt.Errorf("status %d: %s", resp.StatusCode, info.Error)
		}
		return nil, fmt.Errorf("status %d", resp.StatusCode)
	}
	if info.Status != server.StatusDone {
		if info.Error != "" {
			return nil, fmt.Errorf("job %s: %s", info.Status, info.Error)
		}
		return nil, fmt.Errorf("job finished %s", info.Status)
	}
	if info.Result == nil {
		return nil, fmt.Errorf("done job carried no result")
	}
	// Merging is addition, so a part that is not what was asked for —
	// another range, another number of patterns — would be a wrong sum.
	if got := info.Request; got.TaskLo != sub.TaskLo || got.TaskHi != sub.TaskHi {
		return nil, fmt.Errorf("answered for task range [%d,%d), asked for [%d,%d)", got.TaskLo, got.TaskHi, sub.TaskLo, sub.TaskHi)
	}
	if got, want := len(info.Result.PerPattern), len(sub.Patterns); got != want {
		return nil, fmt.Errorf("answered with %d per-pattern rows, asked for %d patterns", got, want)
	}
	return info.Result, nil
}

// mergeResults adds per-shard counts — exact by task-range additivity,
// postQuery having checked each part's range and shape; per-pattern rows
// add as 128-bit (countHi, count) pairs, a decomposed row's V passing 64
// bits before the count it recovers does — and folds the execution stats
// with RunStats.Add: counters sum, while wall-clock times (the shards ran
// concurrently) and per-batch constants take the max.
func mergeResults(parts []*server.Result) *server.Result {
	out := &server.Result{}
	for _, p := range parts {
		out.Count += p.Count
		if out.PerPattern == nil {
			out.PerPattern = make([]server.PatternCount, len(p.PerPattern))
		}
		for i, pc := range p.PerPattern {
			row := &out.PerPattern[i]
			var carry uint64
			row.Pattern = pc.Pattern
			row.Count, carry = bits.Add64(row.Count, pc.Count, 0)
			row.CountHi += pc.CountHi + carry
		}
		if p.Stats != nil {
			if out.Stats == nil {
				out.Stats = &server.RunStats{}
			}
			out.Stats.Add(p.Stats)
		}
	}
	return out
}

// handleStats sums the flat /v1/stats counters across the distinct
// nodes and the coordinator's own morph* tallies (the fleet's rewrites
// happen here, not on the nodes), recomputing the plan-cache hit rate
// from the summed totals so the merged body still decodes as one node's
// ServerStats.
func (c *Coordinator) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	sum := make(map[string]float64)
	add := func(one []byte) {
		var m map[string]float64
		if json.Unmarshal(one, &m) != nil {
			return
		}
		for k, v := range m {
			sum[k] += v
		}
	}
	var own server.ServerStats
	c.morph.AddTo(&own)
	if one, err := json.Marshal(own); err == nil {
		add(one)
	}
	for _, node := range c.Nodes() {
		// A dead node contributes nothing; the merged stats cover the
		// reachable fleet (the query path is where failover matters).
		if one, err := c.getJSON(r.Context(), node, "/v1/stats"); err == nil {
			add(one)
		}
	}
	if hits, misses := sum["planCacheHits"], sum["planCacheMisses"]; hits+misses > 0 {
		sum["planCacheHitRate"] = hits / (hits + misses)
	} else {
		delete(sum, "planCacheHitRate")
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(sum)
}

// handleGraphs proxies the listing of the first reachable node: every
// node registers the same graphs, so one healthy answer describes the
// fleet.
func (c *Coordinator) handleGraphs(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	for _, node := range c.Nodes() {
		body, err := c.getJSON(r.Context(), node, "/v1/graphs")
		if err != nil {
			continue
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(body)
		return
	}
	httpError(w, http.StatusBadGateway, "no node reachable")
}

// handleCoord describes the shard assignment and failover history.
func (c *Coordinator) handleCoord(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	type shardView struct {
		ShardSpec
		Preferred int    `json:"preferred"`
		Failovers uint64 `json:"failovers"`
	}
	view := struct {
		Graph  string      `json:"graph"`
		Shards []shardView `json:"shards"`
	}{Graph: c.cfg.Graph}
	c.mu.Lock()
	for i, sh := range c.cfg.Shards {
		view.Shards = append(view.Shards, shardView{ShardSpec: sh, Preferred: c.pref[i], Failovers: c.fails[i]})
	}
	c.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(view)
}

// getJSON fetches one node endpoint body.
func (c *Coordinator) getJSON(ctx context.Context, node, path string) ([]byte, error) {
	ctx, cancel := context.WithTimeout(ctx, c.cfg.Timeout)
	defer cancel()
	hr, err := http.NewRequestWithContext(ctx, http.MethodGet, strings.TrimRight(node, "/")+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.client.Do(hr)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d", resp.StatusCode)
	}
	return io.ReadAll(io.LimitReader(resp.Body, 8<<20))
}
