package coord

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"peregrine"
	"peregrine/internal/gen"
	"peregrine/internal/graph"
	"peregrine/internal/pattern"
	"peregrine/internal/ref"
	"peregrine/internal/server"
)

// testShards is the shard count of the manifest every test node serves.
const testShards = 4

// testNode is one peregrine-serve node over the shared test graph,
// served from a testShards-fragment manifest, with a kill switch that
// aborts query connections — the "node died mid-query" failure the
// coordinator must survive.
type testNode struct {
	ts      *httptest.Server
	down    atomic.Bool
	queries atomic.Int64 // POST /v1/query requests received

	mu     sync.Mutex
	bodies [][]byte // their bodies, as received
}

// received returns the query bodies the node has seen and forgets them.
func (n *testNode) received() [][]byte {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := n.bodies
	n.bodies = nil
	return out
}

func newTestNode(t *testing.T) *testNode {
	return newTestNodeOn(t, gen.ErdosRenyi(gen.ERConfig{Vertices: 80, Edges: 220, Seed: 3}), testShards)
}

// newTestNodeOn is a node serving g as "g" from a shards-fragment
// manifest.
func newTestNodeOn(t *testing.T, g *graph.Graph, shards int) *testNode {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	manifest := filepath.Join(t.TempDir(), "g.manifest")
	if _, err := graph.SaveSharded(manifest, g, shards); err != nil {
		t.Fatalf("SaveSharded: %v", err)
	}
	reg := server.NewRegistry()
	reg.AddFile("g", manifest)
	s := server.NewServer(ctx, reg)
	n := &testNode{}
	inner := s.Handler()
	n.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/v1/query") {
			n.queries.Add(1)
			body, err := io.ReadAll(r.Body)
			if err != nil {
				t.Error(err)
			}
			r.Body = io.NopCloser(bytes.NewReader(body))
			n.mu.Lock()
			n.bodies = append(n.bodies, body)
			n.mu.Unlock()
		}
		if n.down.Load() && strings.HasPrefix(r.URL.Path, "/v1/query") {
			// Drop the connection without a response: the client sees a
			// mid-request network error, exactly what a killed process
			// looks like.
			panic(http.ErrAbortHandler)
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(n.ts.Close)
	return n
}

// newTestCoordinator builds a coordinator over the node URLs with 4
// shards and full replication, served by its own httptest server.
func newTestCoordinator(t *testing.T, urls ...string) *httptest.Server {
	t.Helper()
	c, err := New(Config{
		Graph:  "g",
		Shards: Assign(SplitRange(80, testShards), urls, 0),
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(c.Handler())
	t.Cleanup(ts.Close)
	return ts
}

func postCount(t *testing.T, base string, body string) (int, server.JobInfo) {
	t.Helper()
	resp, err := http.Post(base+"/v1/query", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var info server.JobInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatalf("decode: %v", err)
	}
	return resp.StatusCode, info
}

// misspeltBody is a valid count but for one unknown field ("threds").
const misspeltBody = `{"graph":"g","kind":"count","pattern":"0-1","threds":4,"wait":true}`

const countBody = `{"kind":"count","patterns":["0-1 1-2 2-0","0-1 0-2 0-3"],"wait":true}`

// morphBody is a batch the coordinator rewrites: the vertex-induced
// 3-star and 4-path go out as anti-edge-free relatives.
const morphBody = `{"kind":"count","patterns":["0-1 0-2 0-3","0-1 1-2 2-3"],"vertexInduced":true,"wait":true}`

// rewritten reports whether a coordinator answer came from a rewritten
// fan-out.
func rewritten(info server.JobInfo) bool {
	return info.Result != nil && info.Result.Stats != nil && info.Result.Stats.Morphing != nil &&
		info.Result.Stats.Morphing.PatternsReplaced > 0
}

// TestCoordinatorMergesCounts fans a two-pattern count across 4 shards
// on 2 nodes and checks the merged counts are byte-identical to one
// node mining the whole graph.
func TestCoordinatorMergesCounts(t *testing.T) {
	a, b := newTestNode(t), newTestNode(t)
	coord := newTestCoordinator(t, a.ts.URL, b.ts.URL)

	code, want := postCount(t, a.ts.URL, `{"graph":"g",`+countBody[1:])
	if code != http.StatusOK || want.Status != server.StatusDone {
		t.Fatalf("single-node query: code %d, %+v", code, want)
	}
	code, got := postCount(t, coord.URL, countBody)
	if code != http.StatusOK || got.Status != server.StatusDone {
		t.Fatalf("coordinator query: code %d, %+v", code, got)
	}
	if got.Result.Count != want.Result.Count {
		t.Fatalf("merged count %d != single-node %d", got.Result.Count, want.Result.Count)
	}
	if len(got.Result.PerPattern) != len(want.Result.PerPattern) {
		t.Fatalf("per-pattern rows %d != %d", len(got.Result.PerPattern), len(want.Result.PerPattern))
	}
	for i := range want.Result.PerPattern {
		w, g := want.Result.PerPattern[i], got.Result.PerPattern[i]
		if w.Pattern != g.Pattern || w.Count != g.Count {
			t.Errorf("pattern %d: merged %+v != single-node %+v", i, g, w)
		}
	}
	if got.Result.Stats == nil || got.Result.Stats.Sharing == nil {
		t.Errorf("merged result carries no sharing stats")
	}
	if got.Result.Stats != nil && got.Result.Stats.Tasks == 0 {
		t.Errorf("merged stats %+v: want summed tasks > 0", got.Result.Stats)
	}

	// The merge adds what is additive and only that: per-batch constants
	// (the trie's shape) read as on one node rather than times the number
	// of shard jobs, while run-time counters still sum to the whole-graph
	// run's.
	ws, gs := want.Result.Stats, got.Result.Stats
	if gs.Sharing.TrieNodes != ws.Sharing.TrieNodes || gs.Sharing.ProgramSteps != ws.Sharing.ProgramSteps {
		t.Errorf("merged trie shape %+v != single-node %+v", gs.Sharing, ws.Sharing)
	}
	if gs.Tasks != ws.Tasks || gs.Matches != ws.Matches || gs.Sharing.Intersections != ws.Sharing.Intersections {
		t.Errorf("merged counters tasks=%d matches=%d intersections=%d, want the single node's %d/%d/%d",
			gs.Tasks, gs.Matches, gs.Sharing.Intersections, ws.Tasks, ws.Matches, ws.Sharing.Intersections)
	}
	// Wire compatibility: the merged job status carries exactly a node's
	// stats keys (no coalescing — ranged shard jobs never ride a batch; no
	// morphing — these patterns have no anti-edges).
	wantKeys := []string{
		"coreMatches", "matchMicros", "matches", "planMicros",
		"sharing.intersections", "sharing.intersectionsSaved", "sharing.programSteps",
		"sharing.sharedNodeVisits", "sharing.trieNodes",
		"stopped", "tasks", "threads",
	}
	if keys := statsKeys(t, gs); !reflect.DeepEqual(keys, wantKeys) {
		t.Errorf("merged result.stats keys\n got %v\nwant %v", keys, wantKeys)
	}
}

// statsKeys returns the sorted JSON key paths of a result's stats, with
// nested blocks flattened as "block.key".
func statsKeys(t *testing.T, st *server.RunStats) []string {
	t.Helper()
	raw, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k, v := range m {
		if sub, ok := v.(map[string]any); ok {
			for sk := range sub {
				keys = append(keys, k+"."+sk)
			}
		} else {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}

// TestCoordinatorSurvivesNodeDeath kills one node and re-runs the
// query: every shard fails over to the replica and the merged counts
// are unchanged.
func TestCoordinatorSurvivesNodeDeath(t *testing.T) {
	t.Run("as given", func(t *testing.T) { testSurvivesNodeDeath(t, countBody) })
	t.Run("rewritten", func(t *testing.T) { testSurvivesNodeDeath(t, morphBody) })
}

func testSurvivesNodeDeath(t *testing.T, countBody string) {
	a, b := newTestNode(t), newTestNode(t)
	coord := newTestCoordinator(t, a.ts.URL, b.ts.URL)

	code, want := postCount(t, coord.URL, countBody)
	if code != http.StatusOK || want.Status != server.StatusDone {
		t.Fatalf("healthy query: code %d, %+v", code, want)
	}
	_, single := postCount(t, a.ts.URL, `{"graph":"g",`+countBody[1:])
	if single.Result == nil || want.Result.Count != single.Result.Count {
		t.Fatalf("healthy query: count %d, single node %+v", want.Result.Count, single.Result)
	}

	a.down.Store(true)
	code, got := postCount(t, coord.URL, countBody)
	if code != http.StatusOK || got.Status != server.StatusDone {
		t.Fatalf("query with node a down: code %d, %+v", code, got)
	}
	if got.Result.Count != want.Result.Count || !reflect.DeepEqual(got.Result.PerPattern, want.Result.PerPattern) {
		t.Fatalf("answer changed across failover: %+v != %+v", got.Result, want.Result)
	}
	if rewritten(got) != (countBody == morphBody) {
		t.Fatalf("stats.morphing = %+v for %s", got.Result.Stats.Morphing, countBody)
	}

	// /v1/coord records the failovers and the demoted preference.
	if failovers(t, coord.URL) == 0 {
		t.Fatalf("coordinator view records no failovers")
	}

	// Recovery: the node comes back and later queries still succeed
	// (the demoted preference keeps working from the survivor).
	a.down.Store(false)
	code, again := postCount(t, coord.URL, countBody)
	if code != http.StatusOK || again.Result.Count != want.Result.Count {
		t.Fatalf("post-recovery query: code %d, count %d != %d", code, again.Result.Count, want.Result.Count)
	}

	// Both nodes dead: the query fails loudly instead of undercounting.
	a.down.Store(true)
	b.down.Store(true)
	code, dead := postCount(t, coord.URL, countBody)
	if code == http.StatusOK || dead.Status == server.StatusDone {
		t.Fatalf("query with all nodes down reported success: code %d, %+v", code, dead)
	}
}

// A client that gives up on its query must stop the shard jobs it
// started: the coordinator threads the request's context into every
// outbound round trip, so each node sees the disconnect, and no
// replica is tried or demoted on the way out.
func TestCoordinatorCancelReachesNodes(t *testing.T) {
	// Sized for every send: each of testShards shards asks at most two
	// replicas, so no stub handler blocks on a send.
	arrived, cancelled := make(chan struct{}, 2*testShards), make(chan struct{}, 2*testShards)
	release := make(chan struct{})
	stub := func() string {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			// As a node does: a server watches for the peer hanging up
			// only once the request body is consumed.
			_, _ = io.Copy(io.Discard, r.Body)
			arrived <- struct{}{}
			select {
			case <-r.Context().Done():
				cancelled <- struct{}{}
			case <-release:
			}
		}))
		t.Cleanup(ts.Close)
		return ts.URL
	}
	coord := newTestCoordinator(t, stub(), stub())
	defer close(release) // before the servers close, so a failing test still drains

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, coord.URL+"/v1/query", strings.NewReader(countBody))
	if err != nil {
		t.Fatal(err)
	}
	client := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(hr)
		if err == nil {
			resp.Body.Close()
		}
		client <- err
	}()
	deadline, stop := context.WithTimeout(context.Background(), 5*time.Second)
	defer stop()
	for i := 0; i < testShards; i++ {
		select {
		case <-arrived:
		case <-deadline.Done():
			t.Fatalf("%d of %d shard jobs reached a node", i, testShards)
		}
	}
	cancel()
	for i := 0; i < testShards; i++ {
		select {
		case <-cancelled:
		case <-deadline.Done():
			t.Fatalf("%d of %d shard jobs saw the client's cancellation within 5s", i, testShards)
		}
	}
	if err := <-client; err == nil {
		t.Error("cancelled query returned a response")
	}
	if n := failovers(t, coord.URL); n != 0 {
		t.Errorf("cancellation recorded %d failovers, want 0", n)
	}
}

// TestCoordinatorRejects checks request validation: what only a
// coordinator refuses (non-count kinds, caller-set task ranges, wrong
// graph names), and what a node would refuse — which the coordinator,
// compiling the request as a node does, refuses itself, in the node's
// words, without a single node request.
func TestCoordinatorRejects(t *testing.T) {
	a, b := newTestNode(t), newTestNode(t)
	coord := newTestCoordinator(t, a.ts.URL, b.ts.URL)
	for _, tc := range []struct {
		name, body string
		code       int
	}{
		{"matches kind", `{"kind":"matches","pattern":"0-1","wait":true}`, http.StatusBadRequest},
		{"caller range", `{"kind":"count","pattern":"0-1","taskLo":3,"wait":true}`, http.StatusBadRequest},
		{"wrong graph", `{"graph":"other","kind":"count","pattern":"0-1","wait":true}`, http.StatusNotFound},
	} {
		if code, _ := postCount(t, coord.URL, tc.body); code != tc.code {
			t.Errorf("%s: code %d, want %d", tc.name, code, tc.code)
		}
	}
	if n := a.queries.Load() + b.queries.Load(); n != 0 {
		t.Errorf("the nodes saw %d requests for what the coordinator refuses itself", n)
	}
	// Clients cannot tell a coordinator from a node: both refuse these,
	// with the same words.
	for name, body := range map[string]string{
		"unparseable pattern":    `{"graph":"g","kind":"count","pattern":"0-1 1~2","wait":true}`,
		"unparseable in a list":  `{"graph":"g","kind":"count","patterns":["0-1","1-"],"vertexInduced":true,"wait":true}`,
		"disconnected pattern":   `{"graph":"g","kind":"count","pattern":"0-1 2-3","wait":true}`,
		"pattern and patterns":   `{"graph":"g","kind":"count","pattern":"0-1","patterns":["0-1 1-2"],"wait":true}`,
		"no pattern":             `{"graph":"g","kind":"count","wait":true}`,
		"stream on a count":      `{"graph":"g","kind":"count","pattern":"0-1","stream":true}`,
		"malformed, wrong graph": `{"graph":"other","kind":"count","pattern":"0-1 2-3","wait":true}`,
		"misspelt field":         misspeltBody,
	} {
		before := a.queries.Load()
		nodeCode, node := postCount(t, a.ts.URL, body)
		if a.queries.Load() != before+1 {
			t.Fatalf("%s: the direct request did not reach the node", name)
		}
		before = a.queries.Load() + b.queries.Load()
		code, got := postCount(t, coord.URL, body)
		if code != http.StatusBadRequest || nodeCode != http.StatusBadRequest {
			t.Errorf("%s: coordinator %d, node %d, want 400 from both", name, code, nodeCode)
		}
		if got.Error == "" || got.Error != node.Error {
			t.Errorf("%s: coordinator says %q, a node %q", name, got.Error, node.Error)
		}
		if n := a.queries.Load() + b.queries.Load() - before; n != 0 {
			t.Errorf("%s: the nodes saw %d requests, want 0", name, n)
		}
	}
	if n := failovers(t, coord.URL); n != 0 {
		t.Errorf("a client error counted %d failovers", n)
	}
}

// TestCoordinatorRefusesWrongParts: a replica that answers for another
// task range, or with another number of per-pattern rows, has failed —
// the shard fails over to a good replica, and with none left the query
// is an error, never a short sum.
func TestCoordinatorRefusesWrongParts(t *testing.T) {
	t.Run("as given", func(t *testing.T) { testRefusesWrongParts(t, countBody) })
	// A rewritten batch is recovered from the per-pattern sums: a part
	// short of a row would be a short sum before recovery.
	t.Run("rewritten", func(t *testing.T) { testRefusesWrongParts(t, morphBody) })
}

func testRefusesWrongParts(t *testing.T, countBody string) {
	good := newTestNode(t)
	_, want := postCount(t, good.ts.URL, `{"graph":"g",`+countBody[1:])
	for name, mutate := range map[string]func(*server.JobInfo){
		"wrong range":         func(info *server.JobInfo) { info.Request.TaskLo++ },
		"wrong pattern count": func(info *server.JobInfo) { info.Result.PerPattern = info.Result.PerPattern[:1] },
	} {
		stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			info := server.JobInfo{Status: server.StatusDone, Result: &server.Result{Count: 1}}
			if err := json.NewDecoder(r.Body).Decode(&info.Request); err != nil {
				t.Error(err)
			}
			for _, p := range info.Request.Patterns {
				info.Result.PerPattern = append(info.Result.PerPattern, server.PatternCount{Pattern: p, Count: 1})
			}
			mutate(&info)
			_ = json.NewEncoder(w).Encode(info)
		}))
		t.Cleanup(stub.Close)
		code, got := postCount(t, newTestCoordinator(t, stub.URL, good.ts.URL).URL, countBody)
		if code != http.StatusOK || got.Result.Count != want.Result.Count || !reflect.DeepEqual(got.Result.PerPattern, want.Result.PerPattern) {
			t.Errorf("%s beside a good replica: code %d, %+v; want the good node's %+v", name, code, got.Result, want.Result)
		}
		if rewritten(got) != (countBody == morphBody) {
			t.Errorf("%s: stats.morphing = %+v for %s", name, got.Result.Stats.Morphing, countBody)
		}
		if code, got := postCount(t, newTestCoordinator(t, stub.URL).URL, countBody); code != http.StatusBadGateway || got.Result != nil {
			t.Errorf("%s with no other replica: code %d, result %+v; want 502 and no result", name, code, got.Result)
		}
	}
}

// TestCoordinatorMorphsAboveFanout runs requests through a 3-shard,
// 2-node fleet with uneven ranges and checks every answer against the
// brute-force oracle: the coordinator rewrites a batch exactly where
// the library's PlanCount does with no graph at hand (the cost model's
// sparse default, not the fleet's graph), the nodes receive the executed
// set as plain pattern text over their shard's range, and the answer
// names the requested patterns with the recovered counts.
func TestCoordinatorMorphsAboveFanout(t *testing.T) {
	g := gen.ErdosRenyi(gen.ERConfig{Vertices: 48, Edges: 110, Seed: 11, Labels: 2})
	a, b := newTestNodeOn(t, g, 3), newTestNodeOn(t, g, 3)
	ranges := []Range{{0, 5}, {5, 29}, {29, 48}}
	c, err := New(Config{Graph: "g", Shards: Assign(ranges, []string{a.ts.URL, b.ts.URL}, 0)})
	if err != nil {
		t.Fatal(err)
	}
	coord := httptest.NewServer(c.Handler())
	t.Cleanup(coord.Close)

	var small, labeled []*pattern.Pattern
	for size := 2; size <= 4; size++ {
		for _, p := range pattern.GenerateAllVertexInduced(size) {
			small = append(small, p)
			l := p.Clone()
			l.SetLabel(0, 0)
			l.SetLabel(p.N()-1, 1)
			labeled = append(labeled, l)
		}
	}
	five := pattern.GenerateAllVertexInduced(5)
	five = []*pattern.Pattern{five[0], five[len(five)/2], five[len(five)-1]}
	star, path := pattern.Star(4), pattern.Chain(4)

	type tcase struct {
		name   string
		pats   []*pattern.Pattern
		vi     bool
		noSym  bool
		single bool // the "pattern" form
		morphs bool // the cost model rewrites it: must not pass vacuously
	}
	cases := []tcase{
		{name: "all up to 4 vertices", pats: small, vi: true, morphs: true},
		{name: "labeled mix", pats: labeled, vi: true, morphs: true},
		{name: "5-vertex sample", pats: five, vi: true, morphs: true},
		{name: "one pattern twice", pats: []*pattern.Pattern{star, path, star}, vi: true, morphs: true},
		{name: "single pattern form", pats: []*pattern.Pattern{star}, vi: true, single: true, morphs: true},
		{name: "no symmetry breaking", pats: []*pattern.Pattern{star, path}, vi: true, noSym: true},
		{name: "edge-induced", pats: []*pattern.Pattern{star, path}},
	}
	for _, p := range small {
		cases = append(cases, tcase{name: "alone " + p.String(), pats: []*pattern.Pattern{p}, vi: true})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req := server.Request{Kind: server.KindCount, VertexInduced: tc.vi, NoSymmetryBreaking: tc.noSym, Wait: true}
			var opts []peregrine.Option
			if tc.noSym {
				opts = append(opts, peregrine.WithoutSymmetryBreaking())
			}
			effective := make([]*pattern.Pattern, len(tc.pats))
			var want []server.PatternCount
			var total uint64
			for i, p := range tc.pats {
				effective[i] = p
				if tc.vi {
					effective[i] = pattern.VertexInduced(p)
				}
				n := ref.CountUnique(g, effective[i])
				if tc.noSym {
					n = ref.CountAll(g, effective[i])
				}
				want = append(want, server.PatternCount{Pattern: p.String(), Count: n})
				total += n
				req.Patterns = append(req.Patterns, p.String())
			}
			if tc.single {
				req.Pattern, req.Patterns, want = req.Patterns[0], nil, nil
			}
			body, err := json.Marshal(req)
			if err != nil {
				t.Fatal(err)
			}
			a.received()
			b.received()
			code, got := postCount(t, coord.URL, string(body))
			if code != http.StatusOK || got.Status != server.StatusDone {
				t.Fatalf("code %d, %+v", code, got)
			}
			if got.Result.Count != total || !reflect.DeepEqual(got.Result.PerPattern, want) {
				t.Errorf("answer %d %+v, oracle %d %+v", got.Result.Count, got.Result.PerPattern, total, want)
			}
			if got.Result.Stats.Matches != total {
				t.Errorf("stats.matches = %d, want the recovered total %d", got.Result.Stats.Matches, total)
			}
			if !reflect.DeepEqual(got.Request.Patterns, req.Patterns) || got.Request.Pattern != req.Pattern || got.Request.VertexInduced != tc.vi {
				t.Errorf("answer echoes request %+v, sent %+v", got.Request, req)
			}

			// Rewritten exactly where the library plans without a graph.
			q, err := peregrine.PrepareWith(opts, effective...)
			if err != nil {
				t.Fatal(err)
			}
			cp, err := peregrine.PlanCount([]*peregrine.PreparedQuery{q})
			if err != nil {
				t.Fatal(err)
			}
			_, planned := cp.Finish(peregrine.MultiStats{Per: make([]peregrine.Stats, len(cp.Executed()))})
			if rewritten(got) != cp.Rewritten() {
				t.Fatalf("coordinator stats.morphing %+v, library plan rewritten=%v", got.Result.Stats.Morphing, cp.Rewritten())
			}
			if rewritten(got) && *got.Result.Stats.Morphing != planned.Morph {
				t.Errorf("stats.morphing = %+v, want the one plan's %+v (not a per-shard sum)", *got.Result.Stats.Morphing, planned.Morph)
			}

			if tc.morphs && !rewritten(got) {
				t.Errorf("not rewritten: the case checks nothing about the rewrite")
			}
			// What the nodes were asked: one request per range, all for the
			// same pattern list.
			bodies := append(a.received(), b.received()...)
			if len(bodies) != len(ranges) {
				t.Fatalf("the nodes saw %d requests, want one per range (%d)", len(bodies), len(ranges))
			}
			seen := make(map[Range]bool)
			for _, raw := range bodies {
				var sub server.Request
				var keys map[string]json.RawMessage
				if err := json.Unmarshal(raw, &sub); err != nil {
					t.Fatal(err)
				}
				if err := json.Unmarshal(raw, &keys); err != nil {
					t.Fatal(err)
				}
				seen[Range{sub.TaskLo, sub.TaskHi}] = true
				if !sub.Wait || sub.Graph != "g" || sub.NoSymmetryBreaking != tc.noSym {
					t.Errorf("node request %s", raw)
				}
				if !rewritten(got) {
					if sub.Pattern != req.Pattern || !reflect.DeepEqual(sub.Patterns, req.Patterns) || sub.VertexInduced != tc.vi {
						t.Errorf("a batch left alone went out changed: %s", raw)
					}
					continue
				}
				if _, ok := keys["vertexInduced"]; ok || sub.Pattern != "" {
					t.Errorf("rewritten node request carries vertexInduced or pattern: %s", raw)
				}
				if codes, want := canonicalCodes(t, sub.Patterns), canonicalCodesOf(cp.Executed()); !reflect.DeepEqual(codes, want) {
					t.Errorf("node request patterns %v are not the executed set %v", sub.Patterns, cp.Executed())
				}
			}
			for _, r := range ranges {
				if !seen[r] {
					t.Errorf("no node request for range [%d,%d): saw %v", r.Lo, r.Hi, seen)
				}
			}
		})
	}
}

// A node counting vertex-induced 5-motifs over its whole graph decomposes
// some of their relatives at a vertex cut; the coordinator, which plans
// with no graph and fans out by range, never does. Their counts must
// agree, pattern by pattern.
func TestCoordinatorVI5MotifsMatchSingleNode(t *testing.T) {
	a, b := newTestNode(t), newTestNode(t)
	coord := newTestCoordinator(t, a.ts.URL, b.ts.URL)
	req := server.Request{Kind: server.KindCount, VertexInduced: true, Wait: true}
	for _, p := range pattern.GenerateAllVertexInduced(5) {
		req.Patterns = append(req.Patterns, p.String())
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	code, got := postCount(t, coord.URL, string(body))
	if code != http.StatusOK || got.Status != server.StatusDone {
		t.Fatalf("coordinator: code %d, %+v", code, got)
	}
	req.Graph = "g"
	nodeBody, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	code, single := postCount(t, a.ts.URL, string(nodeBody))
	if code != http.StatusOK || single.Status != server.StatusDone {
		t.Fatalf("node: code %d, %+v", code, single)
	}
	if m := single.Result.Stats.Morphing; m == nil || m.Decomposed == 0 {
		t.Errorf("the node's whole-graph count decomposed nothing: %+v", m)
	}
	if m := got.Result.Stats.Morphing; m == nil || m.Decomposed != 0 {
		t.Errorf("the coordinator's rewrite: %+v, want morphing without decomposition", m)
	}
	if !reflect.DeepEqual(got.Result.PerPattern, single.Result.PerPattern) || got.Result.Count != single.Result.Count {
		t.Errorf("coordinator %d %+v\nsingle node %d %+v", got.Result.Count, got.Result.PerPattern, single.Result.Count, single.Result.PerPattern)
	}
}

// canonicalCodes parses pattern texts and returns their sorted canonical
// codes: the set they spell, whatever the vertex numbering.
func canonicalCodes(t *testing.T, texts []string) []string {
	t.Helper()
	pats := make([]*pattern.Pattern, len(texts))
	for i, text := range texts {
		p, err := pattern.Parse(text)
		if err != nil {
			t.Fatalf("pattern %q: %v", text, err)
		}
		pats[i] = p
	}
	return canonicalCodesOf(pats)
}

func canonicalCodesOf(pats []*pattern.Pattern) []string {
	codes := make([]string, len(pats))
	for i, p := range pats {
		codes[i] = p.CanonicalCode()
	}
	sort.Strings(codes)
	return codes
}

// failovers sums the per-shard failover counts GET /v1/coord reports.
func failovers(t *testing.T, coordURL string) (n uint64) {
	t.Helper()
	resp, err := http.Get(coordURL + "/v1/coord")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var view struct {
		Shards []struct {
			Failovers uint64 `json:"failovers"`
		} `json:"shards"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	for _, sh := range view.Shards {
		n += sh.Failovers
	}
	return n
}

// TestCoordinatorStats checks the fleet-summed /v1/stats still decodes
// as one node's flat ServerStats.
func TestCoordinatorStats(t *testing.T) {
	a, b := newTestNode(t), newTestNode(t)
	coord := newTestCoordinator(t, a.ts.URL, b.ts.URL)
	if code, info := postCount(t, coord.URL, countBody); code != http.StatusOK || info.Status != server.StatusDone {
		t.Fatalf("query: code %d, %+v", code, info)
	}
	fleetStats := func() (st server.ServerStats) {
		resp, err := http.Get(coord.URL + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatalf("merged stats do not decode as ServerStats: %v", err)
		}
		return st
	}
	st := fleetStats()
	if st.GraphsRegistered != 2 {
		t.Errorf("summed graphsRegistered = %d, want 2 (one per node)", st.GraphsRegistered)
	}
	if st.MorphRuns != 0 {
		t.Errorf("morphRuns = %d after an edge-induced query, want 0", st.MorphRuns)
	}

	// The fleet's rewrites happen at the coordinator — the nodes' ranged
	// runs never morph — so its own tallies are what the morph* keys show.
	_, info := postCount(t, coord.URL, morphBody)
	if !rewritten(info) {
		t.Fatalf("vertex-induced pair not rewritten: %+v", info.Result)
	}
	st, m := fleetStats(), info.Result.Stats.Morphing
	if st.MorphRuns != 1 || st.MorphPatternsReplaced != m.PatternsReplaced ||
		st.MorphStepsDirect != m.StepsDirect || st.MorphStepsMorphed != m.StepsMorphed {
		t.Errorf("fleet stats %+v after one rewritten query with %+v", st, m)
	}
}

func TestAssignAndSplit(t *testing.T) {
	ranges := SplitRange(100, 4)
	if len(ranges) != 4 || ranges[0].Lo != 0 || ranges[3].Hi != 100 {
		t.Fatalf("SplitRange: %+v", ranges)
	}
	for i := 1; i < len(ranges); i++ {
		if ranges[i].Lo != ranges[i-1].Hi {
			t.Fatalf("SplitRange not contiguous: %+v", ranges)
		}
	}
	if got := SplitRange(3, 10); len(got) != 3 {
		t.Fatalf("SplitRange(3,10) = %+v, want one range per vertex", got)
	}
	specs := Assign(ranges, []string{"a", "b"}, 2)
	for i, sp := range specs {
		if len(sp.Nodes) != 2 {
			t.Fatalf("shard %d has %d nodes, want 2", i, len(sp.Nodes))
		}
		want := []string{"a", "b"}
		if i%2 == 1 {
			want = []string{"b", "a"}
		}
		if sp.Nodes[0] != want[0] || sp.Nodes[1] != want[1] {
			t.Errorf("shard %d nodes %v, want %v", i, sp.Nodes, want)
		}
	}
	if _, err := New(Config{Graph: "g", Shards: []ShardSpec{
		{Lo: 0, Hi: 10, Nodes: []string{"a"}},
		{Lo: 5, Hi: 20, Nodes: []string{"a"}},
	}}); err == nil {
		t.Fatalf("New accepted overlapping shards")
	}
	if _, err := New(Config{Graph: "g"}); err == nil {
		t.Fatalf("New accepted empty shard list")
	}
}
