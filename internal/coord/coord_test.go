package coord

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"peregrine/internal/gen"
	"peregrine/internal/graph"
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
}

func newTestNode(t *testing.T) *testNode {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	manifest := filepath.Join(t.TempDir(), "g.manifest")
	g := gen.ErdosRenyi(gen.ERConfig{Vertices: 80, Edges: 220, Seed: 3})
	if _, err := graph.SaveSharded(manifest, g, testShards); err != nil {
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
	a, b := newTestNode(t), newTestNode(t)
	coord := newTestCoordinator(t, a.ts.URL, b.ts.URL)

	code, want := postCount(t, coord.URL, countBody)
	if code != http.StatusOK || want.Status != server.StatusDone {
		t.Fatalf("healthy query: code %d, %+v", code, want)
	}

	a.down.Store(true)
	code, got := postCount(t, coord.URL, countBody)
	if code != http.StatusOK || got.Status != server.StatusDone {
		t.Fatalf("query with node a down: code %d, %+v", code, got)
	}
	if got.Result.Count != want.Result.Count {
		t.Fatalf("count changed across failover: %d != %d", got.Result.Count, want.Result.Count)
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

// TestCoordinatorRejects checks request validation: non-count kinds,
// caller-set task ranges, wrong graph names — and a request only the
// nodes can refuse (a disconnected pattern), which must come back as
// the node's 400 after one request per shard, not as a 502 after every
// replica was tried and demoted.
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
		{"disconnected pattern", `{"kind":"count","pattern":"0-1 2-3","wait":true}`, http.StatusBadRequest},
		{"misspelt field", misspeltBody, http.StatusBadRequest},
	} {
		resp, err := http.Post(coord.URL+"/v1/query", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.code {
			t.Errorf("%s: code %d, want %d", tc.name, resp.StatusCode, tc.code)
		}
	}
	if n := a.queries.Load() + b.queries.Load(); n > testShards {
		t.Errorf("the nodes saw %d requests, want at most one per shard (%d)", n, testShards)
	}
	if n := failovers(t, coord.URL); n != 0 {
		t.Errorf("a client error counted %d failovers", n)
	}
	// Clients cannot tell a coordinator from a node: the node refuses the
	// misspelt body the same way.
	resp, err := http.Post(a.ts.URL+"/v1/query", "application/json", strings.NewReader(misspeltBody))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("node: misspelt field: code %d, want 400", resp.StatusCode)
	}
}

// TestCoordinatorRefusesWrongParts: a replica that answers for another
// task range, or with another number of per-pattern rows, has failed —
// the shard fails over to a good replica, and with none left the query
// is an error, never a short sum.
func TestCoordinatorRefusesWrongParts(t *testing.T) {
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
		if code != http.StatusOK || got.Result.Count != want.Result.Count {
			t.Errorf("%s beside a good replica: code %d, %+v; want the good node's count %d", name, code, got.Result, want.Result.Count)
		}
		if code, got := postCount(t, newTestCoordinator(t, stub.URL).URL, countBody); code != http.StatusBadGateway || got.Result != nil {
			t.Errorf("%s with no other replica: code %d, result %+v; want 502 and no result", name, code, got.Result)
		}
	}
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
	resp, err := http.Get(coord.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st server.ServerStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("merged stats do not decode as ServerStats: %v", err)
	}
	if st.GraphsRegistered != 2 {
		t.Errorf("summed graphsRegistered = %d, want 2 (one per node)", st.GraphsRegistered)
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
