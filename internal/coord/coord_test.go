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
	ts   *httptest.Server
	down atomic.Bool
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

// newTestCoordinator builds a coordinator over the nodes with 4 shards
// and full replication, served by its own httptest server.
func newTestCoordinator(t *testing.T, nodes ...*testNode) *httptest.Server {
	t.Helper()
	urls := make([]string, len(nodes))
	for i, n := range nodes {
		urls[i] = n.ts.URL
	}
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

const countBody = `{"kind":"count","patterns":["0-1 1-2 2-0","0-1 0-2 0-3"],"wait":true}`

// TestCoordinatorMergesCounts fans a two-pattern count across 4 shards
// on 2 nodes and checks the merged counts are byte-identical to one
// node mining the whole graph.
func TestCoordinatorMergesCounts(t *testing.T) {
	a, b := newTestNode(t), newTestNode(t)
	coord := newTestCoordinator(t, a, b)

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
	// (the manifest's shard count, the trie's shape) read as on one node
	// rather than times the number of shard jobs, while run-time counters
	// still sum to the whole-graph run's.
	ws, gs := want.Result.Stats, got.Result.Stats
	if gs.Sharding == nil || gs.Sharding.Shards != testShards {
		t.Fatalf("merged sharding %+v: want shards == %d, the manifest's", gs.Sharding, testShards)
	}
	if gs.Sharding.ResidentBytes > ws.Sharding.ResidentBytes {
		t.Errorf("merged residentBytes %d exceeds one node's fully resident %d",
			gs.Sharding.ResidentBytes, ws.Sharding.ResidentBytes)
	}
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
		"sharding.evictions", "sharding.loads", "sharding.residentBytes", "sharding.shards",
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
	coord := newTestCoordinator(t, a, b)

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
	resp, err := http.Get(coord.URL + "/v1/coord")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var view struct {
		Graph  string `json:"graph"`
		Shards []struct {
			Lo        uint32   `json:"lo"`
			Hi        uint32   `json:"hi"`
			Nodes     []string `json:"nodes"`
			Failovers uint64   `json:"failovers"`
		} `json:"shards"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	var failovers uint64
	for _, sh := range view.Shards {
		failovers += sh.Failovers
	}
	if failovers == 0 {
		t.Fatalf("coordinator view %+v records no failovers", view)
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
// caller-set task ranges, wrong graph names.
func TestCoordinatorRejects(t *testing.T) {
	a := newTestNode(t)
	coord := newTestCoordinator(t, a)
	for _, tc := range []struct {
		name, body string
		code       int
	}{
		{"matches kind", `{"kind":"matches","pattern":"0-1","wait":true}`, http.StatusBadRequest},
		{"caller range", `{"kind":"count","pattern":"0-1","taskLo":3,"wait":true}`, http.StatusBadRequest},
		{"wrong graph", `{"graph":"other","kind":"count","pattern":"0-1","wait":true}`, http.StatusNotFound},
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
}

// TestCoordinatorStats checks the fleet-summed /v1/stats still decodes
// as one node's flat ServerStats.
func TestCoordinatorStats(t *testing.T) {
	a, b := newTestNode(t), newTestNode(t)
	coord := newTestCoordinator(t, a, b)
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
