package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"peregrine/internal/gen"
	"peregrine/internal/graph"
)

// shardedFixture writes a sharded copy of a seeded random graph and
// registers both forms: "whole" in memory and "sharded" behind its
// manifest file source, g.manifest with fragments g.shard<i>.pgr in dir.
func shardedFixture(t *testing.T) (reg *Registry, g *graph.Graph, dir string) {
	t.Helper()
	g = gen.ErdosRenyi(gen.ERConfig{Vertices: 96, Edges: 260, Seed: 9})
	path := filepath.Join(t.TempDir(), "g.manifest")
	if _, err := graph.SaveSharded(path, g, 4); err != nil {
		t.Fatalf("SaveSharded: %v", err)
	}
	reg = NewRegistry()
	reg.AddGraph("whole", "test:whole", g)
	reg.AddFile("sharded", path)
	return reg, g, filepath.Dir(path)
}

func newShardTestServer(t *testing.T) (*Server, *httptest.Server, string) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	reg, _, dir := shardedFixture(t)
	s := NewServer(ctx, reg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts, dir
}

// TestShardedGraphQueries checks that a manifest-registered graph
// serves counts identical to its whole in-memory twin — after a first
// query that fails, typed, because a fragment file is missing, and
// succeeds unchanged once the file is back — and shows up whole in the
// listing and the stats.
func TestShardedGraphQueries(t *testing.T) {
	s, ts, dir := newShardTestServer(t)
	body := `{"graph":%q,"kind":"count","pattern":"0-1 1-2 2-0","wait":true}`
	code, whole := postQuery(t, ts, fmt.Sprintf(body, "whole"))
	if code != http.StatusOK || whole.Status != StatusDone {
		t.Fatalf("whole query: code %d, %+v", code, whole)
	}

	// A load that cannot map every fragment is the job's error; nothing
	// is cached or left pinned, so the next query retries the load.
	frag := filepath.Join(dir, "g.shard2.pgr")
	if err := os.Rename(frag, frag+".away"); err != nil {
		t.Fatal(err)
	}
	code, failed := postQuery(t, ts, fmt.Sprintf(body, "sharded"))
	if code != http.StatusOK || failed.Status != StatusFailed || !strings.Contains(failed.Error, "no such file") {
		t.Fatalf("query with a fragment missing: code %d, %+v; want a failed job naming the file error", code, failed)
	}
	if _, loaded, pinned, _ := s.registry.Counters(); loaded != 1 || pinned != 0 {
		t.Fatalf("after the failed load: %d graphs loaded, %d pinned; want only the memory graph, unpinned", loaded, pinned)
	}
	if err := os.Rename(frag+".away", frag); err != nil {
		t.Fatal(err)
	}
	code, sharded := postQuery(t, ts, fmt.Sprintf(body, "sharded"))
	if code != http.StatusOK || sharded.Status != StatusDone {
		t.Fatalf("sharded query with the file restored: code %d, %+v", code, sharded)
	}
	if whole.Result.Count != sharded.Result.Count {
		t.Fatalf("counts differ: whole %d, sharded %d", whole.Result.Count, sharded.Result.Count)
	}

	// GET /v1/graphs: the sharded entry is one loaded graph charged its
	// fragments' bytes.
	resp, err := http.Get(ts.URL + "/v1/graphs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list []GraphInfo
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, gi := range list {
		if gi.Name != "sharded" {
			if gi.Shards != 0 {
				t.Errorf("non-sharded %q lists %d shards", gi.Name, gi.Shards)
			}
			continue
		}
		found = true
		if !gi.Loaded || gi.Shards != 4 || gi.Bytes == 0 {
			t.Errorf("sharded listing %+v: want loaded with 4 shards and their bytes", gi)
		}
	}
	if !found {
		t.Fatalf("sharded graph missing from listing")
	}

	// GET /v1/stats: the one successful load mapped four fragments.
	stResp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer stResp.Body.Close()
	var st ServerStats
	if err := json.NewDecoder(stResp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.ShardsTotal != 4 || st.ShardLoads != 4 || st.ShardEvictions != 0 {
		t.Errorf("server stats %+v: want 4 shards, 4 loads, no evictions", st)
	}
}

// TestShardedUnloadedListing checks the manifest probe: before any
// query loads the graph, the listing already knows its shard count and
// metadata from the manifest alone.
func TestShardedUnloadedListing(t *testing.T) {
	reg, g, _ := shardedFixture(t)
	for _, gi := range reg.List() {
		if gi.Name != "sharded" {
			continue
		}
		if gi.Loaded {
			t.Fatalf("sharded graph loaded before any query")
		}
		if gi.Shards != 4 {
			t.Errorf("unloaded listing shards = %d, want 4", gi.Shards)
		}
		if gi.Vertices != g.NumVertices() || gi.Edges != g.NumEdges() {
			t.Errorf("unloaded listing %+v disagrees with graph stat", gi)
		}
		return
	}
	t.Fatalf("sharded graph missing from listing")
}

// TestTaskRangeQueries checks the HTTP task-range contract: disjoint
// ranges sum to the whole count, ranged requests skip coalescing and
// morphing, and invalid or unsupported ranges are rejected.
func TestTaskRangeQueries(t *testing.T) {
	_, ts, _ := newShardTestServer(t)
	code, whole := postQuery(t, ts,
		`{"graph":"whole","kind":"count","pattern":"0-1 1-2 2-0","wait":true}`)
	if code != http.StatusOK || whole.Status != StatusDone {
		t.Fatalf("whole query: code %d, %+v", code, whole)
	}
	var sum uint64
	for _, r := range [][2]uint32{{0, 31}, {31, 70}, {70, 0}} {
		body := fmt.Sprintf(
			`{"graph":"whole","kind":"count","pattern":"0-1 1-2 2-0","taskLo":%d,"taskHi":%d,"wait":true}`,
			r[0], r[1])
		code, part := postQuery(t, ts, body)
		if code != http.StatusOK || part.Status != StatusDone {
			t.Fatalf("range %v: code %d, %+v", r, code, part)
		}
		if part.Result.Stats != nil && part.Result.Stats.Coalescing != nil {
			t.Errorf("range %v: task-ranged request was coalesced", r)
		}
		if part.Result.Stats != nil && part.Result.Stats.Morphing != nil {
			t.Errorf("range %v: task-ranged request was morphed", r)
		}
		sum += part.Result.Count
	}
	if sum != whole.Result.Count {
		t.Fatalf("ranged counts sum to %d, whole = %d", sum, whole.Result.Count)
	}

	// Bad ranges and unsupported kinds are client errors.
	if code, _ := postQuery(t, ts,
		`{"graph":"whole","kind":"count","pattern":"0-1","taskLo":5,"taskHi":5,"wait":true}`); code != http.StatusBadRequest {
		t.Errorf("empty range accepted with code %d", code)
	}
	if code, _ := postQuery(t, ts,
		`{"graph":"whole","kind":"fsm","maxEdges":2,"support":1,"taskLo":1,"wait":true}`); code != http.StatusBadRequest {
		t.Errorf("fsm task range accepted with code %d", code)
	}
}
