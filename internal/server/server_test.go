package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"peregrine/internal/gen"
	"peregrine/internal/graph"
)

// triangleGraph has exactly n triangles: n disjoint 3-cliques.
func triangleGraph(n int) *graph.Graph {
	b := graph.NewBuilder()
	for i := uint32(0); i < uint32(n); i++ {
		base := 3 * i
		b.AddEdge(base, base+1)
		b.AddEdge(base+1, base+2)
		b.AddEdge(base+2, base)
	}
	return b.Build()
}

// labeledPath is a labeled 4-path for fsm queries.
func labeledPath() *graph.Graph {
	b := graph.NewBuilder()
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	for v := uint32(0); v < 4; v++ {
		b.SetLabel(v, v%2)
	}
	return b.Build()
}

func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	reg := NewRegistry()
	reg.AddGraph("tri2", "test:tri2", triangleGraph(2))
	reg.AddGraph("tri5", "test:tri5", triangleGraph(5))
	reg.AddGraph("labeled", "test:labeled", labeledPath())
	reg.AddGraph("dense", "test:dense", gen.Standard(gen.OrkutLite, 1))
	s := NewServer(ctx, reg)
	ts := httptest.NewServer(s.Handler())
	// Every server test doubles as a pin-leak check: once the server is
	// shut down and its jobs have ended, no graph may still be pinned.
	t.Cleanup(func() {
		ts.Close()
		cancel()
		for _, sum := range s.Jobs().List() {
			if job, ok := s.Jobs().Get(sum.ID); ok {
				<-job.Done()
			}
		}
		// A batch whose members all detached has no job left to wait on;
		// its cancelled run unpins within a scheduling quantum.
		deadline := time.Now().Add(5 * time.Second)
		for s.Stats().GraphsPinned != 0 {
			if time.Now().After(deadline) {
				t.Errorf("%d graphs still pinned after shutdown: %+v", s.Stats().GraphsPinned, reg.List())
				return
			}
			time.Sleep(time.Millisecond)
		}
	})
	return s, ts
}

func postQuery(t *testing.T, ts *httptest.Server, body string) (int, JobInfo) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/query", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	var info JobInfo
	if err := json.Unmarshal(buf.Bytes(), &info); err != nil && resp.StatusCode < 400 {
		t.Fatalf("decoding %q: %v", buf.String(), err)
	}
	return resp.StatusCode, info
}

func getJob(t *testing.T, ts *httptest.Server, id string) (int, JobInfo) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var info JobInfo
	_ = json.NewDecoder(resp.Body).Decode(&info)
	return resp.StatusCode, info
}

func deleteJob(t *testing.T, ts *httptest.Server, id string) (int, JobInfo) {
	t.Helper()
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var info JobInfo
	_ = json.NewDecoder(resp.Body).Decode(&info)
	return resp.StatusCode, info
}

// runAsync submits body without wait and polls the job to a terminal
// state — the way to hold a finished job: a waited one is not retained.
func runAsync(t *testing.T, ts *httptest.Server, body string) JobInfo {
	t.Helper()
	code, info := postQuery(t, ts, body)
	if code != http.StatusAccepted {
		t.Fatalf("async submit of %s: status %d, want 202", body, code)
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		code, cur := getJob(t, ts, info.ID)
		if code != http.StatusOK {
			t.Fatalf("poll %s: status %d", info.ID, code)
		}
		if cur.Finished != nil {
			return cur
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %q after 10s", info.ID, cur.Status)
		}
	}
}

func TestCountQueryEndToEnd(t *testing.T) {
	_, ts := newTestServer(t)
	code, info := postQuery(t, ts, `{"graph":"tri5","kind":"count","pattern":"0-1 1-2 2-0","wait":true}`)
	if code != http.StatusOK {
		t.Fatalf("status = %d, want 200", code)
	}
	if info.Status != StatusDone {
		t.Fatalf("job status = %q (error %q), want done", info.Status, info.Error)
	}
	if info.Result == nil || info.Result.Count != 5 {
		t.Fatalf("count = %+v, want 5", info.Result)
	}
	if info.Result.Stats == nil || info.Result.Stats.Stopped {
		t.Errorf("stats = %+v, want present and not stopped", info.Result.Stats)
	}
}

func TestAsyncJobPolling(t *testing.T) {
	_, ts := newTestServer(t)
	code, info := postQuery(t, ts, `{"graph":"tri2","kind":"count","pattern":"0-1 1-2 2-0"}`)
	if code != http.StatusAccepted {
		t.Fatalf("status = %d, want 202", code)
	}
	if info.ID == "" {
		t.Fatal("no job id in async response")
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		code, cur := getJob(t, ts, info.ID)
		if code != http.StatusOK {
			t.Fatalf("poll status = %d", code)
		}
		if cur.Status == StatusDone {
			if cur.Result == nil || cur.Result.Count != 2 {
				t.Fatalf("count = %+v, want 2", cur.Result)
			}
			if cur.Finished == nil {
				t.Error("done job has no finished timestamp")
			}
			return
		}
		if cur.Status == StatusFailed || cur.Status == StatusCancelled {
			t.Fatalf("job ended %q: %s", cur.Status, cur.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job still %q after 10s", cur.Status)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestExistsAndMatchesQueries(t *testing.T) {
	_, ts := newTestServer(t)

	_, info := postQuery(t, ts, `{"graph":"tri2","kind":"exists","pattern":"0-1 1-2 2-0","wait":true}`)
	if info.Result == nil || info.Result.Exists == nil || !*info.Result.Exists {
		t.Errorf("triangle exists = %+v, want true", info.Result)
	}
	_, info = postQuery(t, ts, `{"graph":"tri2","kind":"exists","pattern":"0-1 0-2 0-3 1-2 1-3 2-3","wait":true}`)
	if info.Result == nil || info.Result.Exists == nil || *info.Result.Exists {
		t.Errorf("4-clique exists = %+v, want false", info.Result)
	}

	_, info = postQuery(t, ts, `{"graph":"tri5","kind":"matches","pattern":"0-1 1-2 2-0","maxMatches":3,"wait":true}`)
	if info.Status != StatusDone {
		t.Fatalf("matches job = %q: %s", info.Status, info.Error)
	}
	if info.Result == nil || len(info.Result.Matches) != 3 {
		t.Fatalf("matches = %+v, want exactly 3 mappings", info.Result)
	}
	for _, m := range info.Result.Matches {
		if len(m) != 3 {
			t.Errorf("mapping %v has %d vertices, want 3", m, len(m))
		}
	}
}

func TestFSMQuery(t *testing.T) {
	_, ts := newTestServer(t)
	_, info := postQuery(t, ts, `{"graph":"labeled","kind":"fsm","maxEdges":1,"support":1,"wait":true}`)
	if info.Status != StatusDone {
		t.Fatalf("fsm job = %q: %s", info.Status, info.Error)
	}
	if info.Result == nil || len(info.Result.Frequent) == 0 {
		t.Fatalf("fsm result = %+v, want frequent single-edge patterns", info.Result)
	}
	for _, fp := range info.Result.Frequent {
		if fp.Support < 1 || fp.Pattern == "" {
			t.Errorf("bad frequent pattern row %+v", fp)
		}
	}
}

// lateCancel is a context whose Err turns Canceled after a set number
// of nil answers, with a Done channel that never fires: it places a
// cancellation between two of a run's own context checks, exactly.
type lateCancel struct {
	context.Context
	nils atomic.Int32
}

func (c *lateCancel) Err() error {
	if c.nils.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// An fsm job uses the engine's Stopped flag like every other kind: a
// cancel that lands after the mine completed must not demote it, and a
// cancel that cut a level short must.
func TestFSMCancelAfterCompletionStaysDone(t *testing.T) {
	g := labeledPath()
	q, err := compile(Request{Graph: "labeled", Kind: KindFSM, MaxEdges: 2, Support: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := q.run(context.Background(), g)
	if err != nil || want.Count == 0 {
		t.Fatalf("uncancelled fsm = %+v, %v", want, err)
	}
	completedUnderCancel := false
	for nils := int32(0); nils <= 4; nils++ {
		ctx := &lateCancel{Context: context.Background()}
		ctx.nils.Store(nils)
		res, err := q.run(ctx, g)
		switch {
		case err != nil && !res.Stats.Stopped:
			t.Errorf("cancel after %d checks: %v for a mine that was not cut short", nils, err)
		case err == nil && (res.Stats.Stopped || res.Count != want.Count):
			t.Errorf("cancel after %d checks: reported done with stopped=%v count=%d, want %d", nils, res.Stats.Stopped, res.Count, want.Count)
		case err == nil && ctx.Err() != nil:
			completedUnderCancel = true
		}
	}
	if !completedUnderCancel {
		t.Error("no run completed with the cancellation already visible; the test does not reach the case it is for")
	}
}

// Concurrent queries against distinct graphs must not interfere: each
// graph has a different triangle count and every response must report
// its own graph's count.
func TestConcurrentQueriesDistinctGraphs(t *testing.T) {
	_, ts := newTestServer(t)
	want := map[string]uint64{"tri2": 2, "tri5": 5}
	var wg sync.WaitGroup
	errs := make(chan error, 40)
	for i := 0; i < 20; i++ {
		name := "tri2"
		if i%2 == 1 {
			name = "tri5"
		}
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			body := fmt.Sprintf(`{"graph":%q,"kind":"count","pattern":"0-1 1-2 2-0","wait":true}`, name)
			resp, err := http.Post(ts.URL+"/v1/query", "application/json", strings.NewReader(body))
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			var info JobInfo
			if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
				errs <- err
				return
			}
			if info.Status != StatusDone || info.Result == nil || info.Result.Count != want[name] {
				errs <- fmt.Errorf("%s: status=%q result=%+v, want count %d", name, info.Status, info.Result, want[name])
			}
		}(name)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// DELETE on a running job must observably stop its engine workers. The
// test holds them mid-mine: a streamed 7-star matches job on the dense
// graph, attached and then left unread after its first row, blocks its
// workers on the full stream, where only cancellation can release them.
func TestCancelMidMineStopsWorkers(t *testing.T) {
	s, ts := newTestServer(t)
	code, info := postQuery(t, ts,
		`{"graph":"dense","kind":"matches","pattern":"0-1 0-2 0-3 0-4 0-5 0-6","stream":true}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", code)
	}
	resp := openStream(t, ts, info.ID)
	defer resp.Body.Close()
	if !bufio.NewScanner(resp.Body).Scan() {
		t.Fatal("no first row: the job is not mining")
	}
	if _, cur := getJob(t, ts, info.ID); cur.Status != StatusRunning {
		t.Fatalf("status after the first row = %q, want running", cur.Status)
	}

	code, _ = deleteJob(t, ts, info.ID)
	if code != http.StatusOK {
		t.Fatalf("cancel status = %d, want 200", code)
	}

	job, ok := s.Jobs().Get(info.ID)
	if !ok {
		t.Fatal("job vanished from manager")
	}
	cancelAt := time.Now()
	select {
	case <-job.Done():
	case <-time.After(20 * time.Second):
		t.Fatal("workers did not stop within 20s of DELETE")
	}
	stopLatency := time.Since(cancelAt)

	_, final := getJob(t, ts, info.ID)
	if final.Status != StatusCancelled {
		t.Fatalf("final status = %q, want cancelled", final.Status)
	}
	if final.Result != nil && final.Result.Stats != nil && !final.Result.Stats.Stopped {
		t.Error("engine stats report a complete run after cancellation")
	}
	t.Logf("workers stopped %v after DELETE", stopLatency)
}

func TestErrorPaths(t *testing.T) {
	_, ts := newTestServer(t)
	cases := []struct {
		name string
		body string
		want int
	}{
		{"unknown graph", `{"graph":"nope","kind":"count","pattern":"0-1"}`, http.StatusNotFound},
		{"malformed pattern", `{"graph":"tri2","kind":"count","pattern":"0-1 1-"}`, http.StatusBadRequest},
		{"negative vertex", `{"graph":"tri2","kind":"count","pattern":"[-1:3]"}`, http.StatusBadRequest},
		{"disconnected pattern", `{"graph":"tri2","kind":"count","pattern":"0-1 2-3"}`, http.StatusBadRequest},
		{"missing pattern", `{"graph":"tri2","kind":"count"}`, http.StatusBadRequest},
		{"unknown kind", `{"graph":"tri2","kind":"blend","pattern":"0-1"}`, http.StatusBadRequest},
		{"bad fsm params", `{"graph":"labeled","kind":"fsm","maxEdges":0,"support":1}`, http.StatusBadRequest},
		{"bad json", `{"graph":`, http.StatusBadRequest},
		{"unknown field", `{"graph":"tri2","kind":"count","pattern":"0-1","bogus":1}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/v1/query", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Errorf("status = %d, want %d", resp.StatusCode, tc.want)
			}
			var e errorBody
			if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Error == "" {
				t.Errorf("error body missing: decode err %v, body %+v", err, e)
			}
		})
	}

	if code, _ := getJob(t, ts, "job-999"); code != http.StatusNotFound {
		t.Errorf("GET unknown job = %d, want 404", code)
	}
	if code, _ := deleteJob(t, ts, "job-999"); code != http.StatusNotFound {
		t.Errorf("DELETE unknown job = %d, want 404", code)
	}
}

func TestGraphsEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	// Query one graph first so exactly the queried graph reports loaded.
	postQuery(t, ts, `{"graph":"tri2","kind":"count","pattern":"0-1","wait":true}`)

	resp, err := http.Get(ts.URL + "/v1/graphs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var infos []GraphInfo
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		t.Fatal(err)
	}
	byName := make(map[string]GraphInfo)
	for _, gi := range infos {
		byName[gi.Name] = gi
	}
	for _, name := range []string{"tri2", "tri5", "labeled", "dense"} {
		if _, ok := byName[name]; !ok {
			t.Errorf("graph %q missing from listing", name)
		}
	}
	if gi := byName["tri2"]; !gi.Loaded || gi.Vertices != 6 || gi.Edges != 6 {
		t.Errorf("tri2 info = %+v, want loaded with 6 vertices / 6 edges", gi)
	}
}

// A transient load failure must not poison the graph name: the next
// query retries the load instead of replaying the cached error.
func TestRegistryRetriesFailedLoad(t *testing.T) {
	reg := NewRegistry()
	calls := 0
	reg.AddSource("flaky", graph.FuncSource("test:flaky", func() (*graph.Graph, error) {
		calls++
		if calls == 1 {
			return nil, fmt.Errorf("transient failure")
		}
		return triangleGraph(1), nil
	}))
	ran := false
	if err := reg.With("flaky", func(*graph.Graph) error { ran = true; return nil }); err == nil || ran {
		t.Fatalf("first With: err = %v, fn ran = %v; want the transient error and no call", err, ran)
	}
	err := reg.With("flaky", func(g *graph.Graph) error {
		if g.NumVertices() != 3 {
			t.Errorf("retried load returned wrong graph: %v", g)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("second With did not retry: %v", err)
	}
	if calls != 2 {
		t.Fatalf("load called %d times, want 2", calls)
	}
}

// Server shutdown (base context cancellation) aborts running jobs. The
// job is a streamed 7-star matches job on the dense graph that nobody
// reads: its workers block once the stream fills, so it cannot finish
// before the shutdown.
func TestShutdownCancelsJobs(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	reg := NewRegistry()
	reg.AddGraph("dense", "test:dense", gen.Standard(gen.OrkutLite, 1))
	s := NewServer(ctx, reg)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, info := postQuery(t, ts, `{"graph":"dense","kind":"matches","pattern":"0-1 0-2 0-3 0-4 0-5 0-6","stream":true}`)
	job, ok := s.Jobs().Get(info.ID)
	if !ok {
		t.Fatal("job not registered")
	}
	cancel()
	select {
	case <-job.Done():
	case <-time.After(20 * time.Second):
		t.Fatal("job survived server shutdown for 20s")
	}
	if got := job.Info().Status; got != StatusCancelled {
		t.Errorf("status after shutdown = %q, want cancelled", got)
	}
}

// A batched query over patterns with a common ordered-view prefix (a
// triangle and a 4-clique share their first core step) must surface the
// cross-pattern sharing telemetry in the job's status JSON, and an fsm
// job must not carry the field at all.
func TestJobStatsReportSharing(t *testing.T) {
	_, ts := newTestServer(t)
	code, info := postQuery(t, ts,
		`{"graph":"dense","kind":"count","patterns":["0-1 1-2 2-0","0-1 0-2 0-3 1-2 1-3 2-3"],"wait":true}`)
	if code != http.StatusOK || info.Status != StatusDone {
		t.Fatalf("status = %d / %q (%s)", code, info.Status, info.Error)
	}
	st := info.Result.Stats
	if st == nil || st.Sharing == nil {
		t.Fatalf("stats = %+v, want sharing telemetry", st)
	}
	sh := st.Sharing
	if sh.TrieNodes >= sh.ProgramSteps {
		t.Errorf("trie did not merge the shared prefix: %d nodes / %d steps", sh.TrieNodes, sh.ProgramSteps)
	}
	if sh.Intersections == 0 || sh.SharedNodeVisits == 0 || sh.IntersectionsSaved == 0 {
		t.Errorf("sharing counters empty: %+v", sh)
	}

	code, info = postQuery(t, ts, `{"graph":"labeled","kind":"fsm","maxEdges":1,"support":1,"wait":true}`)
	if code != http.StatusOK || info.Status != StatusDone {
		t.Fatalf("fsm status = %d / %q (%s)", code, info.Status, info.Error)
	}
	if info.Result.Stats == nil || info.Result.Stats.Sharing != nil {
		t.Errorf("fsm stats = %+v, want no sharing field", info.Result.Stats)
	}
}

// A count query with a pattern list reports per-pattern counts from a
// single batched traversal.
func TestBatchedCountPerPattern(t *testing.T) {
	_, ts := newTestServer(t)
	code, info := postQuery(t, ts,
		`{"graph":"tri5","kind":"count","patterns":["0-1 1-2 2-0","0-1 1-2"],"wait":true}`)
	if code != http.StatusOK || info.Status != StatusDone {
		t.Fatalf("status = %d / %q (%s)", code, info.Status, info.Error)
	}
	res := info.Result
	if res == nil || len(res.PerPattern) != 2 {
		t.Fatalf("perPattern = %+v, want 2 rows", res)
	}
	// tri5 is 5 disjoint triangles: 5 triangles, 3 wedges per triangle.
	if res.PerPattern[0].Count != 5 || res.PerPattern[1].Count != 15 {
		t.Errorf("perPattern counts = %+v, want 5 and 15", res.PerPattern)
	}
	if res.Count != 20 {
		t.Errorf("total count = %d, want 20", res.Count)
	}
	if res.Stats == nil || res.Stats.Tasks != 15 {
		// 5 triangles x 3 vertices: one task per vertex for the whole batch.
		t.Errorf("stats = %+v, want 15 tasks (single traversal)", res.Stats)
	}

	// A list of one still gets its per-pattern row — clients reading
	// perPattern never special-case the list's length — while the
	// string form keeps the original shape with no perPattern.
	code, info = postQuery(t, ts,
		`{"graph":"tri5","kind":"count","patterns":["0-1 1-2 2-0"],"wait":true}`)
	if code != http.StatusOK || info.Status != StatusDone {
		t.Fatalf("single-element list: status = %d / %q (%s)", code, info.Status, info.Error)
	}
	res = info.Result
	if res == nil || len(res.PerPattern) != 1 || res.PerPattern[0].Count != 5 {
		t.Fatalf("single-element list perPattern = %+v, want one row with count 5", res)
	}
	code, info = postQuery(t, ts,
		`{"graph":"tri5","kind":"count","pattern":"0-1 1-2 2-0","wait":true}`)
	if code != http.StatusOK || info.Result == nil || info.Result.PerPattern != nil {
		t.Fatalf("string form: code = %d, result = %+v, want no perPattern rows", code, info.Result)
	}
}

// noSymmetryBreaking requests must compile and execute unbroken plans:
// every automorphic variant of each match is enumerated.
func TestNoSymmetryBreakingCount(t *testing.T) {
	_, ts := newTestServer(t)
	code, info := postQuery(t, ts,
		`{"graph":"tri5","kind":"count","pattern":"0-1 1-2 2-0","noSymmetryBreaking":true,"wait":true}`)
	if code != http.StatusOK || info.Status != StatusDone {
		t.Fatalf("status = %d / %q (%s)", code, info.Status, info.Error)
	}
	// 5 triangles x 3! automorphisms.
	if info.Result == nil || info.Result.Count != 30 {
		t.Fatalf("unbroken triangle count = %+v, want 30", info.Result)
	}
}

// GET /v1/jobs returns light summaries (id, status, graph, kind), not
// full requests or buffered results.
func TestJobListingSummaries(t *testing.T) {
	_, ts := newTestServer(t)
	runAsync(t, ts, `{"graph":"tri2","kind":"count","pattern":"0-1 1-2 2-0"}`)
	runAsync(t, ts, `{"graph":"tri5","kind":"exists","pattern":"0-1"}`)

	resp, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var raw []map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		t.Fatal(err)
	}
	if len(raw) != 2 {
		t.Fatalf("listing has %d rows, want 2", len(raw))
	}
	for _, row := range raw {
		for _, key := range []string{"id", "status", "graph", "kind"} {
			if _, ok := row[key]; !ok {
				t.Errorf("listing row %v missing %q", row, key)
			}
		}
		for _, heavy := range []string{"result", "request"} {
			if _, ok := row[heavy]; ok {
				t.Errorf("listing row carries heavy field %q", heavy)
			}
		}
	}
	// Newest first.
	if raw[0]["graph"] != "tri5" || raw[1]["graph"] != "tri2" {
		t.Errorf("listing order = %v, %v; want tri5 then tri2", raw[0]["graph"], raw[1]["graph"])
	}
}

// Finished jobs are evicted after the manager's TTL; DELETE (cancel)
// still works before expiry.
func TestJobTTLEviction(t *testing.T) {
	s, ts := newTestServer(t)
	s.Jobs().SetTTL(100 * time.Millisecond)

	info := runAsync(t, ts, `{"graph":"tri2","kind":"count","pattern":"0-1 1-2 2-0"}`)
	if code, _ := deleteJob(t, ts, info.ID); code != http.StatusOK {
		t.Fatalf("DELETE before expiry = %d, want 200", code)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if code, _ := getJob(t, ts, info.ID); code == http.StatusNotFound {
			return // evicted
		}
		if time.Now().After(deadline) {
			t.Fatal("job not evicted 10s after its 100ms TTL")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// Expiry needs no timer and no further Submit: once its TTL has passed
// a finished job is 404 on GET, absent from the listing, and dropped
// from the manager's map by that very lookup.
func TestJobExpiresWithoutTimer(t *testing.T) {
	s, ts := newTestServer(t)
	m := s.Jobs()
	m.SetTTL(50 * time.Millisecond)

	info := runAsync(t, ts, `{"graph":"tri2","kind":"count","pattern":"0-1 1-2 2-0"}`)
	// The retention record is written just after the job turns terminal.
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		m.mu.Lock()
		recorded := len(m.finished) == 1
		m.mu.Unlock()
		if recorded {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("finished job never recorded for retention")
		}
	}
	time.Sleep(time.Until(info.Finished.Add(60 * time.Millisecond)))

	if code, _ := getJob(t, ts, info.ID); code != http.StatusNotFound {
		t.Fatalf("GET after the TTL = %d, want 404", code)
	}
	if rows := m.List(); len(rows) != 0 {
		t.Fatalf("listing after the TTL = %+v, want empty", rows)
	}
	m.mu.Lock()
	held, records := len(m.jobs), len(m.finished)
	m.mu.Unlock()
	if held != 0 || records != 0 {
		t.Fatalf("after the TTL the manager still holds %d jobs and %d finish records, want none", held, records)
	}

	// The next job is unaffected by the pruning before it.
	next := runAsync(t, ts, `{"graph":"tri2","kind":"exists","pattern":"0-1"}`)
	if _, ok := m.Get(next.ID); !ok {
		t.Fatal("job submitted after the prune is not queryable")
	}
}

// A synchronous job leaves nothing behind: its terminal snapshot is its
// own POST response, so afterwards its id is unknown and the manager
// holds neither the job nor a retention record — while an asynchronous
// job stays queryable, however many synchronous ones follow it.
func TestWaitedJobNotRetained(t *testing.T) {
	s, ts := newTestServer(t)
	m := s.Jobs()
	async := runAsync(t, ts, `{"graph":"tri2","kind":"count","pattern":"0-1 1-2 2-0"}`)
	for _, body := range []string{
		`{"graph":"tri2","kind":"count","pattern":"0-1 1-2 2-0","wait":true}`,
		`{"graph":"tri5","kind":"exists","pattern":"0-1","wait":true}`,
		`{"graph":"tri5","kind":"matches","pattern":"0-1","wait":true}`,
		`{"graph":"labeled","kind":"fsm","maxEdges":1,"support":1,"wait":true}`,
		`{"graph":"tri2","kind":"count","patterns":["0-1 1-2 2-0"],"threads":2,"wait":true}`,
	} {
		code, info := postQuery(t, ts, body)
		if code != http.StatusOK || info.Status != StatusDone || info.Result == nil {
			t.Fatalf("%s: code %d, %+v", body, code, info)
		}
		if code, _ := getJob(t, ts, info.ID); code != http.StatusNotFound {
			t.Errorf("%s: GET %s after its response = %d, want 404", body, info.ID, code)
		}
	}
	if rows := m.List(); len(rows) != 1 || rows[0].ID != async.ID {
		t.Errorf("listing = %+v, want the asynchronous job %s alone", rows, async.ID)
	}
	m.mu.Lock()
	held, records := len(m.jobs), len(m.finished)
	m.mu.Unlock()
	if held != 1 || records != 1 {
		t.Errorf("manager holds %d jobs and %d finish records, want the asynchronous job's 1 and 1", held, records)
	}
	if code, cur := getJob(t, ts, async.ID); code != http.StatusOK || cur.Result == nil || cur.Result.Count != 2 {
		t.Errorf("asynchronous job after the synchronous ones: code %d, %+v", code, cur)
	}
	// ... until its TTL.
	m.SetTTL(time.Millisecond)
	time.Sleep(time.Until(async.Finished.Add(5 * time.Millisecond)))
	if code, _ := getJob(t, ts, async.ID); code != http.StatusNotFound {
		t.Errorf("asynchronous job past its TTL = %d, want 404", code)
	}
}

func openStream(t *testing.T, ts *httptest.Server, id string) *http.Response {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// A streaming matches job delivers one NDJSON row per match plus a
// terminal done row, and the job completes once drained.
// decodeStream parses an NDJSON match stream up to its terminal row;
// end is nil if the stream closed without one.
func decodeStream(t *testing.T, body io.Reader) ([]StreamMatch, *StreamEnd) {
	t.Helper()
	var rows []StreamMatch
	var end *StreamEnd
	sc := bufio.NewScanner(body)
	for sc.Scan() {
		line := sc.Bytes()
		var probe struct {
			Done bool `json:"done"`
		}
		if err := json.Unmarshal(line, &probe); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", line, err)
		}
		if probe.Done {
			end = &StreamEnd{}
			if err := json.Unmarshal(line, end); err != nil {
				t.Fatal(err)
			}
			break
		}
		var row StreamMatch
		if err := json.Unmarshal(line, &row); err != nil {
			t.Fatal(err)
		}
		rows = append(rows, row)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return rows, end
}

func TestStreamNDJSON(t *testing.T) {
	_, ts := newTestServer(t)
	code, info := postQuery(t, ts,
		`{"graph":"tri5","kind":"matches","patterns":["0-1 1-2 2-0","0-1 0-2 0-3 1-2 1-3 2-3"],"stream":true}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", code)
	}
	resp := openStream(t, ts, info.ID)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status = %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("content type = %q", ct)
	}

	rows, end := decodeStream(t, resp.Body)
	if len(rows) != 5 {
		t.Fatalf("streamed %d rows, want 5 triangles (no 4-cliques in tri5)", len(rows))
	}
	for _, row := range rows {
		if row.Index != 0 || row.Pattern != "0-1 1-2 2-0" {
			t.Errorf("row %+v not attributed to the triangle pattern", row)
		}
		if len(row.Mapping) != 3 {
			t.Errorf("row mapping %v, want 3 vertices", row.Mapping)
		}
	}
	if end == nil || !end.Done || end.Status != StatusDone || end.Count != 5 {
		t.Fatalf("terminal row = %+v, want done/done/5", end)
	}

	// The stream is single-consumer.
	resp2 := openStream(t, ts, info.ID)
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusConflict {
		t.Errorf("second attach = %d, want 409", resp2.StatusCode)
	}
}

// Dropping the stream client mid-delivery must cancel the job and stop
// its engine workers: the 6-star mine on the dense graph cannot finish
// in test time, so reaching cancelled proves disconnect propagation.
func TestStreamClientDisconnectCancelsJob(t *testing.T) {
	s, ts := newTestServer(t)
	_, info := postQuery(t, ts,
		`{"graph":"dense","kind":"matches","pattern":"0-1 0-2 0-3 0-4 0-5 0-6","stream":true}`)

	resp := openStream(t, ts, info.ID)
	sc := bufio.NewScanner(resp.Body)
	if !sc.Scan() {
		t.Fatal("no first row before disconnect")
	}
	resp.Body.Close() // drop the client mid-stream

	job, ok := s.Jobs().Get(info.ID)
	if !ok {
		t.Fatal("job vanished")
	}
	select {
	case <-job.Done():
	case <-time.After(20 * time.Second):
		t.Fatal("job survived 20s after client disconnect")
	}
	if st := job.Info().Status; st != StatusCancelled {
		t.Errorf("status after disconnect = %q, want cancelled", st)
	}
}

// Streaming request validation and stream attachment errors.
func TestStreamErrorPaths(t *testing.T) {
	_, ts := newTestServer(t)
	for name, body := range map[string]string{
		"stream on count":        `{"graph":"tri2","kind":"count","pattern":"0-1","stream":true}`,
		"stream with wait":       `{"graph":"tri2","kind":"matches","pattern":"0-1","stream":true,"wait":true}`,
		"multi-pattern buffered": `{"graph":"tri2","kind":"matches","patterns":["0-1","0-1 1-2"]}`,
		"pattern and patterns":   `{"graph":"tri2","kind":"count","pattern":"0-1","patterns":["0-1 1-2"]}`,
		"fsm with stream":        `{"graph":"labeled","kind":"fsm","maxEdges":1,"support":1,"stream":true}`,
		"empty patterns list":    `{"graph":"tri2","kind":"count","patterns":[]}`,
	} {
		if code, _ := postQuery(t, ts, body); code != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", name, code)
		}
	}

	// Stream endpoint on a non-streaming job.
	info := runAsync(t, ts, `{"graph":"tri2","kind":"count","pattern":"0-1"}`)
	resp := openStream(t, ts, info.ID)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("stream on count job = %d, want 400", resp.StatusCode)
	}
	respUnknown := openStream(t, ts, "job-999")
	defer respUnknown.Body.Close()
	if respUnknown.StatusCode != http.StatusNotFound {
		t.Errorf("stream on unknown job = %d, want 404", respUnknown.StatusCode)
	}
}

// A streaming job whose stream is never consumed must not park its
// workers forever: the attach watchdog cancels it.
func TestStreamAttachWatchdog(t *testing.T) {
	s, ts := newTestServer(t)
	s.SetStreamAttachTimeout(100 * time.Millisecond)
	_, info := postQuery(t, ts,
		`{"graph":"dense","kind":"matches","pattern":"0-1 0-2 0-3 0-4 0-5 0-6","stream":true}`)
	job, ok := s.Jobs().Get(info.ID)
	if !ok {
		t.Fatal("job not registered")
	}
	select {
	case <-job.Done():
	case <-time.After(20 * time.Second):
		t.Fatal("unconsumed stream job survived 20s past its 100ms attach timeout")
	}
	if st := job.Info().Status; st != StatusCancelled {
		t.Errorf("status = %q, want cancelled", st)
	}

	// A consumer arriving after the watchdog cancelled still reclaims
	// the stream: it drains whatever was buffered and gets the honest
	// cancelled status in the terminal row instead of a 409.
	resp := openStream(t, ts, info.ID)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-watchdog stream GET = %d, want 200", resp.StatusCode)
	}
	rows, end := decodeStream(t, resp.Body)
	if end == nil || end.Status != StatusCancelled {
		t.Errorf("post-watchdog terminal row = %+v, want cancelled status", end)
	}
	if end != nil && end.Count != uint64(len(rows)) {
		t.Errorf("terminal count = %d, rows relayed = %d; must match", end.Count, len(rows))
	}
}

// The watchdog only unparks workers blocked on an unconsumed stream; a
// job that finished before the attach deadline keeps its buffered rows
// deliverable to a late consumer (within the job TTL).
func TestStreamLateConsumerAfterFinish(t *testing.T) {
	s, ts := newTestServer(t)
	s.SetStreamAttachTimeout(50 * time.Millisecond)
	_, info := postQuery(t, ts,
		`{"graph":"tri5","kind":"matches","pattern":"0-1 1-2 2-0","stream":true}`)
	job, ok := s.Jobs().Get(info.ID)
	if !ok {
		t.Fatal("job not registered")
	}
	select {
	case <-job.Done():
	case <-time.After(20 * time.Second):
		t.Fatal("tiny stream job did not finish")
	}
	time.Sleep(150 * time.Millisecond) // let the watchdog fire
	resp, err := http.Get(ts.URL + "/v1/jobs/" + info.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("late stream GET = %d, want 200", resp.StatusCode)
	}
	rows, end := decodeStream(t, resp.Body)
	if len(rows) != 5 || end == nil || !end.Done || end.Status != StatusDone {
		t.Errorf("late consumer got %d rows, end = %+v; want 5 rows of a done job", len(rows), end)
	}
}

// The streaming maxMatches cap is exact even with concurrent workers:
// slots are reserved before rows are sent.
func TestStreamMaxMatchesExact(t *testing.T) {
	_, ts := newTestServer(t)
	_, info := postQuery(t, ts,
		`{"graph":"tri5","kind":"matches","pattern":"0-1 1-2 2-0","stream":true,"maxMatches":3,"threads":4}`)
	resp := openStream(t, ts, info.ID)
	defer resp.Body.Close()
	rows, end := decodeStream(t, resp.Body)
	if end == nil || len(rows) != 3 {
		t.Fatalf("stream delivered %d rows (end=%+v), want exactly 3", len(rows), end)
	}
	// The terminal count is rows delivered, not the racy engine tally.
	if end.Count != 3 {
		t.Errorf("terminal count = %d, want 3 (delivered rows)", end.Count)
	}
}
