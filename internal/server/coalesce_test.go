package server

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"peregrine/internal/graph"
)

// coalesceTestServer returns a server over the standard test graphs
// with the given coalescing config.
func coalesceTestServer(t *testing.T, cfg CoalesceConfig) (*Server, *httptest.Server) {
	t.Helper()
	s, ts := newTestServer(t)
	s.SetCoalescing(cfg)
	return s, ts
}

// overlappingBodies is a fixed request mix over tri5: overlapping
// pattern lists (so coalesced batches dedup plans across requests)
// plus a string-form single pattern.
func overlappingBodies() []string {
	return []string{
		`{"graph":"tri5","kind":"count","patterns":["0-1 1-2 2-0","0-1 1-2"],"wait":true}`,
		`{"graph":"tri5","kind":"count","patterns":["0-1 1-2"],"wait":true}`,
		`{"graph":"tri5","kind":"count","patterns":["1-0 2-0","0-1 1-2 2-0"],"wait":true}`, // wedge renumbered
		`{"graph":"tri5","kind":"count","pattern":"0-1 1-2 2-0","wait":true}`,
		`{"graph":"tri5","kind":"count","patterns":["0-1","0-1 1-2 2-0"],"wait":true}`,
		`{"graph":"tri5","kind":"count","patterns":["0-1 0-2 0-3 1-2 1-3 2-3"],"wait":true}`,
		`{"graph":"tri5","kind":"count","patterns":["0-1 1-2","0-1"],"wait":true}`,
		`{"graph":"tri5","kind":"count","patterns":["0-1 1-2 2-0","0-1"],"wait":true}`,
	}
}

// countsKey renders the parts of a result that must be identical
// between coalesced and uncoalesced execution: total and per-pattern
// counts, byte-for-byte as the client sees them.
func countsKey(t *testing.T, info JobInfo) string {
	t.Helper()
	if info.Status != StatusDone || info.Result == nil {
		t.Fatalf("job %s ended %q (%s) with result %+v", info.ID, info.Status, info.Error, info.Result)
	}
	b, err := json.Marshal(struct {
		Count      uint64         `json:"count"`
		PerPattern []PatternCount `json:"perPattern,omitempty"`
	}{info.Result.Count, info.Result.PerPattern})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// Differential: K concurrent overlapping count requests through the
// coalescer return byte-identical counts to the same requests run
// serially against a server with coalescing disabled.
func TestCoalescedCountsMatchUncoalesced(t *testing.T) {
	// Serial reference, coalescing off.
	_, refTS := coalesceTestServer(t, CoalesceConfig{Window: 0})
	bodies := overlappingBodies()
	want := make([]string, len(bodies))
	for i, body := range bodies {
		_, info := postQuery(t, refTS, body)
		want[i] = countsKey(t, info)
	}

	// Same requests, concurrent, through a wide-open window so they
	// coalesce maximally.
	sc, coTS := coalesceTestServer(t, CoalesceConfig{Window: 250 * time.Millisecond})
	got := make([]string, len(bodies))
	var wg sync.WaitGroup
	for i, body := range bodies {
		wg.Add(1)
		go func(i int, body string) {
			defer wg.Done()
			_, info := postQuery(t, coTS, body)
			got[i] = countsKey(t, info)
		}(i, body)
	}
	wg.Wait()
	for i := range bodies {
		if got[i] != want[i] {
			t.Errorf("request %d: coalesced %s != uncoalesced %s", i, got[i], want[i])
		}
	}

	// The concurrent burst must actually have coalesced: fewer merged
	// traversals than requests, and the batch telemetry visible.
	st := sc.Stats()
	if st.CoalesceRequests != uint64(len(bodies)) {
		t.Errorf("coalesceRequests = %d, want %d", st.CoalesceRequests, len(bodies))
	}
	if st.CoalesceBatches >= st.CoalesceRequests {
		t.Errorf("batches = %d not < requests = %d: nothing coalesced", st.CoalesceBatches, st.CoalesceRequests)
	}
	if st.CoalesceTraversalsSaved < 1 {
		t.Errorf("traversalsSaved = %d, want >= 1", st.CoalesceTraversalsSaved)
	}
}

// A coalesced job's status JSON carries the batch attribution:
// stats.coalescing with the batch shape and this request's latency
// split, and stats.sharing describing the merged traversal.
func TestCoalescedJobStatsTelemetry(t *testing.T) {
	_, ts := coalesceTestServer(t, CoalesceConfig{Window: 250 * time.Millisecond})
	bodies := []string{
		`{"graph":"tri5","kind":"count","patterns":["0-1 1-2 2-0","0-1 0-2 0-3 1-2 1-3 2-3"],"wait":true}`,
		`{"graph":"tri5","kind":"count","patterns":["0-1 1-2 2-0"],"wait":true}`,
	}
	infos := make([]JobInfo, len(bodies))
	var wg sync.WaitGroup
	for i, body := range bodies {
		wg.Add(1)
		go func(i int, body string) {
			defer wg.Done()
			_, infos[i] = postQuery(t, ts, body)
		}(i, body)
	}
	wg.Wait()
	for i, info := range infos {
		if info.Status != StatusDone || info.Result == nil || info.Result.Stats == nil {
			t.Fatalf("job %d: %+v", i, info)
		}
		cs := info.Result.Stats.Coalescing
		if cs == nil {
			t.Fatalf("job %d has no stats.coalescing: %+v", i, info.Result.Stats)
		}
		if cs.BatchRequests != 2 {
			t.Errorf("job %d batchRequests = %d, want 2", i, cs.BatchRequests)
		}
		if cs.BatchPatterns != 3 {
			t.Errorf("job %d batchPatterns = %d, want 3", i, cs.BatchPatterns)
		}
		// Triangle appears in both requests: 3 patterns, 2 unique plans.
		if cs.UniquePlans != 2 {
			t.Errorf("job %d uniquePlans = %d, want 2 (triangle deduped)", i, cs.UniquePlans)
		}
		if cs.Batch == "" || cs.ExecMicros < 0 || cs.QueueMicros < 0 {
			t.Errorf("job %d bad attribution: %+v", i, cs)
		}
		if info.Result.Stats.Sharing == nil {
			t.Errorf("job %d missing batch sharing stats", i)
		}
	}
	if infos[0].Result.Stats.Coalescing.Batch != infos[1].Result.Stats.Coalescing.Batch {
		t.Errorf("jobs rode different batches: %q vs %q",
			infos[0].Result.Stats.Coalescing.Batch, infos[1].Result.Stats.Coalescing.Batch)
	}

	// Wire compatibility: the golden key set of result.stats, read off the
	// raw job-status body. A vertex-induced motif batch on a sharded graph
	// carries every nested block; the same request with a thread bound
	// runs as a batch of its own and drops exactly stats.coalescing.
	_, sts, _ := newShardTestServer(t)
	direct := []string{
		"coreMatches", "matchMicros", "matches",
		"morphing.candidates", "morphing.decomposed", "morphing.morphsChosen", "morphing.patternsReplaced",
		"morphing.recoveryTerms", "morphing.stepsDirect", "morphing.stepsMorphed",
		"planMicros",
		"sharing.intersections", "sharing.intersectionsSaved", "sharing.programSteps",
		"sharing.sharedNodeVisits", "sharing.trieNodes",
		"stopped", "tasks", "threads",
	}
	coalesced := append([]string{
		"coalescing.batch", "coalescing.batchPatterns", "coalescing.batchRequests",
		"coalescing.execMicros", "coalescing.queueMicros", "coalescing.uniquePlans",
	}, direct...)
	if got := jobStatsKeys(t, sts, motifBodyVI("sharded", motifTexts(4), "")); !reflect.DeepEqual(got, coalesced) {
		t.Errorf("coalesced result.stats keys\n got %v\nwant %v", got, coalesced)
	}
	if got := jobStatsKeys(t, sts, motifBodyVI("sharded", motifTexts(4), `,"threads":2`)); !reflect.DeepEqual(got, direct) {
		t.Errorf("direct result.stats keys\n got %v\nwant %v", got, direct)
	}
}

// jobStatsKeys posts a wait:true query and returns the sorted JSON key
// paths of the raw response's result.stats, nested blocks flattened as
// "block.key".
func jobStatsKeys(t *testing.T, ts *httptest.Server, body string) []string {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/query", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var info struct {
		Result struct {
			Stats map[string]any `json:"stats"`
		} `json:"result"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k, v := range info.Result.Stats {
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

// DELETE on one member of a coalesced batch detaches only that job:
// the batch still executes and every other member gets its correct
// result. The deleted member's job reports cancelled immediately, even
// though the merged traversal keeps running for its co-members.
func TestCoalescedCancellationIsolation(t *testing.T) {
	// A gated graph source makes the execution phase deterministic: the
	// batch's executor blocks inside Registry.With until the test releases the
	// gate, so the DELETE provably lands while the batch is executing.
	gate := make(chan struct{})
	loadStarted := make(chan struct{})
	var startOnce sync.Once
	reg := NewRegistry()
	reg.AddSource("gated", graph.FuncSource("test:gated", func() (*graph.Graph, error) {
		startOnce.Do(func() { close(loadStarted) })
		<-gate
		return triangleGraph(5), nil
	}))
	s := NewServer(t.Context(), reg)
	s.SetCoalescing(CoalesceConfig{Window: 50 * time.Millisecond})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	_, jobA := postQuery(t, ts, `{"graph":"gated","kind":"count","pattern":"0-1 1-2 2-0"}`)
	_, jobB := postQuery(t, ts, `{"graph":"gated","kind":"count","patterns":["0-1 1-2"]}`)

	select {
	case <-loadStarted:
		// The batch flushed and its executor is acquiring the graph.
	case <-time.After(10 * time.Second):
		t.Fatal("batch never started executing")
	}
	if code, _ := deleteJob(t, ts, jobA.ID); code != http.StatusOK {
		t.Fatalf("DELETE mid-batch = %d", code)
	}
	// The cancelled member detaches without waiting for the batch.
	ja, _ := s.Jobs().Get(jobA.ID)
	select {
	case <-ja.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("deleted member did not detach while its batch was executing")
	}
	if st := ja.Info().Status; st != StatusCancelled {
		t.Errorf("deleted member status = %q, want cancelled", st)
	}

	close(gate) // let the batch run
	jb, _ := s.Jobs().Get(jobB.ID)
	select {
	case <-jb.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("surviving member never finished")
	}
	info := jb.Info()
	if info.Status != StatusDone || info.Result == nil {
		t.Fatalf("surviving member = %q (%s), want done", info.Status, info.Error)
	}
	// 5 disjoint triangles: 15 wedges, counted correctly despite the
	// co-member's cancellation.
	if info.Result.Count != 15 {
		t.Errorf("surviving member count = %d, want 15", info.Result.Count)
	}
	cs := info.Result.Stats.Coalescing
	if cs == nil || cs.BatchRequests != 2 {
		t.Errorf("surviving member batch attribution = %+v, want the 2-member batch", cs)
	}
	if st := s.Stats(); st.CoalesceDetached != 1 {
		t.Errorf("coalesceDetached = %d, want 1", st.CoalesceDetached)
	}
}

// When every member of a pending batch is cancelled before the window
// closes, the batch is abandoned: no merged traversal runs at all.
func TestCoalescedAllCancelledAbandonsBatch(t *testing.T) {
	s, ts := coalesceTestServer(t, CoalesceConfig{Window: 300 * time.Millisecond})
	_, jobA := postQuery(t, ts, `{"graph":"tri5","kind":"count","pattern":"0-1 1-2 2-0"}`)
	_, jobB := postQuery(t, ts, `{"graph":"tri5","kind":"count","pattern":"0-1 1-2"}`)
	deleteJob(t, ts, jobA.ID)
	deleteJob(t, ts, jobB.ID)
	for _, id := range []string{jobA.ID, jobB.ID} {
		j, _ := s.Jobs().Get(id)
		select {
		case <-j.Done():
		case <-time.After(10 * time.Second):
			t.Fatalf("job %s did not cancel", id)
		}
	}
	time.Sleep(400 * time.Millisecond) // past the window
	st := s.Stats()
	if st.CoalesceBatches != 0 {
		t.Errorf("abandoned batch still executed: batches = %d", st.CoalesceBatches)
	}
	if st.CoalesceDetached != 2 {
		t.Errorf("coalesceDetached = %d, want 2", st.CoalesceDetached)
	}
}

// Race stress: concurrent overlapping requests with mid-window
// cancellations, meant for -race. Completed jobs must report the
// correct counts regardless of how their batches formed or which
// co-members were cancelled.
func TestCoalescerRaceStress(t *testing.T) {
	_, ts := coalesceTestServer(t, CoalesceConfig{Window: time.Millisecond, MaxRequests: 4})
	// tri5 ground truth per pattern text.
	want := map[string]uint64{
		"0-1 1-2 2-0":             5,
		"0-1 1-2":                 15,
		"0-1":                     15,
		"0-1 0-2 0-3 1-2 1-3 2-3": 0,
	}
	pool := make([]string, 0, len(want))
	for p := range want {
		pool = append(pool, p)
	}

	const workers = 8
	const rounds = 12
	var wg sync.WaitGroup
	errs := make(chan error, workers*rounds)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for r := 0; r < rounds; r++ {
				texts := []string{pool[rng.Intn(len(pool))], pool[rng.Intn(len(pool))]}
				if rng.Intn(3) == 0 {
					// Cancellation path: submit async, DELETE mid-window.
					body := fmt.Sprintf(`{"graph":"tri5","kind":"count","patterns":[%q,%q]}`, texts[0], texts[1])
					_, info := postQuery(t, ts, body)
					deleteJob(t, ts, info.ID)
					continue
				}
				body := fmt.Sprintf(`{"graph":"tri5","kind":"count","patterns":[%q,%q],"wait":true}`, texts[0], texts[1])
				_, info := postQuery(t, ts, body)
				if info.Status != StatusDone || info.Result == nil {
					errs <- fmt.Errorf("worker %d: job %q (%s)", w, info.Status, info.Error)
					continue
				}
				for i, pc := range info.Result.PerPattern {
					if pc.Count != want[texts[i]] {
						errs <- fmt.Errorf("worker %d: %q = %d, want %d", w, texts[i], pc.Count, want[texts[i]])
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// GET /v1/stats: a flat JSON object of numeric counters (CSV-friendly)
// covering the coalescer, the plan cache, and the registry.
func TestStatsEndpointFlat(t *testing.T) {
	_, ts := coalesceTestServer(t, CoalesceConfig{Window: 20 * time.Millisecond})
	postQuery(t, ts, `{"graph":"tri5","kind":"count","patterns":["0-1 1-2 2-0","0-1 1-2"],"wait":true}`)
	postQuery(t, ts, `{"graph":"tri2","kind":"count","pattern":"0-1 1-2 2-0","wait":true}`)

	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/stats = %d", resp.StatusCode)
	}
	var flat map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&flat); err != nil {
		t.Fatal(err)
	}
	for key, v := range flat {
		if _, ok := v.(float64); !ok {
			t.Errorf("stats field %q is %T, want a flat number", key, v)
		}
	}
	// The golden key set: the endpoint's wire names, all of them.
	golden := []string{
		"coalesceBatches", "coalesceCoalesced", "coalesceDetached", "coalesceIntersections",
		"coalesceIntersectionsSaved", "coalescePatterns", "coalesceRequests",
		"coalesceTraversalsSaved", "coalesceUniquePlans",
		"graphsLoaded", "graphsPinned", "graphsRegistered",
		"morphCandidates", "morphDecomposed", "morphPatternsReplaced", "morphRecoveryTerms", "morphRuns",
		"morphStepsDirect", "morphStepsMorphed", "morphsChosen",
		"planCacheEntries", "planCacheHitRate", "planCacheHits", "planCacheMisses",
		"registryResidentBytes",
		"shardEvictions", "shardLoads", "shardsTotal",
	}
	var keys []string
	for key := range flat {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	if !reflect.DeepEqual(keys, golden) {
		t.Fatalf("GET /v1/stats keys\n got %v\nwant %v", keys, golden)
	}
	if flat["coalesceRequests"].(float64) < 2 {
		t.Errorf("coalesceRequests = %v, want >= 2", flat["coalesceRequests"])
	}
	if flat["graphsRegistered"].(float64) != 4 {
		t.Errorf("graphsRegistered = %v, want 4", flat["graphsRegistered"])
	}
	if rate := flat["planCacheHitRate"].(float64); rate < 0 || rate > 1 {
		t.Errorf("planCacheHitRate = %v, want within [0,1]", rate)
	}
	if flat["graphsLoaded"].(float64) < 2 {
		t.Errorf("graphsLoaded = %v, want >= 2 (tri5 and tri2 were queried)", flat["graphsLoaded"])
	}
}

// Requests that cannot share a traversal bypass the admission layer:
// an explicit per-request thread bound must be honored, which a merged
// batch cannot do.
func TestCoalescerBypassForThreadBoundRequests(t *testing.T) {
	s, ts := coalesceTestServer(t, CoalesceConfig{Window: 100 * time.Millisecond})
	_, info := postQuery(t, ts, `{"graph":"tri5","kind":"count","pattern":"0-1 1-2 2-0","threads":2,"wait":true}`)
	if info.Status != StatusDone || info.Result == nil || info.Result.Count != 5 {
		t.Fatalf("thread-bound count = %+v", info)
	}
	if info.Result.Stats.Coalescing != nil {
		t.Error("thread-bound request went through the coalescer")
	}
	if info.Result.Stats.Threads != 2 {
		t.Errorf("threads = %d, want the requested 2", info.Result.Stats.Threads)
	}
	if st := s.Stats(); st.CoalesceRequests != 0 {
		t.Errorf("coalesceRequests = %d, want 0", st.CoalesceRequests)
	}
}
