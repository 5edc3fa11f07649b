package server

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"peregrine"
	"peregrine/internal/graph"
)

// pgrSource writes a random graph of edges edges to a .pgr file and
// returns its source plus the graph's resident size. Binary-backed
// sources are the realistic eviction case: evicting one unmaps real
// memory, so a pin bug shows up as a fault, not just a failed assert.
func pgrSource(t testing.TB, dir string, seed int64, edges int) (graph.Source, uint64) {
	return fileSource(t, dir, seed, edges, 0)
}

// fileSource is pgrSource with a shard count: above 0 the graph is
// written as that many fragment files behind a manifest, which the
// registry must treat as one graph like any other.
func fileSource(t testing.TB, dir string, seed int64, edges, shards int) (graph.Source, uint64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder()
	n := edges / 4
	for i := 0; i < edges; i++ {
		b.AddEdge(uint32(rng.Intn(n)), uint32(rng.Intn(n)))
	}
	g := b.Build()
	path := filepath.Join(dir, fmt.Sprintf("g%d.pgr", seed))
	err := graph.SaveBinary(path, g)
	if shards > 0 {
		_, err = graph.SaveSharded(path, g, shards)
	}
	if err != nil {
		t.Fatal(err)
	}
	src, err := graph.OpenPath(path)
	if err != nil {
		t.Fatal(err)
	}
	return src, g.Bytes()
}

// loadedSet maps names to whether the registry currently holds them
// resident.
func loadedSet(r *Registry) map[string]bool {
	out := make(map[string]bool)
	for _, gi := range r.List() {
		out[gi.Name] = gi.Loaded
	}
	return out
}

// use runs fn (nil: just touch the graph) on name's graph under its pin.
func use(t testing.TB, r *Registry, name string, fn func(g *graph.Graph)) {
	t.Helper()
	err := r.With(name, func(g *graph.Graph) error {
		if g.NumVertices() == 0 {
			t.Errorf("With(%q) handed fn an empty graph", name)
		}
		if fn != nil {
			fn(g)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("With(%q): %v", name, err)
	}
}

// adjSum reads every adjacency entry of g: a fault if g's mapping is gone.
func adjSum(g *graph.Graph) (sum uint64) {
	for v := uint32(0); v < g.NumVertices(); v++ {
		for _, u := range g.Adj(v) {
			sum += uint64(u)
		}
	}
	return sum
}

// Under a byte budget the registry must evict the least-recently-used
// idle graph, and an evicted graph must lazily reload on next use. One
// of the three is sharded: it is charged, evicted and reloaded whole.
func TestRegistryLRUEviction(t *testing.T) {
	dir := t.TempDir()
	r := NewRegistry()
	var size uint64
	for i, name := range []string{"a", "b", "c"} {
		src, bytes := fileSource(t, dir, int64(i+1), 2000, map[string]int{"a": 4}[name])
		r.AddSource(name, src)
		if bytes > size {
			size = bytes
		}
	}
	r.SetMaxBytes(2*size + size/2) // room for two graphs, not three

	use(t, r, "a", nil)
	use(t, r, "b", nil)
	use(t, r, "c", nil) // over budget: a is the LRU idle entry
	if got := loadedSet(r); got["a"] || !got["b"] || !got["c"] {
		t.Fatalf("after a,b,c loaded = %v, want a evicted", got)
	}
	if r.ResidentBytes() > 2*size+size/2 {
		t.Fatalf("resident %d exceeds budget", r.ResidentBytes())
	}

	// The evicted graph reloads transparently — a second load of its
	// source — and pushes out the now-LRU b.
	use(t, r, "a", nil)
	if n := r.LoadCount("a"); n != 2 {
		t.Fatalf("a loaded %d times, want 2 (evict + lazy reload)", n)
	}
	if got := loadedSet(r); got["b"] || !got["a"] || !got["c"] {
		t.Fatalf("after reload of a, loaded = %v, want b evicted", got)
	}
	if n := r.LoadCount("c"); n != 1 {
		t.Fatalf("c loaded %d times, want 1 (never evicted)", n)
	}
	if mapped, loads, evictions := r.ShardCounters(); mapped != 4 || loads != 8 || evictions != 4 {
		t.Fatalf("fragments mapped/loaded/evicted = %d/%d/%d, want 4/8/4 (a: two loads, one eviction)", mapped, loads, evictions)
	}
}

// A graph pinned by an in-flight acquisition must never be the
// eviction victim, even when it is the least recently used — here a
// sharded one, no fragment of which may be unmapped.
func TestRegistryPinnedGraphSurvives(t *testing.T) {
	dir := t.TempDir()
	r := NewRegistry()
	var size uint64
	for i, name := range []string{"a", "b", "c"} {
		src, bytes := fileSource(t, dir, int64(10+i), 2000, map[string]int{"a": 4}[name])
		r.AddSource(name, src)
		if bytes > size {
			size = bytes
		}
	}
	r.SetMaxBytes(size + size/2) // room for one graph only

	use(t, r, "a", func(ga *graph.Graph) {
		// Two more loads while a is pinned: each makes a the LRU entry,
		// but eviction must pass over it and take the idle one instead.
		use(t, r, "b", nil)
		use(t, r, "c", nil)
		if got := loadedSet(r); !got["a"] {
			t.Fatalf("pinned graph a evicted: loaded = %v", got)
		}
		// The pinned graph must still be fully usable (would fault if its
		// mapping had been unmapped).
		if adjSum(ga) == 0 {
			t.Fatal("pinned graph unreadable")
		}
		for _, gi := range r.List() {
			if gi.Name == "a" && gi.Pinned != 1 {
				t.Fatalf("a reports %d pins, want 1", gi.Pinned)
			}
		}
	})

	// Once With has returned, a is evictable again.
	use(t, r, "b", nil)
	if got := loadedSet(r); got["a"] {
		t.Fatalf("unpinned graph a not evicted under pressure: loaded = %v", got)
	}
}

// However With ends — fn panics, fn fails, the load fails — the pin is
// gone when it does: the pin count reads 0 and a one-byte budget evicts.
func TestWithReleasesOnPanicAndError(t *testing.T) {
	dir := t.TempDir()
	r := NewRegistry()
	src, _ := pgrSource(t, dir, 60, 1000)
	r.AddSource("g", src)
	r.AddSource("broken", graph.FileSource(filepath.Join(dir, "missing.pgr")))

	boom := errors.New("boom")
	if err := r.With("g", func(*graph.Graph) error { return boom }); err != boom {
		t.Fatalf("With returned %v, want fn's error", err)
	}
	func() {
		defer func() {
			if recover() != "boom" {
				t.Error("fn's panic did not propagate out of With")
			}
		}()
		_ = r.With("g", func(*graph.Graph) error { panic("boom") })
	}()
	if err := r.With("broken", func(*graph.Graph) error { return nil }); err == nil {
		t.Fatal("With on an unloadable source succeeded")
	}

	if _, loaded, pinned, _ := r.Counters(); loaded != 1 || pinned != 0 {
		t.Fatalf("after three failed Withs: %d loaded, %d pinned; want 1, 0", loaded, pinned)
	}
	r.SetMaxBytes(1)
	if res := r.ResidentBytes(); res != 0 {
		t.Fatalf("resident = %d under a one-byte budget: a pin leaked", res)
	}
}

// Concurrent pinned use across more graphs than the budget
// holds: every access must see a valid mapped graph (a pin bug faults
// here), accounting must stay consistent, and the run is race-checked
// by CI's -race pass.
func TestRegistryConcurrentEvictionChurn(t *testing.T) {
	dir := t.TempDir()
	r := NewRegistry()
	names := []string{"a", "b", "c", "d"}
	var size uint64
	sums := make(map[string]uint64) // expected adjacency checksum per graph
	for i, name := range names {
		src, bytes := pgrSource(t, dir, int64(20+i), 1500)
		r.AddSource(name, src)
		if bytes > size {
			size = bytes
		}
		g, err := src.Load()
		if err != nil {
			t.Fatal(err)
		}
		sums[name] = adjSum(g)
		g.Close()
	}
	r.SetMaxBytes(2 * size) // roughly half the working set

	const workers = 8
	const iters = 40
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < iters; i++ {
				name := names[rng.Intn(len(names))]
				err := r.With(name, func(g *graph.Graph) error {
					if sum := adjSum(g); sum != sums[name] {
						return fmt.Errorf("graph %q corrupted under churn: sum %d, want %d", name, sum, sums[name])
					}
					return nil
				})
				if err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// Every With has returned: the registry must be able to settle under
	// budget, and bookkeeping must balance.
	r.SetMaxBytes(size / 2)
	if res := r.ResidentBytes(); res != 0 {
		t.Fatalf("resident = %d after evicting everything, want 0", res)
	}
	for _, gi := range r.List() {
		if gi.Pinned != 0 {
			t.Fatalf("graph %q still pinned after every With returned: %+v", gi.Name, gi)
		}
	}
}

// A slow Source.Load stalls only the queries that need its graph: it
// runs under the entry's loadMu, never under the registry lock, so
// while it blocks every other registry call answers, and the callers
// waiting on it share its one load.
func TestRegistrySlowLoadBlocksOnlyItsGraph(t *testing.T) {
	r := NewRegistry()
	fast, _ := pgrSource(t, t.TempDir(), 70, 500)
	r.AddSource("fast", fast)
	slow := graph.NewBuilder()
	slow.AddEdge(0, 1)
	slowG := slow.Build()
	loading, gate := make(chan struct{}, 1), make(chan struct{})
	r.AddSource("slow", graph.FuncSource("test:slow", func() (*graph.Graph, error) {
		select {
		case loading <- struct{}{}:
		default:
		}
		<-gate
		return slowG, nil
	}))
	// However the test ends, the gate opens and every goroutine returns.
	var wg sync.WaitGroup
	defer wg.Wait()
	var openGate sync.Once
	defer openGate.Do(func() { close(gate) })

	const callers = 8
	seen := make([]*graph.Graph, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := r.With("slow", func(g *graph.Graph) error { seen[i] = g; return nil }); err != nil {
				t.Error(err)
			}
		}(i)
	}
	select {
	case <-loading:
	case <-time.After(5 * time.Second):
		t.Fatal("no With call reached Source.Load")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	probes := []struct {
		name string
		fn   func()
	}{
		{"List", func() { r.List() }},
		{"Has", func() { r.Has("fast") }},
		{"Counters", func() { r.Counters() }},
		{"SetMaxBytes", func() { r.SetMaxBytes(0) }},
		{"With(fast)", func() {
			if err := r.With("fast", func(*graph.Graph) error { return nil }); err != nil {
				t.Error(err)
			}
		}},
	}
	done := make([]chan struct{}, len(probes))
	for i, p := range probes {
		done[i] = make(chan struct{})
		wg.Add(1)
		go func(fn func(), done chan struct{}) { defer wg.Done(); defer close(done); fn() }(p.fn, done[i])
	}
	for i, p := range probes {
		select {
		case <-done[i]:
		case <-ctx.Done():
			t.Errorf("%s did not return within 5s while another graph's load blocked", p.name)
		}
	}

	openGate.Do(func() { close(gate) })
	wg.Wait()
	if n := r.LoadCount("slow"); n != 1 {
		t.Errorf("slow loaded %d times by %d concurrent callers, want 1", n, callers)
	}
	for i, g := range seen {
		if g != slowG {
			t.Errorf("caller %d ran on %p, want the one loaded graph %p", i, g, slowG)
		}
	}
}

// Shared memory-source graphs (AddGraph) are materialized at
// registration, count against the budget permanently, and are never
// evicted — the registry doesn't own them, so "evicting" would free
// nothing while Closing could gut an instance other holders use.
func TestRegistrySharedGraphsNeverEvicted(t *testing.T) {
	dir := t.TempDir()
	r := NewRegistry()

	// An mmap-backed graph registered under TWO names: eviction
	// pressure on one entry must never unmap the instance the other
	// entry (or the caller) still uses.
	src, memBytes := pgrSource(t, dir, 50, 1500)
	mg, err := src.Load()
	if err != nil {
		t.Fatal(err)
	}
	r.AddGraph("m1", "test:m1", mg)
	r.AddGraph("m2", "test:m2", mg)
	if res := r.ResidentBytes(); res != 2*memBytes {
		t.Fatalf("resident after registering shared graphs = %d, want %d", res, 2*memBytes)
	}
	fileSrc, _ := pgrSource(t, dir, 51, 1500)
	r.AddSource("f", fileSrc)
	r.SetMaxBytes(memBytes) // far under the shared graphs' footprint

	// Shared entries stay loaded; only the file-backed graph cycles.
	use(t, r, "f", nil)
	if got := loadedSet(r); !got["m1"] || !got["m2"] {
		t.Fatalf("shared graphs evicted: loaded = %v", got)
	}
	// The instance must still be mapped and readable through both
	// entries and the caller's own reference.
	if mg.NumVertices() == 0 {
		t.Fatal("shared graph was closed by eviction")
	}
	for _, name := range []string{"m1", "m2"} {
		use(t, r, name, func(got *graph.Graph) {
			if got != mg {
				t.Fatalf("With(%q) ran on %v, want the registered shared instance", name, got)
			}
		})
	}
	// Replacing a shared entry removes its accounting but must not
	// Close the caller-owned graph.
	r.AddSource("m1", fileSrc)
	if mg.NumVertices() == 0 {
		t.Fatal("replacing a shared entry closed the caller's graph")
	}
}

// Re-registering a name while queries hold the old graph must keep
// the accounting consistent: the replaced graph leaves the resident
// total, in-flight queries finish against the graph they were handed,
// and the new source serves subsequent queries.
func TestRegistryReplaceWhilePinned(t *testing.T) {
	dir := t.TempDir()
	r := NewRegistry()
	src1, _ := pgrSource(t, dir, 40, 1000)
	r.AddSource("g", src1)

	var oldVerts uint32
	use(t, r, "g", func(old *graph.Graph) {
		oldVerts = old.NumVertices()
		src2, _ := pgrSource(t, dir, 41, 2000)
		r.AddSource("g", src2)
		if res := r.ResidentBytes(); res != 0 {
			t.Fatalf("replaced graph still accounted: resident = %d", res)
		}
		// The pinned old graph must still be fully readable.
		if adjSum(old) == 0 || old.NumVertices() != oldVerts {
			t.Fatal("old graph unreadable after replacement")
		}
	})

	use(t, r, "g", func(g *graph.Graph) {
		if g.NumVertices() == oldVerts {
			t.Fatal("With after replacement ran on the old graph")
		}
		if r.ResidentBytes() != g.Bytes() {
			t.Fatalf("resident = %d, want the new graph's %d", r.ResidentBytes(), g.Bytes())
		}
	})
}

// Each server compiles plans through its own cache: one server's
// query traffic must not show up in — or evict entries of — another's.
func TestServersHaveIsolatedPlanCaches(t *testing.T) {
	s1, ts1 := newTestServer(t)
	s2, ts2 := newTestServer(t)

	body := `{"graph":"tri2","kind":"count","pattern":"0-1 1-2 2-0 [0:7070] [1:7071] [2:7072]","wait":true}`
	if code, _ := postQuery(t, ts1, body); code != 200 {
		t.Fatalf("query on server 1: HTTP %d", code)
	}
	if h, m := s1.PlanCache().Stats(); m != 1 || h != 0 {
		t.Fatalf("server 1 cache hits/misses = %d/%d, want 0/1", h, m)
	}
	if h, m := s2.PlanCache().Stats(); h != 0 || m != 0 {
		t.Fatalf("server 2 cache moved without traffic: hits/misses = %d/%d", h, m)
	}
	if code, _ := postQuery(t, ts1, body); code != 200 {
		t.Fatalf("repeat query on server 1: HTTP %d", code)
	}
	if h, _ := s1.PlanCache().Stats(); h != 1 {
		t.Fatalf("server 1 repeat query did not hit its cache (hits = %d)", h)
	}
	if code, _ := postQuery(t, ts2, body); code != 200 {
		t.Fatalf("query on server 2: HTTP %d", code)
	}
	if h, m := s2.PlanCache().Stats(); m != 1 || h != 0 {
		t.Fatalf("server 2 compiled through a shared cache: hits/misses = %d/%d, want 0/1", h, m)
	}
}

// GET /v1/graphs metadata for a .pgr- or manifest-backed graph must be
// available before the graph is ever loaded, straight from the headers,
// and say what the load then makes true: the row before the first query
// and the row after it differ in "loaded" and in the degree figures only
// a load can read — the Shape a coordinator plans for.
func TestRegistryStatBeforeLoad(t *testing.T) {
	for _, shards := range []int{0, 4} {
		r := NewRegistry()
		src, _ := fileSource(t, t.TempDir(), 30, 1000, shards)
		r.AddSource("g", src)

		before := r.List()
		if len(before) != 1 {
			t.Fatalf("List returned %d rows", len(before))
		}
		gi := before[0]
		if gi.Loaded || gi.Vertices == 0 || gi.Edges == 0 || gi.Bytes == 0 || gi.Shards != shards {
			t.Fatalf("shards=%d: pre-load row %+v, want unloaded with counts and a size", shards, gi)
		}
		if n := r.LoadCount("g"); n != 0 {
			t.Fatalf("List triggered %d loads, want 0", n)
		}

		// The estimate and the real residency must agree.
		use(t, r, "g", func(g *graph.Graph) {
			if got := g.Bytes(); got != gi.Bytes {
				t.Fatalf("loaded Bytes = %d, the listing promised %d", got, gi.Bytes)
			}
		})
		gi.Loaded = true
		use(t, r, "g", func(g *graph.Graph) {
			s := peregrine.ShapeOf(g)
			gi.MeanDeg, gi.MeanSqDeg, gi.MaxDeg = s.MeanDeg, s.MeanSqDeg, s.MaxDeg
		})
		if after := r.List()[0]; after != gi || gi.MaxDeg == 0 {
			t.Fatalf("shards=%d: row after the load %+v, before it %+v", shards, after, gi)
		}
	}
}
