package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"peregrine/internal/coord"
	"peregrine/internal/graph"
	"peregrine/internal/server"
)

// opTimeout is how long an op may take before it counts as failed.
const opTimeout = 60 * time.Second

// node is one in-process serving node on a loopback listener.
type node struct {
	srv *server.Server
	ts  *httptest.Server
}

// env is everything a workload's ops run against: the flat in-memory
// graph (library rungs, and the oracle), and, for the served rungs, the
// graph's files, the nodes holding them and the coordinator. Servers
// and the coordinator are hosted in this process; all load comes from
// it too.
type env struct {
	w      *workload
	g      *graph.Graph // flat in-memory, as generated
	dir    string
	stop   context.CancelFunc
	client *http.Client

	whole   *node        // serves the whole graph from its .pgr (mmap)
	handler http.Handler // whole's handler, for the no-socket rung
	shards  []*node      // two nodes, each registering the 4-shard manifest
	coord   *coord.Coordinator
	coordTS *httptest.Server

	genTime time.Duration
}

// newEnv generates the workload's graph and brings up what rung at
// needs: nothing more for the library rungs, the whole-graph node for
// the two single-node rungs, the sharded fleet for rungCoord. The
// traced pass replays every rung, so a non-nil tracer brings up all of
// it, with wrapNode recording each node's side of a request.
func newEnv(w *workload, seed uint64, div uint32, outDir string, at rung, tr *tracer) (_ *env, err error) {
	ctx, stop := context.WithCancel(context.Background())
	e := &env{w: w, stop: stop}
	defer func() {
		if err != nil {
			e.close()
		}
	}()
	t0 := time.Now()
	e.g = w.graph(seed, div)
	e.genTime = time.Since(t0)
	wantWhole := tr != nil || at == rungHandler || at == rungHTTP
	wantFleet := tr != nil || at == rungCoord
	if !wantWhole && !wantFleet {
		return e, nil
	}
	if e.dir, err = os.MkdirTemp(outDir, w.name+"-*"); err != nil {
		return nil, err
	}
	// One keep-alive connection per client: the callers are scripts and
	// the coordinator, which hold their connections open.
	e.client = &http.Client{
		Timeout:   opTimeout,
		Transport: &http.Transport{MaxIdleConnsPerHost: w.clients, MaxConnsPerHost: w.clients},
	}
	startNode := func(path string) *node {
		reg := server.NewRegistry()
		reg.AddFile(graphName, path)
		n := &node{srv: server.NewServer(ctx, reg)}
		h := n.srv.Handler()
		if tr != nil {
			h = tr.wrapNode(h)
		}
		n.ts = httptest.NewServer(h)
		return n
	}
	if wantWhole {
		pgr := filepath.Join(e.dir, w.name+".pgr")
		if err := graph.SaveBinary(pgr, e.g); err != nil {
			return nil, err
		}
		e.whole = startNode(pgr)
		e.handler = e.whole.srv.Handler()
	}
	if !wantFleet {
		return e, nil
	}
	manifest := filepath.Join(e.dir, w.name+".manifest")
	mf, err := graph.SaveSharded(manifest, e.g, shardCount)
	if err != nil {
		return nil, err
	}
	// The nodes are not budgeted. With any budget below the whole
	// fragment set, hops into an evicted fragment reload it from its
	// file one after another: one request then takes tens of seconds
	// (README.md, "Predictions, and whether they hold").
	ranges := make([]coord.Range, len(mf.Shards))
	for i, sh := range mf.Shards {
		ranges[i] = coord.Range{Lo: sh.Lo, Hi: sh.Hi}
	}
	urls := make([]string, 2)
	for i := range urls {
		n := startNode(manifest)
		e.shards = append(e.shards, n)
		urls[i] = n.ts.URL
	}
	e.coord, err = coord.New(coord.Config{Graph: graphName, Shards: coord.Assign(ranges, urls, 2), Timeout: opTimeout})
	if err != nil {
		return nil, err
	}
	e.coordTS = httptest.NewServer(e.coord.Handler())
	return e, nil
}

// close stops every server, waits for their connections to end, drops
// the nodes' graph mappings and removes the graph files.
func (e *env) close() {
	if e.client != nil {
		e.client.CloseIdleConnections()
	}
	if e.coordTS != nil {
		e.coordTS.Close()
	}
	for _, n := range append(e.shards, e.whole) {
		if n != nil {
			n.ts.Close()
			n.srv.Registry().SetMaxBytes(1) // evicts, and so unmaps, every idle graph
		}
	}
	e.stop()
	if e.dir != "" {
		_ = os.RemoveAll(e.dir)
	}
}

// url is where an op is POSTed at a served rung.
func (e *env) url(r rung) (string, error) {
	switch {
	case r == rungHTTP && e.whole != nil:
		return e.whole.ts.URL + "/v1/query", nil
	case r == rungCoord && e.coordTS != nil:
		return e.coordTS.URL + "/v1/query", nil
	}
	return "", fmt.Errorf("%s: rung %v is not set up", e.w.name, r)
}
