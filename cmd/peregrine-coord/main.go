// Command peregrine-coord runs the scale-out coordinator: it owns a
// shard→node assignment for one graph and serves the same POST
// /v1/query count API as a single peregrine-serve node, fanning each
// query out as per-shard task-range jobs and merging the counts.
//
//	peregrine-coord -addr :8090 -graph patents \
//	    -node http://10.0.0.1:8080 -node http://10.0.0.2:8080 \
//	    -manifest graphs/patents.manifest
//
//	curl -s -X POST localhost:8090/v1/query \
//	    -d '{"kind":"count","patterns":["0-1 1-2 2-0"],"wait":true}'
//	curl -s localhost:8090/v1/coord      # shard assignment + failovers
//	curl -s localhost:8090/v1/stats     # fleet-summed counters
//
// Shard ranges come from a shard manifest (-manifest, the file
// gengraph -shards writes) so the fan-out boundaries match the on-disk
// fragments, or from -shards N which splits the
// graph's vertex space evenly (the vertex count is probed from the
// first node's GET /v1/graphs). Each shard is assigned round-robin
// with -replicas failover nodes; a node that dies mid-query costs one
// retry of its shards on the next replica, not the whole query.
// Because disjoint task ranges' counts sum exactly (see
// peregrine.WithTaskRange), the merged counts are byte-identical to a
// single node mining the whole graph. Pattern morphing happens here,
// once, above the fan-out: the nodes execute the rewritten pattern set
// by range and the requested counts are recovered from the sums.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"peregrine/internal/coord"
	"peregrine/internal/graph"
	"peregrine/internal/server"
)

// repeatable collects repeated flag values.
type repeatable []string

func (r *repeatable) String() string { return strings.Join(*r, ",") }

func (r *repeatable) Set(v string) error {
	*r = append(*r, v)
	return nil
}

func main() {
	var nodes repeatable
	addr := flag.String("addr", ":8090", "listen address")
	graphName := flag.String("graph", "", "graph name registered on every node (required)")
	manifest := flag.String("manifest", "", "shard manifest: fan-out ranges follow its fragment boundaries")
	shards := flag.Int("shards", 0, "without -manifest: split the vertex space into this many even ranges (0 = one per node)")
	replicas := flag.Int("replicas", 2, "nodes backing each shard (preferred owner + failovers; 0 = all nodes)")
	timeout := flag.Duration("timeout", 5*time.Minute, "per-shard query timeout")
	flag.Var(&nodes, "node", "base URL of a peregrine-serve node (repeatable, required)")
	flag.Parse()

	if *graphName == "" {
		fatal(errors.New("-graph is required"))
	}
	if len(nodes) == 0 {
		fatal(errors.New("at least one -node is required"))
	}
	for i, n := range nodes {
		nodes[i] = strings.TrimRight(n, "/")
	}

	ranges, err := shardRanges(*manifest, *graphName, *shards, nodes)
	if err != nil {
		fatal(err)
	}

	c, err := coord.New(coord.Config{
		Graph:   *graphName,
		Shards:  coord.Assign(ranges, nodes, *replicas),
		Timeout: *timeout,
	})
	if err != nil {
		fatal(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           c.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	go func() {
		<-ctx.Done()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = httpSrv.Shutdown(shutdownCtx)
	}()

	fmt.Fprintf(os.Stderr, "peregrine-coord: graph %q, %d shard(s) over %d node(s), listening on %s\n",
		*graphName, len(ranges), len(nodes), *addr)
	if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatal(err)
	}
}

// shardRanges derives the fan-out task ranges: the manifest's fragment
// boundaries when given, else an even split of the vertex count probed
// from the first reachable node.
func shardRanges(manifestPath, graphName string, shards int, nodes []string) ([]coord.Range, error) {
	if manifestPath != "" {
		m, err := graph.LoadManifest(manifestPath)
		if err != nil {
			return nil, fmt.Errorf("-manifest: %w", err)
		}
		ranges := make([]coord.Range, len(m.Shards))
		for i, sh := range m.Shards {
			ranges[i] = coord.Range{Lo: sh.Lo, Hi: sh.Hi}
		}
		return ranges, nil
	}
	n, err := probeVertices(graphName, nodes)
	if err != nil {
		return nil, err
	}
	if shards < 1 {
		shards = len(nodes)
	}
	ranges := coord.SplitRange(n, shards)
	if ranges == nil {
		return nil, fmt.Errorf("graph %q has no vertices", graphName)
	}
	return ranges, nil
}

// probeVertices asks the nodes' GET /v1/graphs for the graph's vertex
// count; formats without a cheap Stat report it only once loaded.
func probeVertices(graphName string, nodes []string) (uint32, error) {
	cl := &http.Client{Timeout: 30 * time.Second}
	var lastErr error
	for _, node := range nodes {
		resp, err := cl.Get(node + "/v1/graphs")
		if err != nil {
			lastErr = err
			continue
		}
		var list []server.GraphInfo
		err = json.NewDecoder(resp.Body).Decode(&list)
		resp.Body.Close()
		if err != nil {
			lastErr = err
			continue
		}
		for _, gi := range list {
			if gi.Name == graphName {
				if gi.Vertices == 0 {
					return 0, fmt.Errorf("node %s knows graph %q but not its vertex count; pass -manifest or query it once first", node, graphName)
				}
				return gi.Vertices, nil
			}
		}
		return 0, fmt.Errorf("node %s does not register graph %q", node, graphName)
	}
	return 0, fmt.Errorf("no node reachable to size graph %q: %w", graphName, lastErr)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "peregrine-coord:", err)
	os.Exit(1)
}
