// Command peregrine-serve runs the pattern-mining query service: named
// graphs are registered at startup and mined over an HTTP/JSON API.
//
//	peregrine-serve -addr :8080 \
//	    -graph social=graphs/social.txt \
//	    -graph orkut=graphs/orkut.pgr \
//	    -dataset mico=mico-lite@1 \
//	    -max-graph-bytes 2G
//
//	curl -s localhost:8080/v1/graphs
//	curl -s -X POST localhost:8080/v1/query \
//	    -d '{"graph":"mico","kind":"count","patterns":["0-1 1-2 2-0","0-1 0-2 0-3"],"wait":true}'
//	curl -s -X POST localhost:8080/v1/query \
//	    -d '{"graph":"mico","kind":"matches","pattern":"0-1 1-2 2-0","stream":true}'
//	curl -sN localhost:8080/v1/jobs/job-2/stream
//	curl -s localhost:8080/v1/jobs
//	curl -s -X DELETE localhost:8080/v1/jobs/job-1
//
// Finished jobs are evicted -job-ttl after completion (0 disables).
//
// Graph files are text edge lists ("src dst" lines, optional "v id
// label" lines, '#' comments), .pgr binaries (gengraph -format pgr) or
// shard manifests (gengraph -shards N), detected from the content; .pgr
// graphs and manifest fragments are mmap-loaded and report full
// metadata in GET /v1/graphs before their first query. Dataset
// specs are name=dataset[@scale] over the built-in synthetics
// (mico-lite, patents-lite, patents-labeled, orkut-lite,
// friendster-lite).
//
// -max-graph-bytes (accepts K/M/G/T suffixes) bounds the total
// resident size of loaded graphs: past the budget, idle graphs are
// evicted least-recently-used first and lazily reload on their next
// query; graphs pinned by running jobs are never evicted. A sharded
// graph is one graph to the budget: charged all its fragments, pinned
// and evicted whole.
//
// Concurrent count queries on the same graph are coalesced: requests
// arriving within -coalesce-window merge into one shared traversal with
// per-request results demultiplexed back; GET /v1/stats reports batches
// formed, requests coalesced, and traversals saved. `go run ./bench
// -workload serve_mix` measures the serving path.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math/bits"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"peregrine/internal/gen"
	"peregrine/internal/server"
)

// repeatable collects repeated name=value flags.
type repeatable []string

func (r *repeatable) String() string { return strings.Join(*r, ",") }

func (r *repeatable) Set(v string) error {
	*r = append(*r, v)
	return nil
}

var datasets = map[string]gen.Dataset{
	string(gen.MicoLite):       gen.MicoLite,
	string(gen.PatentsLite):    gen.PatentsLite,
	string(gen.PatentsLabeled): gen.PatentsLabeled,
	string(gen.OrkutLite):      gen.OrkutLite,
	string(gen.FriendsterLite): gen.FriendsterLite,
}

func main() {
	var graphFlags, datasetFlags repeatable
	addr := flag.String("addr", ":8080", "listen address")
	jobTTL := flag.Duration("job-ttl", server.DefaultJobTTL, "evict finished jobs after this long (0 keeps them forever)")
	attachTimeout := flag.Duration("stream-attach-timeout", server.DefaultStreamAttachTimeout,
		"cancel a streaming job whose stream is not consumed within this long (0 disables)")
	maxGraphBytes := flag.String("max-graph-bytes", "0",
		"memory budget for loaded graphs, e.g. 512M or 2G (0 = unlimited); idle graphs evict LRU-first past it")
	coalesceWindow := flag.Duration("coalesce-window", server.DefaultCoalesceWindow,
		"micro-batch window: concurrent count queries on the same graph arriving within it share one traversal (0 disables coalescing)")
	flag.Var(&graphFlags, "graph", "register a graph file (edge list, .pgr or shard manifest, auto-detected) as name=path (repeatable)")
	flag.Var(&datasetFlags, "dataset", "register a built-in dataset as name=dataset[@scale] (repeatable)")
	flag.Parse()

	if len(graphFlags) == 0 && len(datasetFlags) == 0 {
		fmt.Fprintln(os.Stderr, "peregrine-serve: no graphs registered; pass -graph and/or -dataset")
		flag.Usage()
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	budget, err := parseBytes(*maxGraphBytes)
	if err != nil {
		fatal(fmt.Errorf("-max-graph-bytes: %w", err))
	}

	reg := server.NewRegistry()
	reg.SetMaxBytes(budget)
	for _, spec := range graphFlags {
		name, path, err := splitSpec(spec)
		if err != nil {
			fatal(err)
		}
		if _, err := os.Stat(path); err != nil {
			fatal(fmt.Errorf("graph %q: %w", name, err))
		}
		reg.AddFile(name, path)
	}
	for _, spec := range datasetFlags {
		name, rest, err := splitSpec(spec)
		if err != nil {
			fatal(err)
		}
		ds, scale, err := parseDataset(rest)
		if err != nil {
			fatal(fmt.Errorf("dataset %q: %w", name, err))
		}
		reg.AddDataset(name, ds, scale)
	}

	srv := server.NewServer(ctx, reg)
	srv.Jobs().SetTTL(*jobTTL)
	srv.SetStreamAttachTimeout(*attachTimeout)
	srv.SetCoalescing(server.CoalesceConfig{Window: *coalesceWindow})
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	go func() {
		<-ctx.Done()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = httpSrv.Shutdown(shutdownCtx)
	}()

	fmt.Fprintf(os.Stderr, "peregrine-serve: listening on %s with %d graph(s)\n",
		*addr, len(graphFlags)+len(datasetFlags))
	if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatal(err)
	}
}

func splitSpec(spec string) (name, value string, err error) {
	name, value, ok := strings.Cut(spec, "=")
	if !ok || name == "" || value == "" {
		return "", "", fmt.Errorf("bad spec %q: want name=value", spec)
	}
	return name, value, nil
}

func parseDataset(spec string) (gen.Dataset, int, error) {
	kind, scaleStr, hasScale := strings.Cut(spec, "@")
	ds, ok := datasets[kind]
	if !ok {
		return "", 0, fmt.Errorf("unknown dataset %q", kind)
	}
	scale := 1
	if hasScale {
		n, err := strconv.Atoi(scaleStr)
		if err != nil || n < 1 {
			return "", 0, fmt.Errorf("bad scale %q", scaleStr)
		}
		scale = n
	}
	return ds, scale, nil
}

// parseBytes parses a byte size with an optional binary suffix:
// "1073741824", "512M", "2G".
func parseBytes(s string) (uint64, error) {
	mult := uint64(1)
	if n := len(s); n > 0 {
		switch s[n-1] {
		case 'K', 'k':
			mult = 1 << 10
		case 'M', 'm':
			mult = 1 << 20
		case 'G', 'g':
			mult = 1 << 30
		case 'T', 't':
			mult = 1 << 40
		}
		if mult > 1 {
			s = s[:n-1]
		}
	}
	v, err := strconv.ParseUint(strings.TrimSpace(s), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad size %q", s)
	}
	hi, lo := bits.Mul64(v, mult)
	if hi != 0 {
		return 0, fmt.Errorf("size overflows 64 bits")
	}
	return lo, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "peregrine-serve:", err)
	os.Exit(1)
}
