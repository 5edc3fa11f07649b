package peregrine

// Graph sources: the public face of the pluggable storage backends in
// internal/graph. A Source describes where a data graph comes from —
// an edge-list file, an mmap-able .pgr binary, an in-memory build —
// and produces its CSR form on demand, so services can enumerate and
// budget graphs without loading them.

import (
	"fmt"
	"os"
	"strings"

	"peregrine/internal/graph"
)

// Source is a pluggable origin of one data graph: a cheap description
// (Name, Stat) plus an on-demand Load. See Open.
type Source = graph.Source

// GraphStat is what a Source knows without a full load, for formats
// that carry it (.pgr headers, shard manifests, in-memory graphs): the
// vertex, edge and label counts, the bytes a load will keep resident
// and the number of shard files behind it.
type GraphStat = graph.SourceStat

// ErrNoStat is returned by Source.Stat when the format cannot report
// metadata without a full load (text edge lists).
var ErrNoStat = graph.ErrNoStat

// GraphFormat names an on-disk graph encoding.
type GraphFormat string

const (
	// FormatAuto detects the format from the file's content: a .pgr
	// magic selects FormatBinary, a shard-manifest magic FormatSharded,
	// anything else FormatEdgeList.
	FormatAuto GraphFormat = ""
	// FormatEdgeList is the whitespace text format of LoadGraph.
	FormatEdgeList GraphFormat = "edgelist"
	// FormatBinary is the versioned .pgr binary CSR format: written
	// once (SaveGraph, gengraph -format pgr), then loaded by mmap with
	// zero parsing and zero copying wherever the platform allows.
	FormatBinary GraphFormat = "pgr"
	// FormatSharded is a shard manifest mapping contiguous vertex
	// ranges to per-shard .pgr fragment files (SaveShardedGraph,
	// gengraph -shards N). Loading maps every fragment, like a .pgr;
	// where files can be mapped the kernel pages a graph larger than
	// memory, elsewhere the fragments are decoded and must fit.
	FormatSharded GraphFormat = "sharded"
)

// OpenOption configures Open.
type OpenOption func(*openConfig)

type openConfig struct {
	format GraphFormat
}

// WithFormat forces the format of an opened path instead of detecting
// it from the file content.
func WithFormat(f GraphFormat) OpenOption {
	return func(c *openConfig) { c.format = f }
}

// Open opens a graph file as a Source without loading it. The format
// is detected from the content (or forced with WithFormat): .pgr
// binaries report Stat from the header alone and Load by mmap, edge
// lists parse on Load. The path must exist; the load itself
// is deferred until Source.Load.
//
//	src, err := peregrine.Open("graphs/mico.pgr")
//	st, _ := src.Stat()          // vertices/edges/labels/bytes, no load
//	g, err := src.Load()         // mmap (or parse), then mine on g
//	defer g.Close()
func Open(path string, opts ...OpenOption) (Source, error) {
	var c openConfig
	for _, o := range opts {
		o(&c)
	}
	switch c.format {
	case FormatAuto:
		return graph.OpenPath(path)
	case FormatEdgeList, FormatBinary, FormatSharded:
		// The existence guarantee holds for forced formats too; only
		// the content sniff is skipped.
		if _, err := os.Stat(path); err != nil {
			return nil, fmt.Errorf("peregrine: %w", err)
		}
		switch c.format {
		case FormatBinary:
			return graph.BinarySource(path), nil
		case FormatSharded:
			return graph.ShardedSource(path), nil
		}
		return graph.EdgeListSource(path), nil
	default:
		return nil, fmt.Errorf("peregrine: unknown graph format %q", c.format)
	}
}

// NewMemorySource serves an already-built graph under a name, for
// registering in-memory builds alongside file-backed sources.
func NewMemorySource(name string, g *Graph) Source { return graph.MemorySource(name, g) }

// SaveGraph writes g to path, choosing the format by extension: a
// ".pgr" suffix writes the binary CSR format, anything else the text
// edge list. Use SaveGraphAs to force a format regardless of name.
func SaveGraph(path string, g *Graph) error {
	if strings.HasSuffix(path, ".pgr") {
		return SaveGraphAs(path, g, FormatBinary)
	}
	return SaveGraphAs(path, g, FormatEdgeList)
}

// SaveGraphAs writes g to path in the given format. FormatSharded
// partitions into a default shard count; use SaveShardedGraph to
// choose it.
func SaveGraphAs(path string, g *Graph, f GraphFormat) error {
	switch f {
	case FormatBinary:
		return graph.SaveBinary(path, g)
	case FormatEdgeList, FormatAuto:
		return graph.SaveEdgeList(path, g)
	case FormatSharded:
		return SaveShardedGraph(path, g, 4)
	default:
		return fmt.Errorf("peregrine: unknown graph format %q", f)
	}
}

// SaveShardedGraph partitions g into shards contiguous vertex-range
// fragments, balanced by adjacency size, written as
// "<base>.shard<i>.pgr" files next to manifestPath plus the manifest
// itself. The manifest opens with Open/LoadGraph like any other graph
// file (see FormatSharded).
func SaveShardedGraph(manifestPath string, g *Graph, shards int) error {
	_, err := graph.SaveSharded(manifestPath, g, shards)
	return err
}
