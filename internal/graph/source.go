package graph

// Sources make the data graph's origin a first-class, pluggable API
// instead of a parser side effect: anything that can describe itself
// cheaply and produce a CSR Graph on demand — a text edge list, an
// mmap-able .pgr file, an in-memory build, a synthetic generator — can
// sit behind the same interface. The server registry holds Sources
// rather than Graphs, which is what lets it report metadata before
// loading, account resident bytes, and evict idle graphs under a
// memory budget (reloading them lazily through the same Source).

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
)

// Stat is the whole-graph metadata every graph carries, and the .pgr
// header and shard manifest record.
type Stat struct {
	Vertices uint32
	Edges    uint64
	Labels   int  // distinct labels; 0 when unlabeled
	Labeled  bool // whether the graph carries vertex labels
	// DegreeDesc reports ids assigned hubs-first (RenumberDescending);
	// false is Build's degree-ascending default.
	DegreeDesc bool
}

// SourceStat is what a source knows before a load, in one answer: the
// graph's Stat, and how it will sit in memory.
type SourceStat struct {
	Stat
	// Bytes is the resident size a load will cost — what Graph.Bytes
	// reports after it (the .pgr and fragment headers imply it exactly;
	// an in-memory graph measures itself); 0 means unknown until loaded.
	Bytes uint64
	// Shards is the number of fragment files behind the graph
	// (Graph.Shards after the load); 0 unless it is a shard manifest.
	Shards int
}

// ErrNoStat is returned by Source.Stat when the format cannot report
// metadata without a full load (a text edge list must be parsed end to
// end to know anything).
var ErrNoStat = errors.New("graph: source metadata requires a full load")

// Source is a pluggable origin of one data graph.
//
// A Source is a recipe, not a cache: Load does its work every call,
// and callers own the returned Graph's lifetime (Close releases any
// backing mmap). That split is deliberate — the registry layer that
// caches loaded graphs also decides when to evict them, which only
// works if the Source underneath holds no hidden reference.
type Source interface {
	// Name describes the source, e.g. "file:graphs/mico.pgr".
	Name() string
	// Stat returns the counts, resident size and shard count of the
	// graph without loading it, or ErrNoStat when the format cannot
	// know them cheaply.
	Stat() (SourceStat, error)
	// Load produces the CSR graph. Unless the source is Shared, each
	// call returns a graph owned by the caller, released with
	// Graph.Close.
	Load() (*Graph, error)
}

// SharedLoader marks sources whose Load returns one shared Graph
// instance rather than a caller-owned copy (MemorySource). Callers
// must not Close a shared graph, and cache layers must treat it as
// permanently resident: "evicting" it would free nothing (the source
// keeps the reference) while Closing it would gut an instance other
// holders still use.
type SharedLoader interface {
	SharedLoad() bool
}

// Shared reports whether src serves one shared graph instance.
func Shared(src Source) bool {
	sl, ok := src.(SharedLoader)
	return ok && sl.SharedLoad()
}

// StatOf derives a Stat from a loaded graph.
func StatOf(g *Graph) Stat {
	return Stat{
		Vertices:   g.NumVertices(),
		Edges:      g.NumEdges(),
		Labels:     g.NumLabels(),
		Labeled:    g.Labeled(),
		DegreeDesc: g.DegreeDescending(),
	}
}

// SourceStatOf is the SourceStat of a loaded graph: what a source that
// could predict everything would have answered before the load.
func SourceStatOf(g *Graph) SourceStat {
	return SourceStat{Stat: StatOf(g), Bytes: g.Bytes(), Shards: g.Shards()}
}

// MemorySource serves an already-built in-memory graph (Build,
// FromEdges, or a generator output) under a name. Unlike file-backed
// sources, it cannot recreate its graph: if the instance is Closed —
// e.g. it was mmap-backed and a registry memory budget evicted it —
// subsequent Loads fail loudly instead of serving the gutted graph.
func MemorySource(name string, g *Graph) Source {
	return memSource{name: name, g: g, st: SourceStatOf(g)}
}

type memSource struct {
	name string
	g    *Graph
	st   SourceStat // stat at registration, to detect a Close in between
}

func (s memSource) Name() string              { return s.name }
func (s memSource) Stat() (SourceStat, error) { return s.st, nil }
func (s memSource) Load() (*Graph, error) {
	// Load hands out the same instance forever. A graph its owner
	// Closed is empty now — unrecoverable from here, so fail rather
	// than silently matching nothing. (Register the .pgr path itself to
	// make a graph reloadable.)
	if StatOf(s.g) != s.st.Stat {
		return nil, fmt.Errorf("graph: memory source %q: graph was closed; register its file instead to allow reload", s.name)
	}
	return s.g, nil
}
func (s memSource) SharedLoad() bool { return true }

// FuncSource serves a graph produced by fn on every Load — the seam
// for synthetic datasets and tests. fn must build a fresh graph per
// call (Source.Load's ownership contract); wrap a fixed instance with
// MemorySource instead.
func FuncSource(name string, fn func() (*Graph, error)) Source {
	return funcSource{name: name, fn: fn}
}

type funcSource struct {
	name string
	fn   func() (*Graph, error)
}

func (s funcSource) Name() string              { return s.name }
func (s funcSource) Stat() (SourceStat, error) { return SourceStat{}, ErrNoStat }
func (s funcSource) Load() (*Graph, error)     { return s.fn() }

// EdgeListSource serves a whitespace edge-list file (see LoadEdgeList).
// Text carries no cheap metadata: Stat reports ErrNoStat.
func EdgeListSource(path string) Source { return edgeListSource{path: path} }

type edgeListSource struct{ path string }

func (s edgeListSource) Name() string              { return "edgelist:" + s.path }
func (s edgeListSource) Stat() (SourceStat, error) { return SourceStat{}, ErrNoStat }
func (s edgeListSource) Load() (*Graph, error)     { return LoadEdgeList(s.path) }

// BinarySource serves a .pgr file: Stat comes from the header alone,
// and Load maps the file into memory where the platform allows (see
// LoadBinary).
func BinarySource(path string) Source { return binarySource{path: path} }

type binarySource struct{ path string }

func (s binarySource) Name() string              { return "pgr:" + s.path }
func (s binarySource) Stat() (SourceStat, error) { return StatBinary(s.path) }
func (s binarySource) Load() (*Graph, error)     { return LoadBinary(s.path) }

// FileSource serves a graph file in any supported format — .pgr
// binary, shard manifest, or text edge list — sniffing the magic
// bytes on each use. Detection is deferred to use — not done
// once at registration — so a file that appears, changes format, or
// recovers from a transient read failure behaves like any other lazy
// load instead of being frozen by a stale sniff.
func FileSource(path string) Source { return fileSource{path: path} }

type fileSource struct{ path string }

func (s fileSource) Name() string { return "file:" + s.path }

// resolve reads the head of the file once and picks the source of the
// format whose magic it carries: the edge list's when neither does.
func (s fileSource) resolve() (Source, error) {
	f, err := os.Open(s.path)
	if err != nil {
		return nil, fmt.Errorf("graph: %w", err)
	}
	defer f.Close()
	head := make([]byte, len(manifestMagic)+1)
	n, err := io.ReadFull(f, head)
	if err != nil && !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
		// A real read failure must surface, not silently classify the
		// file as an edge list; a short file is just not binary.
		return nil, fmt.Errorf("graph: %w", err)
	}
	switch head = head[:n]; {
	case bytes.HasPrefix(head, binaryMagic[:]):
		return BinarySource(s.path), nil
	case string(head) == manifestMagic+" ":
		return ShardedSource(s.path), nil
	}
	return EdgeListSource(s.path), nil
}

func (s fileSource) Stat() (SourceStat, error) {
	r, err := s.resolve()
	if err != nil {
		return SourceStat{}, err
	}
	return r.Stat()
}

func (s fileSource) Load() (*Graph, error) {
	r, err := s.resolve()
	if err != nil {
		return nil, err
	}
	return r.Load()
}

// OpenPath opens path as a graph Source, detecting the format eagerly:
// a .pgr magic selects the binary source, a shard-manifest magic the
// sharded source, anything else the edge-list parser. Unlike
// FileSource, an unreadable path fails here rather than at first load.
func OpenPath(path string) (Source, error) { return fileSource{path: path}.resolve() }
