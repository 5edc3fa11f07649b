package graph

// Sharded graph storage: a manifest file maps contiguous vertex ranges
// to per-shard .pgr fragment files, so one logical graph can live in
// many pieces — on one disk for out-of-core mining, or spread across
// serve nodes for distributed fan-out (internal/coord).
//
// The manifest is a small line-oriented text file:
//
//	PGRSHARD 1
//	graph <vertices> <edges> <labelCount> <labeled 0|1> [desc]
//	shard <lo> <hi> <file>
//	...
//
// The optional trailing "desc" token records that vertex ids were
// assigned hubs-first (RenumberDescending); it is written only when
// set, so manifests for default-ordered graphs are byte-identical to
// the previous format.
//
// Shard lines must be contiguous and ascending, covering [0, vertices)
// exactly; <file> is a path relative to the manifest's directory (no
// absolute paths, no ".." components, no whitespace). Each fragment is
// a .pgr file with the flagFragment layout (see binary.go): local
// offsets over its owned range, global neighbor ids, and each directed
// adjacency entry stored once by its owning side — so the union of the
// fragments reconstructs the full CSR exactly.
//
// A loaded sharded graph is an ordinary *Graph whose accessors route
// through a shardSet: LoadSharded loads and validates every fragment
// exactly like a whole .pgr (loadImage: mapped read-only where the
// platform allows, decoded into the heap elsewhere) and keeps them all
// behind a routing table until Close. Residency is decided one level
// up and by whole graph — the server registry charges a sharded graph
// its fragment bytes, pins it per query and evicts it idle. A mapped
// graph larger than memory still mines, paged by the kernel; a decoded
// one must fit.

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// manifestMagic begins every manifest file; the version follows it.
const manifestMagic = "PGRSHARD"

// manifestVersion is the current manifest format version.
const manifestVersion = 1

// ShardInfo is one manifest entry: the shard owns data vertices in
// [Lo, Hi) and stores its CSR fragment in File, relative to the
// manifest's directory.
type ShardInfo struct {
	Lo, Hi uint32
	File   string
}

// Manifest describes a sharded graph: whole-graph metadata plus the
// ordered, contiguous list of vertex-range shards.
type Manifest struct {
	Stat   Stat
	Shards []ShardInfo
}

// validateManifest checks the invariants both the reader and the
// writer enforce: shard ranges contiguous and ascending covering
// [0, Vertices) exactly, safe relative file paths, and consistent
// label metadata.
func validateManifest(m *Manifest) error {
	if m.Stat.Labeled && m.Stat.Labels < 1 {
		return badFormat("manifest: labeled graph with labelCount %d", m.Stat.Labels)
	}
	if !m.Stat.Labeled && m.Stat.Labels != 0 {
		return badFormat("manifest: unlabeled graph with labelCount %d", m.Stat.Labels)
	}
	if m.Stat.Vertices == 0 {
		if len(m.Shards) != 0 {
			return badFormat("manifest: empty graph with %d shards", len(m.Shards))
		}
		return nil
	}
	if len(m.Shards) == 0 {
		return badFormat("manifest: no shards for %d vertices", m.Stat.Vertices)
	}
	seen := make(map[string]struct{}, len(m.Shards))
	next := uint32(0)
	for i, sh := range m.Shards {
		if sh.Lo != next {
			return badFormat("manifest: shard %d range [%d,%d) not contiguous (want lo %d)", i, sh.Lo, sh.Hi, next)
		}
		if sh.Hi <= sh.Lo {
			return badFormat("manifest: shard %d range [%d,%d) empty or inverted", i, sh.Lo, sh.Hi)
		}
		if sh.Hi > m.Stat.Vertices {
			return badFormat("manifest: shard %d range [%d,%d) exceeds %d vertices", i, sh.Lo, sh.Hi, m.Stat.Vertices)
		}
		if err := checkShardPath(sh.File); err != nil {
			return fmt.Errorf("%w (shard %d)", err, i)
		}
		if _, dup := seen[sh.File]; dup {
			return badFormat("manifest: shard %d reuses file %q", i, sh.File)
		}
		seen[sh.File] = struct{}{}
		next = sh.Hi
	}
	if next != m.Stat.Vertices {
		return badFormat("manifest: shards cover [0,%d), graph has %d vertices", next, m.Stat.Vertices)
	}
	return nil
}

// checkShardPath rejects fragment paths that could escape the
// manifest's directory: a hostile manifest must not be able to read
// arbitrary files by absolute path or ".." traversal.
func checkShardPath(p string) error {
	if p == "" {
		return badFormat("manifest: empty shard file")
	}
	if filepath.IsAbs(p) || strings.HasPrefix(p, "/") {
		return badFormat("manifest: absolute shard path %q", p)
	}
	for _, part := range strings.Split(filepath.ToSlash(p), "/") {
		if part == "" || part == "." || part == ".." {
			return badFormat("manifest: unsafe shard path %q", p)
		}
	}
	return nil
}

// WriteManifest writes m in the manifest text format, validating first
// so a malformed Manifest cannot produce a file ReadManifest rejects.
func WriteManifest(w io.Writer, m *Manifest) error {
	if err := validateManifest(m); err != nil {
		return err
	}
	for _, sh := range m.Shards {
		// The format is whitespace-split; a name with spaces would parse
		// back as garbage.
		if strings.ContainsAny(sh.File, " \t\r\n") {
			return badFormat("manifest: shard file %q contains whitespace", sh.File)
		}
	}
	bw := bufio.NewWriter(w)
	labeled := 0
	if m.Stat.Labeled {
		labeled = 1
	}
	fmt.Fprintf(bw, "%s %d\n", manifestMagic, manifestVersion)
	desc := ""
	if m.Stat.DegreeDesc {
		desc = " desc"
	}
	fmt.Fprintf(bw, "graph %d %d %d %d%s\n", m.Stat.Vertices, m.Stat.Edges, m.Stat.Labels, labeled, desc)
	for _, sh := range m.Shards {
		fmt.Fprintf(bw, "shard %d %d %s\n", sh.Lo, sh.Hi, sh.File)
	}
	return bw.Flush()
}

// ReadManifest parses and validates a manifest from r. Every malformed
// input — bad header, overlapping or out-of-order ranges, gaps,
// truncation mid-file, unsafe paths — returns an error wrapping
// ErrBadFormat.
func ReadManifest(r io.Reader) (*Manifest, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<16)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, fmt.Errorf("graph: read manifest: %w", err)
		}
		return nil, badFormat("manifest: empty file")
	}
	if got := strings.TrimRight(sc.Text(), "\r"); got != fmt.Sprintf("%s %d", manifestMagic, manifestVersion) {
		return nil, badFormat("manifest: bad header line %q", got)
	}
	m := &Manifest{}
	sawGraph := false
	lineNo := 1
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "graph":
			if sawGraph {
				return nil, badFormat("manifest: line %d: duplicate graph line", lineNo)
			}
			if len(fields) != 5 && len(fields) != 6 {
				return nil, badFormat("manifest: line %d: want 'graph V E labels labeled [desc]'", lineNo)
			}
			if len(fields) == 6 {
				if fields[5] != "desc" {
					return nil, badFormat("manifest: line %d: unknown graph attribute %q", lineNo, fields[5])
				}
				m.Stat.DegreeDesc = true
			}
			v, err := parseU32(fields[1])
			if err != nil {
				return nil, badFormat("manifest: line %d: vertices: %v", lineNo, err)
			}
			e, err := strconv.ParseUint(fields[2], 10, 64)
			if err != nil {
				return nil, badFormat("manifest: line %d: edges: %v", lineNo, err)
			}
			lc, err := parseU32(fields[3])
			if err != nil {
				return nil, badFormat("manifest: line %d: labelCount: %v", lineNo, err)
			}
			switch fields[4] {
			case "0":
				m.Stat.Labeled = false
			case "1":
				m.Stat.Labeled = true
			default:
				return nil, badFormat("manifest: line %d: labeled flag %q", lineNo, fields[4])
			}
			m.Stat.Vertices, m.Stat.Edges, m.Stat.Labels = v, e, int(lc)
			sawGraph = true
		case "shard":
			if !sawGraph {
				return nil, badFormat("manifest: line %d: shard before graph line", lineNo)
			}
			if len(fields) != 4 {
				return nil, badFormat("manifest: line %d: want 'shard lo hi file'", lineNo)
			}
			lo, err := parseU32(fields[1])
			if err != nil {
				return nil, badFormat("manifest: line %d: lo: %v", lineNo, err)
			}
			hi, err := parseU32(fields[2])
			if err != nil {
				return nil, badFormat("manifest: line %d: hi: %v", lineNo, err)
			}
			m.Shards = append(m.Shards, ShardInfo{Lo: lo, Hi: hi, File: fields[3]})
		default:
			return nil, badFormat("manifest: line %d: unknown directive %q", lineNo, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graph: read manifest: %w", err)
	}
	if !sawGraph {
		return nil, badFormat("manifest: missing graph line")
	}
	if err := validateManifest(m); err != nil {
		return nil, err
	}
	return m, nil
}

// LoadManifest reads and validates the manifest at path.
func LoadManifest(path string) (*Manifest, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("graph: %w", err)
	}
	defer f.Close()
	m, err := ReadManifest(f)
	if err != nil {
		return nil, fmt.Errorf("%w (%s)", err, path)
	}
	return m, nil
}

// SniffManifest reports whether path begins with the manifest magic.
func SniffManifest(path string) (bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return false, fmt.Errorf("graph: %w", err)
	}
	defer f.Close()
	buf := make([]byte, len(manifestMagic)+1)
	if _, err := io.ReadFull(f, buf); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return false, nil
		}
		return false, fmt.Errorf("graph: %w", err)
	}
	return string(buf) == manifestMagic+" ", nil
}

// Fragment is one loaded shard: the CSR rows of its owned vertex range
// [Lo, Lo+Owned()), with neighbor ids global to the full graph.
type Fragment struct {
	Lo      uint32 // first owned vertex id
	Total   uint32 // vertex count of the full graph
	DegDesc bool   // ids of the full graph are hubs-first (RenumberDescending)

	offsets    []uint64 // len Owned()+1, local to the fragment
	adj        []uint32 // global neighbor ids
	labels     []uint32 // owned-range labels, nil when unlabeled
	origID     []uint32 // owned-range original ids, nil when absent
	labelCount uint32   // whole-graph distinct label count

	// release unmaps the file behind a mapped fragment (LoadFragment);
	// nil for decoded fragments and SplitGraph views. Consumed by Close.
	release func() error
}

// Owned returns the number of vertices this fragment owns.
func (f *Fragment) Owned() uint32 { return uint32(len(f.offsets) - 1) }

// Hi returns one past the last owned vertex id.
func (f *Fragment) Hi() uint32 { return f.Lo + f.Owned() }

// Adj returns the sorted global-id adjacency list of owned vertex v.
func (f *Fragment) Adj(v uint32) []uint32 {
	i := v - f.Lo
	return f.adj[f.offsets[i]:f.offsets[i+1]]
}

// Label returns the label of owned vertex v, or NoLabel when the graph
// is unlabeled.
func (f *Fragment) Label(v uint32) uint32 {
	if f.labels == nil {
		return NoLabel
	}
	return f.labels[v-f.Lo]
}

// OrigIDOf maps owned vertex v back to its original input id.
func (f *Fragment) OrigIDOf(v uint32) uint32 {
	if f.origID == nil {
		return v
	}
	return f.origID[v-f.Lo]
}

// Bytes returns the resident size of the fragment's arrays — for a
// mapped fragment, the size of the mapping less its header.
func (f *Fragment) Bytes() uint64 {
	return 8*uint64(len(f.offsets)) +
		4*uint64(len(f.adj)) +
		4*uint64(len(f.labels)) +
		4*uint64(len(f.origID))
}

// Close unmaps a mapped fragment and is a no-op for any other. Like
// Graph.Close it is idempotent, not concurrency-safe with use, and
// drops the aliasing slices so a use after Close fails fast.
func (f *Fragment) Close() error {
	if f.release == nil {
		return nil
	}
	rel := f.release
	f.release = nil
	f.offsets, f.adj, f.labels, f.origID = []uint64{0}, nil, nil, nil
	return rel()
}

// WriteFragment writes f as a flagFragment .pgr stream.
func WriteFragment(w io.Writer, f *Fragment) error {
	h := binaryHeader{
		flags:      flagFragment,
		n:          f.Owned(),
		labelCount: f.labelCount,
		numEdges:   uint64(len(f.adj)),
		adjLen:     uint64(len(f.adj)),
		fragLo:     f.Lo,
		fragTotal:  f.Total,
	}
	if f.labels != nil {
		h.flags |= flagLabels
	}
	if f.origID != nil {
		h.flags |= flagOrigID
	}
	if f.DegDesc {
		h.flags |= flagDescDegree
	}
	return writeSections(w, h, f.offsets, f.adj, f.labels, f.origID)
}

// SaveFragment writes f to path atomically.
func SaveFragment(path string, f *Fragment) error {
	return saveAtomic(path, func(w io.Writer) error { return WriteFragment(w, f) })
}

// fragmentFromImage builds a Fragment from a complete fragment .pgr
// image, aliasing it or not (see readSections), and sweeps its rows
// like a whole graph's (validateCSR).
func fragmentFromImage(data []byte, alias bool) (*Fragment, error) {
	h, err := decodeHeader(data, uint64(len(data)))
	if err != nil {
		return nil, err
	}
	if !h.fragment() {
		return nil, badFormat("file is a whole graph, not a shard fragment")
	}
	s := readSections(data, h, alias)
	f := &Fragment{
		Lo:         h.fragLo,
		Total:      h.fragTotal,
		DegDesc:    h.descDegree(),
		offsets:    s.offsets,
		adj:        s.adj,
		labels:     s.labels,
		origID:     s.origID,
		labelCount: h.labelCount,
	}
	if err := validateCSR(f.offsets, f.adj, f.Lo, uint64(f.Total)); err != nil {
		return nil, err
	}
	return f, nil
}

// ReadFragment parses a complete fragment .pgr stream into the heap.
func ReadFragment(r io.Reader) (*Fragment, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("graph: read fragment: %w", err)
	}
	return fragmentFromImage(data, false)
}

// LoadFragment loads the fragment at path the way LoadBinary loads a
// whole graph: mapped read-only where the platform allows, decoded
// into the heap elsewhere. The caller owns the result and releases it
// with Close.
func LoadFragment(path string) (*Fragment, error) {
	f, unmap, err := loadImage(path, fragmentFromImage)
	if err != nil {
		return nil, fmt.Errorf("%w (%s)", err, path)
	}
	f.release = unmap
	return f, nil
}

// SplitGraph cuts g into at most shards contiguous vertex-range
// fragments, balancing by adjacency entries (so a hub-heavy suffix of
// the degree-ordered id space doesn't land in one shard). Fragments
// alias g's arrays; they are valid as long as g is.
func SplitGraph(g *Graph, shards int) []*Fragment {
	if g.sh != nil {
		// Splitting an already-sharded graph would need a materialized
		// CSR; callers load into memory first.
		panic("graph: SplitGraph on a sharded graph")
	}
	n := g.NumVertices()
	if shards < 1 {
		shards = 1
	}
	if uint64(shards) > uint64(n) {
		shards = int(n)
	}
	if n == 0 {
		return nil
	}
	total := uint64(len(g.adj))
	frags := make([]*Fragment, 0, shards)
	lo := uint32(0)
	for s := 0; s < shards; s++ {
		hi := n
		if s < shards-1 {
			target := total * uint64(s+1) / uint64(shards)
			hi = lo + 1
			for hi < n && g.offsets[hi] < target {
				hi++
			}
			// Leave at least one vertex for each remaining shard.
			if max := n - uint32(shards-1-s); hi > max {
				hi = max
			}
		}
		frags = append(frags, fragmentOf(g, lo, hi))
		lo = hi
	}
	return frags
}

// fragmentOf cuts the rows [lo, hi) of g into a Fragment view.
func fragmentOf(g *Graph, lo, hi uint32) *Fragment {
	base := g.offsets[lo]
	off := make([]uint64, hi-lo+1)
	for i := range off {
		off[i] = g.offsets[lo+uint32(i)] - base
	}
	f := &Fragment{
		Lo:         lo,
		Total:      g.NumVertices(),
		DegDesc:    g.degDesc,
		offsets:    off,
		adj:        g.adj[base:g.offsets[hi]],
		labelCount: uint32(g.labelCount),
	}
	if g.labels != nil {
		f.labels = g.labels[lo:hi]
	}
	if g.origID != nil {
		f.origID = g.origID[lo:hi]
	}
	return f
}

// SaveSharded partitions g into shards fragments next to manifestPath
// and writes the manifest atomically. Fragment files are named after
// the manifest's base name (minus a ".manifest" suffix, if any):
// "<base>.shard<i>.pgr". It returns the written manifest.
func SaveSharded(manifestPath string, g *Graph, shards int) (*Manifest, error) {
	if g.sh != nil {
		return nil, errors.New("graph: cannot re-shard a sharded graph; load it into memory first")
	}
	frags := SplitGraph(g, shards)
	dir := filepath.Dir(manifestPath)
	base := strings.TrimSuffix(filepath.Base(manifestPath), ".manifest")
	m := &Manifest{Stat: StatOf(g), Shards: make([]ShardInfo, len(frags))}
	for i, f := range frags {
		name := fmt.Sprintf("%s.shard%d.pgr", base, i)
		if err := SaveFragment(filepath.Join(dir, name), f); err != nil {
			return nil, err
		}
		m.Shards[i] = ShardInfo{Lo: f.Lo, Hi: f.Hi(), File: name}
	}
	if err := saveAtomic(manifestPath, func(w io.Writer) error { return WriteManifest(w, m) }); err != nil {
		return nil, err
	}
	return m, nil
}

// shardSet is the storage behind a sharded *Graph: every fragment of
// the manifest, loaded, and the routing table that finds a vertex's
// owner. It is immutable between LoadSharded and Close, so readers need
// no synchronization.
type shardSet struct {
	stat  Stat
	lo    []uint32 // fragment i owns [lo[i], lo[i+1]); the last runs to stat.Vertices
	frags []*Fragment
}

// owner returns the index of the fragment owning vertex v. Ranges are
// contiguous from 0, so this is a binary search over the lo array.
func (s *shardSet) owner(v uint32) int {
	return sort.Search(len(s.lo), func(i int) bool { return s.lo[i] > v }) - 1
}

// The routed accessors behind Graph.Adj/Label/OrigID. They are methods
// rather than expressions in those accessors so the search stays out
// of line there: Graph.Label and Graph.OrigID fit the compiler's
// inlining budget for whole graphs only while the sharded branch is a
// single call.
func (s *shardSet) adj(v uint32) []uint32    { return s.frags[s.owner(v)].Adj(v) }
func (s *shardSet) label(v uint32) uint32    { return s.frags[s.owner(v)].Label(v) }
func (s *shardSet) origIDOf(v uint32) uint32 { return s.frags[s.owner(v)].OrigIDOf(v) }

// close releases every fragment and empties the set, so the graph
// reports no data afterwards, like a closed whole graph.
func (s *shardSet) close() error {
	var first error
	for _, f := range s.frags {
		if err := f.Close(); err != nil && first == nil {
			first = err
		}
	}
	*s = shardSet{}
	return first
}

// checkFragment verifies a loaded fragment matches its manifest entry,
// so a swapped or stale file fails loudly instead of mis-routing.
func checkFragment(m *Manifest, i int, f *Fragment) error {
	sh := m.Shards[i]
	if f.Lo != sh.Lo || f.Hi() != sh.Hi {
		return badFormat("fragment range [%d,%d) does not match manifest [%d,%d)", f.Lo, f.Hi(), sh.Lo, sh.Hi)
	}
	if f.Total != m.Stat.Vertices {
		return badFormat("fragment total %d does not match manifest %d vertices", f.Total, m.Stat.Vertices)
	}
	if (f.labels != nil) != m.Stat.Labeled {
		return badFormat("fragment label section does not match manifest")
	}
	if f.DegDesc != m.Stat.DegreeDesc {
		return badFormat("fragment degree-order flag does not match manifest")
	}
	return nil
}

// LoadSharded opens the manifest at path and loads every fragment it
// names (see LoadFragment), checking each against its manifest entry
// before returning: a missing, truncated, corrupt or swapped fragment
// is this call's error, and nothing stays mapped behind it.
func LoadSharded(path string) (*Graph, error) {
	m, err := LoadManifest(path)
	if err != nil {
		return nil, err
	}
	s := &shardSet{stat: m.Stat}
	for i, sh := range m.Shards {
		f, err := LoadFragment(filepath.Join(filepath.Dir(path), sh.File))
		if err == nil {
			s.lo = append(s.lo, sh.Lo)
			s.frags = append(s.frags, f) // before the check, so a mismatch is unmapped too
			err = checkFragment(m, i, f)
		}
		if err != nil {
			_ = s.close()
			return nil, fmt.Errorf("graph: shard %d: %w", i, err)
		}
	}
	return &Graph{sh: s}, nil
}

// Shards is the fragment count of a loaded sharded graph, 0 for a
// graph that is not sharded. Every fragment is loaded for as long as
// the graph is, so there is nothing finer to count.
func (g *Graph) Shards() int {
	if g.sh == nil {
		return 0
	}
	return len(g.sh.frags)
}

// ShardedSource serves a sharded graph described by a manifest file.
// Stat comes from the manifest alone; Load is LoadSharded.
func ShardedSource(path string) Source { return &shardedSource{path: path} }

type shardedSource struct {
	path string

	mu sync.Mutex
	m  *Manifest // memoized parse; manifest files are write-once
}

func (s *shardedSource) manifest() (*Manifest, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.m == nil {
		m, err := LoadManifest(s.path)
		if err != nil {
			return nil, err
		}
		s.m = m
	}
	return s.m, nil
}

func (s *shardedSource) Name() string { return "shard:" + s.path }

func (s *shardedSource) Stat() (Stat, error) {
	m, err := s.manifest()
	if err != nil {
		return Stat{}, err
	}
	return m.Stat, nil
}

func (s *shardedSource) Load() (*Graph, error) { return LoadSharded(s.path) }

// Bytes sums the on-disk fragment sizes: what a load maps.
func (s *shardedSource) Bytes() uint64 {
	m, err := s.manifest()
	if err != nil {
		return 0
	}
	dir := filepath.Dir(s.path)
	var total uint64
	for _, sh := range m.Shards {
		if fi, err := os.Stat(filepath.Join(dir, sh.File)); err == nil {
			total += uint64(fi.Size())
		}
	}
	return total
}

// ShardCount reports the number of shards in the manifest, 0 when the
// manifest is unreadable. Used by registry listings for unloaded
// sharded graphs.
func (s *shardedSource) ShardCount() int {
	m, err := s.manifest()
	if err != nil {
		return 0
	}
	return len(m.Shards)
}

// ShardCounter is implemented by sources that know their shard count
// without a load.
type ShardCounter interface {
	ShardCount() int
}
