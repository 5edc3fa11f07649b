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
// A loaded sharded graph is an ordinary *Graph with one piece of rows
// per fragment (see Graph.pieces): LoadSharded loads and validates every
// fragment exactly like a whole .pgr (loadImage: mapped read-only where
// the platform allows, decoded into the heap elsewhere) and keeps them
// all until Close. Residency is decided one level up and by whole graph
// — the server registry charges a sharded graph its fragment bytes, pins
// it per query and evicts it idle. A mapped graph larger than memory
// still mines, paged by the kernel; a decoded one must fit.

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
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

// SplitGraph cuts g into at most shards contiguous vertex-range
// fragments, balancing by adjacency entries (so a hub-heavy suffix of
// the degree-ordered id space doesn't land in one shard). A fragment is
// a one-piece Graph as ReadFragment returns it, aliasing g's arrays: it
// is valid as long as g is.
func SplitGraph(g *Graph, shards int) ([]*Graph, error) {
	p, err := g.contiguous()
	if err != nil {
		return nil, err
	}
	n := g.NumVertices()
	if shards < 1 {
		shards = 1
	}
	if uint64(shards) > uint64(n) {
		shards = int(n)
	}
	total := uint64(len(p.adj))
	frags := make([]*Graph, 0, shards)
	lo := uint32(0)
	for s := 0; s < shards; s++ {
		hi := n
		if s < shards-1 {
			target := total * uint64(s+1) / uint64(shards)
			hi = lo + 1
			for hi < n && p.offsets[hi] < target {
				hi++
			}
			// Leave at least one vertex for each remaining shard.
			if max := n - uint32(shards-1-s); hi > max {
				hi = max
			}
		}
		base := p.offsets[lo]
		cut := rows{lo: lo, offsets: make([]uint64, hi-lo+1), adj: p.adj[base:p.offsets[hi]]}
		for i := range cut.offsets {
			cut.offsets[i] = p.offsets[lo+uint32(i)] - base
		}
		if p.labels != nil {
			cut.labels = p.labels[lo:hi]
		}
		if p.origID != nil {
			cut.origID = p.origID[lo:hi]
		}
		f := &Graph{stat: g.stat, pieces: []rows{cut}}
		f.stat.Edges = uint64(len(cut.adj))
		frags = append(frags, f)
		lo = hi
	}
	return frags, nil
}

// SaveSharded partitions g into shards fragments next to manifestPath
// and writes the manifest atomically. Fragment files are named after
// the manifest's base name (minus a ".manifest" suffix, if any):
// "<base>.shard<i>.pgr". It returns the written manifest.
func SaveSharded(manifestPath string, g *Graph, shards int) (*Manifest, error) {
	frags, err := SplitGraph(g, shards)
	if err != nil {
		return nil, err
	}
	dir := filepath.Dir(manifestPath)
	base := strings.TrimSuffix(filepath.Base(manifestPath), ".manifest")
	m := &Manifest{Stat: StatOf(g), Shards: make([]ShardInfo, len(frags))}
	for i, f := range frags {
		name := fmt.Sprintf("%s.shard%d.pgr", base, i)
		if err := SaveFragment(filepath.Join(dir, name), f); err != nil {
			return nil, err
		}
		m.Shards[i] = ShardInfo{Lo: f.pieces[0].lo, Hi: f.pieces[0].hi(), File: name}
	}
	if err := saveAtomic(manifestPath, func(w io.Writer) error { return WriteManifest(w, m) }); err != nil {
		return nil, err
	}
	return m, nil
}

// checkFragment verifies a loaded fragment matches its manifest entry,
// so a swapped or stale file fails loudly instead of mis-routing.
func checkFragment(m *Manifest, i int, f *Graph) error {
	sh, p := m.Shards[i], &f.pieces[0]
	if p.lo != sh.Lo || p.hi() != sh.Hi {
		return badFormat("fragment range [%d,%d) does not match manifest [%d,%d)", p.lo, p.hi(), sh.Lo, sh.Hi)
	}
	if f.stat.Vertices != m.Stat.Vertices {
		return badFormat("fragment total %d does not match manifest %d vertices", f.stat.Vertices, m.Stat.Vertices)
	}
	if (p.labels != nil) != m.Stat.Labeled {
		return badFormat("fragment label section does not match manifest")
	}
	if f.stat.DegreeDesc != m.Stat.DegreeDesc {
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
	g := &Graph{stat: m.Stat, sharded: true}
	for i, sh := range m.Shards {
		file := filepath.Join(filepath.Dir(path), sh.File)
		f, err := LoadFragment(file)
		if err == nil {
			g.pieces = append(g.pieces, f.pieces[0]) // before the check, so a mismatch is unmapped too
			err = checkFragment(m, i, f)
		}
		if err != nil {
			_ = g.Close()
			return nil, fmt.Errorf("graph: shard %d: %w (%s)", i, err, file)
		}
	}
	return g, nil
}

// Shards is the fragment count of a loaded sharded graph, 0 for a
// graph that is not sharded. Every fragment is loaded for as long as
// the graph is, so there is nothing finer to count.
func (g *Graph) Shards() int {
	if !g.sharded {
		return 0
	}
	return len(g.pieces)
}

// ShardedSource serves a sharded graph described by a manifest file.
// Stat reads the manifest and sizes the fragment files; Load is
// LoadSharded.
func ShardedSource(path string) Source { return shardedSource{path: path} }

type shardedSource struct{ path string }

func (s shardedSource) Name() string          { return "shard:" + s.path }
func (s shardedSource) Load() (*Graph, error) { return LoadSharded(s.path) }

func (s shardedSource) Stat() (SourceStat, error) {
	m, err := LoadManifest(s.path)
	if err != nil {
		return SourceStat{}, err
	}
	st := SourceStat{Stat: m.Stat, Shards: len(m.Shards)}
	for _, sh := range m.Shards {
		// A load holds each fragment's arrays: its file less the header.
		// A fragment that is missing right now is the load's error to
		// report, not the listing's.
		if fi, err := os.Stat(filepath.Join(filepath.Dir(s.path), sh.File)); err == nil && fi.Size() > headerSize {
			st.Bytes += uint64(fi.Size()) - headerSize
		}
	}
	return st, nil
}
