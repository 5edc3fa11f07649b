package graph

// The .pgr binary format: the CSR arrays of a built Graph, laid out so
// a reader can mmap the file and alias its sections directly as the
// Graph's slices — zero parse, zero copy, shareable between processes
// through the page cache. Loading becomes a header validation plus an
// O(E) integrity sweep instead of re-tokenizing and re-sorting a text
// edge list, which is what makes serving many large graphs from one
// registry feasible (see internal/server).
//
// Layout (all fixed-width fields little-endian):
//
//	[0:8)    magic "PGRCSR\x00\x01"
//	[8:12)   version  uint32 (currently 1)
//	[12:16)  flags    uint32 (bit 0: labels section, bit 1: origID
//	         section, bit 2: shard fragment, bit 3: ids assigned in
//	         descending-degree order — no extra section, layout only)
//	[16:20)  numVertices uint32
//	[20:24)  labelCount  uint32
//	[24:32)  numEdges    uint64
//	[32:40)  adjLen      uint64 (= len(adj) = 2*numEdges)
//	[40:64)  reserved, zero
//	[64:..)  offsets  (numVertices+1) × uint64
//	[..)     adj      adjLen × uint32
//	[..)     labels   numVertices × uint32   (iff flags bit 0)
//	[..)     origID   numVertices × uint32   (iff flags bit 1)
//
// A shard fragment (flags bit 2, written by SaveSharded and loaded only
// through its manifest — see shard.go) reinterprets the same layout for
// a contiguous owned vertex range [fragLo, fragLo+numVertices):
// numVertices counts owned vertices, offsets are local to the fragment,
// adj holds *global* neighbor ids (including cross-shard boundary
// edges, each stored once here), numEdges equals adjLen (stored
// directed entries — an undirected edge inside one shard appears twice,
// a boundary edge once per owning side), and two formerly-reserved
// words carry the placement: [40:44) fragLo, [44:48) fragTotal (the
// full graph's vertex count). The whole-graph loaders reject fragment
// files so a stray shard can't be served as a complete graph.
//
// Section sizes are fully determined by the header, and the file size
// must match exactly; the 64-byte header keeps the offsets section
// 8-aligned in a page-aligned mapping, and every later section is a
// uint32 array, so alignment holds throughout.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"os"
	"unsafe"
)

// binaryMagic identifies a .pgr file. The trailing version byte is
// redundant with the header's version field but makes truncated or
// wrong-endian files fail the cheapest possible check first.
var binaryMagic = [8]byte{'P', 'G', 'R', 'C', 'S', 'R', 0, 1}

const (
	binaryVersion = 1
	headerSize    = 64

	flagLabels     uint32 = 1 << 0
	flagOrigID     uint32 = 1 << 1
	flagFragment   uint32 = 1 << 2
	flagDescDegree uint32 = 1 << 3
	flagsKnown            = flagLabels | flagOrigID | flagFragment | flagDescDegree
)

// ErrBadFormat wraps every malformed-.pgr error so callers can
// distinguish corruption from I/O failures.
var ErrBadFormat = errors.New("graph: bad .pgr data")

// errMmapUnsupported signals that this platform (or host byte order)
// cannot alias the file; loadImage falls back to reading and decoding.
var errMmapUnsupported = errors.New("graph: mmap unsupported")

func badFormat(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrBadFormat, fmt.Sprintf(format, args...))
}

// binaryHeader is the decoded fixed-size .pgr header.
type binaryHeader struct {
	flags      uint32
	n          uint32 // numVertices (for fragments: owned vertex count)
	labelCount uint32
	numEdges   uint64
	adjLen     uint64

	// Fragment-only fields, stored in formerly-reserved header bytes
	// (see the layout comment above). Zero for whole-graph files.
	fragLo    uint32 // first owned vertex id
	fragTotal uint32 // vertex count of the full sharded graph
}

func (h binaryHeader) hasLabels() bool  { return h.flags&flagLabels != 0 }
func (h binaryHeader) hasOrigID() bool  { return h.flags&flagOrigID != 0 }
func (h binaryHeader) fragment() bool   { return h.flags&flagFragment != 0 }
func (h binaryHeader) descDegree() bool { return h.flags&flagDescDegree != 0 }

// fileBytes returns the exact size of a well-formed file with this
// header — also the resident footprint of the mmap-backed Graph — or
// ok=false when the header's counts overflow uint64 arithmetic (a
// crafted header whose wrapped total matches a tiny file must not
// pass the size check).
func (h binaryHeader) fileBytes() (uint64, bool) {
	total, ok := uint64(headerSize), true
	add := func(elemSize, count uint64) {
		hi, lo := bits.Mul64(elemSize, count)
		var carry uint64
		total, carry = bits.Add64(total, lo, 0)
		if hi != 0 || carry != 0 {
			ok = false
		}
	}
	add(8, uint64(h.n)+1) // offsets
	add(4, h.adjLen)      // adj
	if h.hasLabels() {
		add(4, uint64(h.n))
	}
	if h.hasOrigID() {
		add(4, uint64(h.n))
	}
	return total, ok
}

func (h binaryHeader) encode() []byte {
	buf := make([]byte, headerSize)
	copy(buf, binaryMagic[:])
	binary.LittleEndian.PutUint32(buf[8:], binaryVersion)
	binary.LittleEndian.PutUint32(buf[12:], h.flags)
	binary.LittleEndian.PutUint32(buf[16:], h.n)
	binary.LittleEndian.PutUint32(buf[20:], h.labelCount)
	binary.LittleEndian.PutUint64(buf[24:], h.numEdges)
	binary.LittleEndian.PutUint64(buf[32:], h.adjLen)
	if h.fragment() {
		binary.LittleEndian.PutUint32(buf[40:], h.fragLo)
		binary.LittleEndian.PutUint32(buf[44:], h.fragTotal)
	}
	return buf
}

// decodeHeader validates the fixed-size header. maxBytes, when nonzero,
// is the size of the available data (file or buffer); the decoded
// header's implied file size must match it exactly.
func decodeHeader(buf []byte, maxBytes uint64) (binaryHeader, error) {
	var h binaryHeader
	if len(buf) < headerSize {
		return h, badFormat("short header: %d bytes", len(buf))
	}
	if [8]byte(buf[:8]) != binaryMagic {
		return h, badFormat("bad magic %q", buf[:8])
	}
	if v := binary.LittleEndian.Uint32(buf[8:]); v != binaryVersion {
		return h, badFormat("unsupported version %d", v)
	}
	h.flags = binary.LittleEndian.Uint32(buf[12:])
	h.n = binary.LittleEndian.Uint32(buf[16:])
	h.labelCount = binary.LittleEndian.Uint32(buf[20:])
	h.numEdges = binary.LittleEndian.Uint64(buf[24:])
	h.adjLen = binary.LittleEndian.Uint64(buf[32:])
	if h.flags&^flagsKnown != 0 {
		return h, badFormat("unknown flags %#x", h.flags)
	}
	reservedFrom := 40
	if h.fragment() {
		h.fragLo = binary.LittleEndian.Uint32(buf[40:])
		h.fragTotal = binary.LittleEndian.Uint32(buf[44:])
		reservedFrom = 48
	}
	for i := reservedFrom; i < headerSize; i++ {
		if buf[i] != 0 {
			return h, badFormat("nonzero reserved header bytes")
		}
	}
	if h.fragment() {
		// Fragments store each directed adjacency entry once; a boundary
		// edge appears only on its owning side, so there is no 2*E
		// relation to enforce — numEdges simply mirrors adjLen.
		if h.numEdges != h.adjLen {
			return h, badFormat("fragment numEdges %d != adjLen %d", h.numEdges, h.adjLen)
		}
		if uint64(h.fragLo)+uint64(h.n) > uint64(h.fragTotal) {
			return h, badFormat("fragment range [%d,%d) exceeds total %d vertices",
				h.fragLo, uint64(h.fragLo)+uint64(h.n), h.fragTotal)
		}
	} else if h.adjLen != 2*h.numEdges {
		return h, badFormat("adjLen %d != 2*numEdges %d", h.adjLen, h.numEdges)
	}
	if h.hasLabels() == (h.labelCount == 0) && h.n > 0 {
		return h, badFormat("labelCount %d inconsistent with flags %#x", h.labelCount, h.flags)
	}
	// Reject sizes that cannot be real before any allocation: adjLen is
	// bounded by n*(n-1) for a simple whole graph, and by owned*total
	// for a fragment.
	adjCap := uint64(h.n) * uint64(h.n)
	if h.fragment() {
		adjCap = uint64(h.n) * uint64(h.fragTotal)
	}
	if h.adjLen > adjCap {
		return h, badFormat("adjLen %d impossible for %d vertices", h.adjLen, h.n)
	}
	implied, ok := h.fileBytes()
	if !ok {
		return h, badFormat("section sizes overflow")
	}
	if maxBytes > 0 && implied != maxBytes {
		return h, badFormat("file is %d bytes, header implies %d", maxBytes, implied)
	}
	return h, nil
}

// contiguous returns g's rows when one piece holds them all — what
// writing an image and cutting fragments need — and an error for a
// sharded graph, whose rows lie in several mappings: the one refusal of
// sharded input.
func (g *Graph) contiguous() (*rows, error) {
	switch len(g.pieces) {
	case 0:
		return &rows{offsets: []uint64{0}}, nil
	case 1:
		return &g.pieces[0], nil
	}
	return nil, errors.New("graph: a sharded graph cannot be written or re-sharded; load it into memory first")
}

// WriteBinary writes g to w in the .pgr binary format.
func WriteBinary(w io.Writer, g *Graph) error { return writeImage(w, g, false) }

// WriteFragment writes the fragment f (see SplitGraph) as a
// flagFragment .pgr stream.
func WriteFragment(w io.Writer, f *Graph) error { return writeImage(w, f, true) }

// writeImage writes the header g's one piece implies, whole graph or
// fragment, followed by its offsets and uint32 sections.
func writeImage(w io.Writer, g *Graph, fragment bool) error {
	p, err := g.contiguous()
	if err != nil {
		return err
	}
	h := binaryHeader{
		n:        uint32(len(p.offsets) - 1),
		numEdges: g.stat.Edges,
		adjLen:   uint64(len(p.adj)),
	}
	if fragment {
		h.flags |= flagFragment
		h.numEdges, h.fragLo, h.fragTotal = h.adjLen, p.lo, g.stat.Vertices
	}
	if p.labels != nil {
		h.flags |= flagLabels
		h.labelCount = uint32(g.stat.Labels)
	}
	if p.origID != nil {
		h.flags |= flagOrigID
	}
	if g.stat.DegreeDesc {
		h.flags |= flagDescDegree
	}
	if _, err := w.Write(h.encode()); err != nil {
		return fmt.Errorf("graph: write .pgr header: %w", err)
	}
	// Sections are streamed through one reused chunk buffer so writing
	// a multi-gigabyte graph does not double its resident size.
	buf := make([]byte, 0, 64*1024)
	flush := func() error {
		if len(buf) == 0 {
			return nil
		}
		_, err := w.Write(buf)
		buf = buf[:0]
		return err
	}
	put64 := func(v uint64) error {
		if len(buf)+8 > cap(buf) {
			if err := flush(); err != nil {
				return err
			}
		}
		buf = binary.LittleEndian.AppendUint64(buf, v)
		return nil
	}
	put32 := func(v uint32) error {
		if len(buf)+4 > cap(buf) {
			if err := flush(); err != nil {
				return err
			}
		}
		buf = binary.LittleEndian.AppendUint32(buf, v)
		return nil
	}
	for _, v := range p.offsets {
		if err := put64(v); err != nil {
			return fmt.Errorf("graph: write .pgr offsets: %w", err)
		}
	}
	for _, sec := range [][]uint32{p.adj, p.labels, p.origID} {
		for _, v := range sec {
			if err := put32(v); err != nil {
				return fmt.Errorf("graph: write .pgr section: %w", err)
			}
		}
	}
	if err := flush(); err != nil {
		return fmt.Errorf("graph: write .pgr: %w", err)
	}
	return nil
}

// SaveBinary writes g to path in the .pgr binary format, atomically:
// saving an mmap-backed graph over its own file is safe.
func SaveBinary(path string, g *Graph) error {
	return saveAtomic(path, func(w io.Writer) error { return WriteBinary(w, g) })
}

// SaveFragment writes the fragment f to path atomically.
func SaveFragment(path string, f *Graph) error {
	return saveAtomic(path, func(w io.Writer) error { return WriteFragment(w, f) })
}

// readSections carves the rows h describes out of a complete image
// whose size decodeHeader has already matched against h. With alias
// unset it copies them out field by field: the portable reader —
// mmap-incapable platforms, big-endian hosts and the fuzz targets all
// go through it — which never aliases data. With alias set it views
// them in place, for a read-only mapping on a little-endian host (see
// loadImage): the mapping is page-aligned and the 64-byte header keeps
// the uint64 offsets section 8-aligned, so the unsafe casts are
// well-defined.
func readSections(data []byte, h binaryHeader, alias bool) rows {
	pos := uint64(headerSize)
	s := rows{lo: h.fragLo}
	if alias {
		s.offsets = unsafe.Slice((*uint64)(unsafe.Pointer(&data[pos])), uint64(h.n)+1)
	} else {
		s.offsets = make([]uint64, uint64(h.n)+1)
		for i := range s.offsets {
			s.offsets[i] = binary.LittleEndian.Uint64(data[pos+8*uint64(i):])
		}
	}
	pos += 8 * uint64(len(s.offsets))
	u32s := func(count uint64) (v []uint32) {
		if alias && count > 0 {
			v = unsafe.Slice((*uint32)(unsafe.Pointer(&data[pos])), count)
		} else {
			v = make([]uint32, count)
			for i := range v {
				v[i] = binary.LittleEndian.Uint32(data[pos+4*uint64(i):])
			}
		}
		pos += 4 * count
		return v
	}
	s.adj = u32s(h.adjLen)
	if h.hasLabels() {
		s.labels = u32s(uint64(h.n))
	}
	if h.hasOrigID() {
		s.origID = u32s(uint64(h.n))
	}
	return s
}

// loadImage is the one file-to-memory path of whole graphs and shard
// fragments. Where the platform can map files (and the host is
// little-endian, matching the on-disk encoding) the file is mapped
// read-only and aliased: no heap copy is made, the kernel pages data in
// on demand and drops clean pages under pressure, and processes mapping
// the same file share one copy in the page cache; Close unmaps it. On
// the fallback path the file is read and decoded into the heap.
//
// The mapping is released by an explicit Close only — never by a GC
// cleanup. Slices returned by Adj alias the mapping without keeping
// their owner reachable, so unmapping on collection could fault a
// caller still ranging over a neighbor list. A value dropped without
// Close simply keeps its (read-only, page-cache-shared) mapping until
// process exit.
func loadImage(path string, fragment bool) (*Graph, error) {
	data, unmap, err := mapFile(path)
	if errors.Is(err, errMmapUnsupported) {
		if data, err = os.ReadFile(path); err != nil {
			return nil, fmt.Errorf("graph: %w", err)
		}
		return readImage(data, false, fragment)
	}
	if err != nil {
		return nil, err
	}
	g, err := readImage(data, true, fragment)
	if err != nil {
		_ = unmap()
		return nil, err
	}
	g.pieces[0].release = unmap
	return g, nil
}

// readImage builds a Graph from a complete .pgr image, aliasing it or
// not (see readSections): header, sections, then the sweep of its rows.
// A whole graph must not be a fragment file and the other way round. A
// fragment comes back as a one-piece Graph that answers for its owned
// range only, under the whole graph's vertex and label counts; its
// Edges counts the directed entries it stores.
func readImage(data []byte, alias, fragment bool) (*Graph, error) {
	h, err := decodeHeader(data, uint64(len(data)))
	if err != nil {
		return nil, err
	}
	if h.fragment() != fragment {
		if fragment {
			return nil, badFormat("file is a whole graph, not a shard fragment")
		}
		return nil, badFormat("file is a shard fragment; load it through its manifest")
	}
	g := &Graph{stat: h.stat(), pieces: []rows{readSections(data, h, alias)}}
	p := &g.pieces[0]
	if err := validateCSR(p.offsets, p.adj, p.lo, uint64(g.stat.Vertices)); err != nil {
		return nil, err
	}
	if !fragment {
		if err := validateCounts(p, g.stat); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// ReadBinary parses a complete .pgr stream into a heap-backed Graph.
func ReadBinary(r io.Reader) (*Graph, error) { return readStream(r, false) }

// ReadFragment parses a complete fragment .pgr stream into the heap.
func ReadFragment(r io.Reader) (*Graph, error) { return readStream(r, true) }

func readStream(r io.Reader, fragment bool) (*Graph, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("graph: read .pgr: %w", err)
	}
	return readImage(data, false, fragment)
}

// validateCSR sweeps the rows of vertices [lo, lo+len(offsets)-1) for
// the invariants the engine depends on, so a corrupt or hand-forged
// file fails loading instead of crashing a worker mid-mine: offsets
// monotone and spanning adj exactly, every neighbor id below total,
// adjacency lists sorted and strict (no self-loops, no duplicates).
func validateCSR(offsets []uint64, adj []uint32, lo uint32, total uint64) error {
	n := uint64(len(offsets) - 1)
	if offsets[0] != 0 {
		return badFormat("offsets[0] = %d, want 0", offsets[0])
	}
	if last := offsets[n]; last != uint64(len(adj)) {
		return badFormat("offsets end %d != adj length %d", last, len(adj))
	}
	// Bound every offset before slicing with any of them: monotonicity
	// up to v does not bound offsets[v+1] until the whole array is
	// known to be monotone and to end at len(adj).
	for i := uint64(0); i < n; i++ {
		if offsets[i] > offsets[i+1] {
			return badFormat("offsets not monotone at vertex %d", uint64(lo)+i)
		}
		if offsets[i+1] > uint64(len(adj)) {
			return badFormat("offsets[%d] = %d exceeds adj length %d", i+1, offsets[i+1], len(adj))
		}
	}
	for i := uint64(0); i < n; i++ {
		v := uint64(lo) + i
		list := adj[offsets[i]:offsets[i+1]]
		for j, u := range list {
			if uint64(u) >= total {
				return badFormat("vertex %d: neighbor %d out of range", v, u)
			}
			if uint64(u) == v {
				return badFormat("vertex %d: self-loop", v)
			}
			if j > 0 && list[j-1] >= u {
				return badFormat("vertex %d: adjacency not strictly sorted", v)
			}
		}
	}
	return nil
}

// validateCounts checks what only a whole graph can: edge and label
// counts consistent with the arrays.
func validateCounts(p *rows, st Stat) error {
	if uint64(len(p.adj)) != 2*st.Edges {
		return badFormat("adj length %d != 2*numEdges %d", len(p.adj), st.Edges)
	}
	if p.labels != nil {
		distinct := make(map[uint32]struct{})
		for _, l := range p.labels {
			if l != NoLabel {
				distinct[l] = struct{}{}
			}
		}
		if len(distinct) != st.Labels {
			return badFormat("labelCount %d != %d distinct labels", st.Labels, len(distinct))
		}
	}
	return nil
}

// LoadBinary loads a .pgr file through loadImage: mapped where the
// platform allows — the returned Graph's slices alias the read-only
// mapping and Close unmaps it — and decoded into the heap elsewhere.
func LoadBinary(path string) (*Graph, error) { return loadImage(path, false) }

// LoadFragment loads the fragment file at path the way LoadBinary loads
// a whole graph. The caller owns the result and releases it with Close.
func LoadFragment(path string) (*Graph, error) { return loadImage(path, true) }

// StatBinary reads only the .pgr header of path: graph metadata and
// the exact resident size a load would cost, without loading anything.
func StatBinary(path string) (SourceStat, error) {
	f, err := os.Open(path)
	if err != nil {
		return SourceStat{}, fmt.Errorf("graph: %w", err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return SourceStat{}, fmt.Errorf("graph: %w", err)
	}
	buf := make([]byte, headerSize)
	if _, err := io.ReadFull(f, buf); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return SourceStat{}, badFormat("short header: %v", err)
		}
		// A genuine read failure is not corruption; keep it out of
		// ErrBadFormat so callers can tell transient from permanent.
		return SourceStat{}, fmt.Errorf("graph: read .pgr header: %w", err)
	}
	h, err := decodeHeader(buf, uint64(fi.Size()))
	if err != nil {
		return SourceStat{}, err
	}
	if h.fragment() {
		return SourceStat{}, badFormat("file is a shard fragment; stat it through its manifest")
	}
	// decodeHeader matched the file size against the header, so the
	// arrays a load will hold are the file less its header.
	return SourceStat{Stat: h.stat(), Bytes: uint64(fi.Size()) - headerSize}, nil
}

// stat is the Stat of the graph the header belongs to. A fragment knows
// the whole graph's vertex count but only its own directed entries.
func (h binaryHeader) stat() Stat {
	st := Stat{
		Vertices:   h.n,
		Edges:      h.numEdges,
		Labels:     int(h.labelCount),
		Labeled:    h.hasLabels(),
		DegreeDesc: h.descDegree(),
	}
	if h.fragment() {
		st.Vertices = h.fragTotal
	}
	return st
}
