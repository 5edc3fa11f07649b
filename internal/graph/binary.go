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

// headerFor derives the .pgr header of g.
func headerFor(g *Graph) binaryHeader {
	h := binaryHeader{
		n:        g.NumVertices(),
		numEdges: g.numEdge,
		adjLen:   uint64(len(g.adj)),
	}
	if g.labels != nil {
		h.flags |= flagLabels
		h.labelCount = uint32(g.labelCount)
	}
	if g.origID != nil {
		h.flags |= flagOrigID
	}
	if g.degDesc {
		h.flags |= flagDescDegree
	}
	return h
}

// WriteBinary writes g to w in the .pgr binary format.
func WriteBinary(w io.Writer, g *Graph) error {
	if g.sh != nil {
		return errors.New("graph: cannot write a sharded graph as a single .pgr file")
	}
	return writeSections(w, headerFor(g), g.offsets, g.adj, g.labels, g.origID)
}

// writeSections writes a .pgr header followed by its offsets and
// uint32 sections; shared by the whole-graph and fragment writers.
func writeSections(w io.Writer, h binaryHeader, offsets []uint64, sections ...[]uint32) error {
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
	for _, v := range offsets {
		if err := put64(v); err != nil {
			return fmt.Errorf("graph: write .pgr offsets: %w", err)
		}
	}
	for _, sec := range sections {
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

// sections are the arrays of one .pgr image, whole graph or fragment.
type sections struct {
	offsets             []uint64
	adj, labels, origID []uint32
}

// readSections carves the sections h describes out of a complete image
// whose size decodeHeader has already matched against h. With alias
// unset it copies them out field by field: the portable reader —
// mmap-incapable platforms, big-endian hosts and the fuzz targets all
// go through it — which never aliases data. With alias set it views
// them in place, for a read-only mapping on a little-endian host (see
// loadImage): the mapping is page-aligned and the 64-byte header keeps
// the uint64 offsets section 8-aligned, so the unsafe casts are
// well-defined.
func readSections(data []byte, h binaryHeader, alias bool) sections {
	pos := uint64(headerSize)
	var s sections
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
// read-only and from is told to alias it: no heap copy is made,
// the kernel pages data in on demand and drops clean pages under
// pressure, and processes mapping the same file share one copy in the
// page cache. unmap releases the mapping; it is nil on the fallback
// path, which reads the file and decodes it into the heap.
//
// The mapping is released by an explicit Close only — never by a GC
// cleanup. Slices returned by Adj alias the mapping without keeping
// their owner reachable, so unmapping on collection could fault a
// caller still ranging over a neighbor list. A value dropped without
// Close simply keeps its (read-only, page-cache-shared) mapping until
// process exit.
func loadImage[T any](path string, from func(data []byte, alias bool) (*T, error)) (v *T, unmap func() error, err error) {
	data, unmap, err := mapFile(path)
	if errors.Is(err, errMmapUnsupported) {
		if data, err = os.ReadFile(path); err != nil {
			return nil, nil, fmt.Errorf("graph: %w", err)
		}
		v, err = from(data, false)
		return v, nil, err
	}
	if err != nil {
		return nil, nil, err
	}
	if v, err = from(data, true); err != nil {
		_ = unmap()
		return nil, nil, err
	}
	return v, unmap, nil
}

// graphFromImage builds a Graph from a complete whole-graph .pgr image,
// aliasing it or not (see readSections).
func graphFromImage(data []byte, alias bool) (*Graph, error) {
	h, err := decodeHeader(data, uint64(len(data)))
	if err != nil {
		return nil, err
	}
	if h.fragment() {
		return nil, badFormat("file is a shard fragment; load it through its manifest")
	}
	s := readSections(data, h, alias)
	g := &Graph{
		offsets:    s.offsets,
		adj:        s.adj,
		labels:     s.labels,
		origID:     s.origID,
		numEdge:    h.numEdges,
		labelCount: int(h.labelCount),
		degDesc:    h.descDegree(),
	}
	if err := g.validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// ReadBinary parses a complete .pgr stream into a heap-backed Graph.
func ReadBinary(r io.Reader) (*Graph, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("graph: read .pgr: %w", err)
	}
	return graphFromImage(data, false)
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

// validate checks a whole graph: the CSR sweep, plus edge and label
// counts consistent with the arrays.
func (g *Graph) validate() error {
	if err := validateCSR(g.offsets, g.adj, 0, uint64(g.NumVertices())); err != nil {
		return err
	}
	if uint64(len(g.adj)) != 2*g.numEdge {
		return badFormat("adj length %d != 2*numEdges %d", len(g.adj), g.numEdge)
	}
	if g.labels != nil {
		distinct := make(map[uint32]struct{})
		for _, l := range g.labels {
			if l != NoLabel {
				distinct[l] = struct{}{}
			}
		}
		if len(distinct) != g.labelCount {
			return badFormat("labelCount %d != %d distinct labels", g.labelCount, len(distinct))
		}
	}
	return nil
}

// LoadBinary loads a .pgr file through loadImage: mapped where the
// platform allows — the returned Graph's slices alias the read-only
// mapping and Close unmaps it — and decoded into the heap elsewhere.
func LoadBinary(path string) (*Graph, error) {
	g, unmap, err := loadImage(path, graphFromImage)
	if err != nil {
		return nil, err
	}
	g.release = unmap
	return g, nil
}

// StatBinary reads only the .pgr header of path: graph metadata (and
// the exact resident size a load would cost) without loading anything.
func StatBinary(path string) (Stat, error) {
	f, err := os.Open(path)
	if err != nil {
		return Stat{}, fmt.Errorf("graph: %w", err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return Stat{}, fmt.Errorf("graph: %w", err)
	}
	buf := make([]byte, headerSize)
	if _, err := io.ReadFull(f, buf); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return Stat{}, badFormat("short header: %v", err)
		}
		// A genuine read failure is not corruption; keep it out of
		// ErrBadFormat so callers can tell transient from permanent.
		return Stat{}, fmt.Errorf("graph: read .pgr header: %w", err)
	}
	h, err := decodeHeader(buf, uint64(fi.Size()))
	if err != nil {
		return Stat{}, err
	}
	if h.fragment() {
		return Stat{}, badFormat("file is a shard fragment; stat it through its manifest")
	}
	return h.stat(), nil
}

func (h binaryHeader) stat() Stat {
	return Stat{
		Vertices:   h.n,
		Edges:      h.numEdges,
		Labels:     int(h.labelCount),
		Labeled:    h.hasLabels(),
		DegreeDesc: h.descDegree(),
	}
}

// SniffBinary reports whether path begins with the .pgr magic; used to
// auto-detect the format of registered graph files.
func SniffBinary(path string) (bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return false, fmt.Errorf("graph: %w", err)
	}
	defer f.Close()
	var magic [8]byte
	if _, err := io.ReadFull(f, magic[:]); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return false, nil // shorter than any valid .pgr: not binary
		}
		// A real read failure must surface, not silently classify the
		// file as an edge list.
		return false, fmt.Errorf("graph: %w", err)
	}
	return magic == binaryMagic, nil
}
