// Package bitset implements compressed bitmaps in the style of Roaring
// bitmaps (Chambi et al., cited by the paper in §5.5): the 32-bit key
// space is split into 2^16 chunks, each stored either as a sorted array
// of 16-bit values (sparse) or as a 64-kilobit bitmap (dense). The
// paper uses compressed bitmaps for FSM's MNI domains because they are
// far smaller than dense bitmaps when domains cover a small fraction of
// a large vertex set.
//
// Beyond the operations MNI aggregation needs (Add, Contains, Or,
// Cardinality, size accounting), the package provides intersection
// kernels over hub adjacency bitmaps: FromSorted (bulk construction from
// a sorted adjacency list), FilterSortedInto (bitset∩sorted), and
// AndSortedInto (bitset∩bitset), all emitting ascending uint32 values.
// The matching engine no longer uses them; they stay only for the
// benchmark ladder's bitset rung.
package bitset

import (
	"math/bits"
	"sort"
)

// arrayToBitmapThreshold is the container cardinality at which a sorted
// array is converted to a bitmap: 4096 values × 2 bytes = 8 KiB, the
// size of the fixed bitmap, matching the Roaring paper's threshold.
const arrayToBitmapThreshold = 4096

const bitmapWords = 1 << 10 // 65536 bits / 64

// container holds one 16-bit chunk, as either a sorted array or a bitmap.
type container struct {
	array []uint16 // sorted, used while small
	bits  []uint64 // len bitmapWords when in bitmap mode
	card  int
}

func (c *container) isBitmap() bool { return c.bits != nil }

func (c *container) add(low uint16) bool {
	if c.isBitmap() {
		w, b := low>>6, uint64(1)<<(low&63)
		if c.bits[w]&b != 0 {
			return false
		}
		c.bits[w] |= b
		c.card++
		return true
	}
	i := sort.Search(len(c.array), func(i int) bool { return c.array[i] >= low })
	if i < len(c.array) && c.array[i] == low {
		return false
	}
	c.array = append(c.array, 0)
	copy(c.array[i+1:], c.array[i:])
	c.array[i] = low
	c.card++
	if c.card > arrayToBitmapThreshold {
		c.toBitmap()
	}
	return true
}

func (c *container) contains(low uint16) bool {
	if c.isBitmap() {
		return c.bits[low>>6]&(uint64(1)<<(low&63)) != 0
	}
	i := sort.Search(len(c.array), func(i int) bool { return c.array[i] >= low })
	return i < len(c.array) && c.array[i] == low
}

func (c *container) toBitmap() {
	bits := make([]uint64, bitmapWords)
	for _, v := range c.array {
		bits[v>>6] |= uint64(1) << (v & 63)
	}
	c.bits = bits
	c.array = nil
}

// or merges other into c.
func (c *container) or(other *container) {
	if other.isBitmap() && !c.isBitmap() {
		c.toBitmap()
	}
	if c.isBitmap() {
		if other.isBitmap() {
			card := 0
			for i := range c.bits {
				c.bits[i] |= other.bits[i]
				card += popcount(c.bits[i])
			}
			c.card = card
			return
		}
		for _, v := range other.array {
			w, b := v>>6, uint64(1)<<(v&63)
			if c.bits[w]&b == 0 {
				c.bits[w] |= b
				c.card++
			}
		}
		return
	}
	// array | array: merge.
	merged := make([]uint16, 0, len(c.array)+len(other.array))
	i, j := 0, 0
	for i < len(c.array) && j < len(other.array) {
		switch {
		case c.array[i] < other.array[j]:
			merged = append(merged, c.array[i])
			i++
		case c.array[i] > other.array[j]:
			merged = append(merged, other.array[j])
			j++
		default:
			merged = append(merged, c.array[i])
			i++
			j++
		}
	}
	merged = append(merged, c.array[i:]...)
	merged = append(merged, other.array[j:]...)
	c.array = merged
	c.card = len(merged)
	if c.card > arrayToBitmapThreshold {
		c.toBitmap()
	}
}

func (c *container) sizeBytes() int {
	if c.isBitmap() {
		return bitmapWords * 8
	}
	return len(c.array) * 2
}

func popcount(x uint64) int { return bits.OnesCount64(x) }

// Bitmap is a compressed set of uint32 values.
type Bitmap struct {
	keys []uint16     // sorted high-16 chunk keys
	cts  []*container // parallel to keys
}

// New returns an empty bitmap.
func New() *Bitmap { return &Bitmap{} }

// Add inserts x, reporting whether it was newly added.
func (b *Bitmap) Add(x uint32) bool {
	key, low := uint16(x>>16), uint16(x)
	i := sort.Search(len(b.keys), func(i int) bool { return b.keys[i] >= key })
	if i == len(b.keys) || b.keys[i] != key {
		b.keys = append(b.keys, 0)
		b.cts = append(b.cts, nil)
		copy(b.keys[i+1:], b.keys[i:])
		copy(b.cts[i+1:], b.cts[i:])
		b.keys[i] = key
		b.cts[i] = &container{}
	}
	return b.cts[i].add(low)
}

// Contains reports whether x is in the set.
func (b *Bitmap) Contains(x uint32) bool {
	key, low := uint16(x>>16), uint16(x)
	i := sort.Search(len(b.keys), func(i int) bool { return b.keys[i] >= key })
	if i == len(b.keys) || b.keys[i] != key {
		return false
	}
	return b.cts[i].contains(low)
}

// Cardinality returns the number of elements.
func (b *Bitmap) Cardinality() int {
	n := 0
	for _, c := range b.cts {
		n += c.card
	}
	return n
}

// Or merges other into b (b |= other).
func (b *Bitmap) Or(other *Bitmap) {
	for i, key := range other.keys {
		j := sort.Search(len(b.keys), func(j int) bool { return b.keys[j] >= key })
		if j == len(b.keys) || b.keys[j] != key {
			// Copy the container so future mutation of either bitmap is
			// independent.
			cp := &container{card: other.cts[i].card}
			if other.cts[i].isBitmap() {
				cp.bits = append([]uint64(nil), other.cts[i].bits...)
			} else {
				cp.array = append([]uint16(nil), other.cts[i].array...)
			}
			b.keys = append(b.keys, 0)
			b.cts = append(b.cts, nil)
			copy(b.keys[j+1:], b.keys[j:])
			copy(b.cts[j+1:], b.cts[j:])
			b.keys[j] = key
			b.cts[j] = cp
			continue
		}
		b.cts[j].or(other.cts[i])
	}
}

// SizeBytes estimates the heap footprint of the container payloads,
// used by the Figure 13 memory accounting.
func (b *Bitmap) SizeBytes() int {
	n := len(b.keys) * 10 // keys + container headers, approximate
	for _, c := range b.cts {
		n += c.sizeBytes()
	}
	return n
}

// ForEach visits elements in ascending order until f returns false.
func (b *Bitmap) ForEach(f func(uint32) bool) {
	for i, key := range b.keys {
		hi := uint32(key) << 16
		c := b.cts[i]
		if c.isBitmap() {
			for w, word := range c.bits {
				for word != 0 {
					bit := word & (-word)
					lz := trailingZeros(word)
					if !f(hi | uint32(w<<6) | uint32(lz)) {
						return
					}
					word ^= bit
				}
			}
			continue
		}
		for _, v := range c.array {
			if !f(hi | uint32(v)) {
				return
			}
		}
	}
}

func trailingZeros(x uint64) int { return bits.TrailingZeros64(x) }

// FromSorted builds a bitmap from a strictly ascending slice in one
// pass: values are grouped into chunks without any per-value search,
// and chunks past the array threshold materialize directly in bitmap
// mode, without paying Add's insertion cost per value.
func FromSorted(vals []uint32) *Bitmap {
	return fromSorted(vals, arrayToBitmapThreshold+1)
}

// FromSortedDense is FromSorted with a lower array→bitmap threshold:
// chunks holding at least denseMin values materialize as bitmaps even
// though a sorted array would be smaller. Membership tests and
// intersections against bitmap chunks are O(1) word operations instead
// of binary searches, so callers that probe a bitmap far more often
// than they store it (graph.BuildHubBitsets) trade up to 8 KiB per chunk
// for constant-time lookups. denseMin values below 1
// are treated as 1 (every non-empty chunk becomes a bitmap).
func FromSortedDense(vals []uint32, denseMin int) *Bitmap {
	if denseMin < 1 {
		denseMin = 1
	}
	if denseMin > arrayToBitmapThreshold+1 {
		denseMin = arrayToBitmapThreshold + 1
	}
	return fromSorted(vals, denseMin)
}

func fromSorted(vals []uint32, bitmapMin int) *Bitmap {
	b := &Bitmap{}
	for i := 0; i < len(vals); {
		key := uint16(vals[i] >> 16)
		j := i + 1
		for j < len(vals) && uint16(vals[j]>>16) == key {
			j++
		}
		c := &container{card: j - i}
		if c.card >= bitmapMin {
			c.bits = make([]uint64, bitmapWords)
			for _, v := range vals[i:j] {
				low := uint16(v)
				c.bits[low>>6] |= uint64(1) << (low & 63)
			}
		} else {
			c.array = make([]uint16, c.card)
			for k, v := range vals[i:j] {
				c.array[k] = uint16(v)
			}
		}
		b.keys = append(b.keys, key)
		b.cts = append(b.cts, c)
		i = j
	}
	return b
}

// lowerBound16 returns the least index i >= from with arr[i] >= x,
// galloping from the previous position: callers probe with ascending
// keys, so the amortized cost per probe is logarithmic in the gap, not
// in the container size.
func lowerBound16(arr []uint16, from int, x uint16) int {
	if from >= len(arr) || arr[from] >= x {
		return from
	}
	lo, step := from, 1
	for lo+step < len(arr) && arr[lo+step] < x {
		lo += step
		step <<= 1
	}
	hi := lo + step
	if hi > len(arr) {
		hi = len(arr)
	}
	lo++ // arr[lo] < x already established
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if arr[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// FilterSortedInto appends to dst the elements of the ascending slice s
// that are contained in b, preserving order — the bitset∩sorted kernel.
// Chunk lookup walks b's keys in tandem with s instead of binary
// searching per element. dst may share backing storage with s (e.g.
// b.FilterSortedInto(s[:0], s) compacts in place): the write index
// never passes the read index.
func (b *Bitmap) FilterSortedInto(dst []uint32, s []uint32) []uint32 {
	ci := 0
	for i := 0; i < len(s); {
		key := uint16(s[i] >> 16)
		for ci < len(b.keys) && b.keys[ci] < key {
			ci++
		}
		if ci == len(b.keys) {
			break
		}
		if b.keys[ci] > key {
			for i < len(s) && uint16(s[i]>>16) == key {
				i++
			}
			continue
		}
		c := b.cts[ci]
		if c.isBitmap() {
			for i < len(s) && uint16(s[i]>>16) == key {
				low := uint16(s[i])
				if c.bits[low>>6]&(uint64(1)<<(low&63)) != 0 {
					dst = append(dst, s[i])
				}
				i++
			}
			continue
		}
		pos := 0
		for i < len(s) && uint16(s[i]>>16) == key {
			low := uint16(s[i])
			pos = lowerBound16(c.array, pos, low)
			if pos == len(c.array) {
				for i < len(s) && uint16(s[i]>>16) == key {
					i++
				}
				break
			}
			if c.array[pos] == low {
				dst = append(dst, s[i])
				pos++
			}
			i++
		}
	}
	return dst
}

// AndSortedInto appends the intersection of b and other to dst as
// ascending uint32 values — the bitset∩bitset kernel. Work is
// proportional to the chunks the two bitmaps share, so intersecting
// two hub adjacencies skips every 64K-id region only one of them
// touches.
func (b *Bitmap) AndSortedInto(dst []uint32, other *Bitmap) []uint32 {
	i, j := 0, 0
	for i < len(b.keys) && j < len(other.keys) {
		switch {
		case b.keys[i] < other.keys[j]:
			i++
		case b.keys[i] > other.keys[j]:
			j++
		default:
			dst = andContainers(dst, uint32(b.keys[i])<<16, b.cts[i], other.cts[j])
			i++
			j++
		}
	}
	return dst
}

// andContainers appends the intersection of two same-chunk containers,
// offset by the chunk's high bits, in ascending order.
func andContainers(dst []uint32, hi uint32, a, b *container) []uint32 {
	if a.isBitmap() && b.isBitmap() {
		for w := 0; w < bitmapWords; w++ {
			word := a.bits[w] & b.bits[w]
			base := hi | uint32(w)<<6
			for word != 0 {
				dst = append(dst, base|uint32(trailingZeros(word)))
				word &= word - 1
			}
		}
		return dst
	}
	if a.isBitmap() {
		a, b = b, a // a is the array side below
	}
	if b.isBitmap() {
		for _, v := range a.array {
			if b.bits[v>>6]&(uint64(1)<<(v&63)) != 0 {
				dst = append(dst, hi|uint32(v))
			}
		}
		return dst
	}
	i, j := 0, 0
	for i < len(a.array) && j < len(b.array) {
		x, y := a.array[i], b.array[j]
		if x < y {
			i++
		} else if x > y {
			j++
		} else {
			dst = append(dst, hi|uint32(x))
			i++
			j++
		}
	}
	return dst
}
