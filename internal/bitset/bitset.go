// Package bitset holds read-only compressed bitmaps of hub adjacency
// lists, in the style of Roaring bitmaps (Chambi et al., cited by the
// paper in §5.5): the 32-bit key space is split into 2^16 chunks, each
// stored either as a sorted array of 16-bit values (sparse) or as a
// 64-kilobit bitmap (dense). FromSortedDense builds one from a sorted
// adjacency list; FilterSortedInto (bitset∩sorted) and AndSortedInto
// (bitset∩bitset) intersect it, emitting ascending uint32 values.
// Neither the matching engine nor FSM uses them: they serve only
// graph.BuildHubBitsets and the benchmark ladder's bitset rung.
package bitset

import "math/bits"

// arrayToBitmapThreshold is the largest chunk kept as a sorted array:
// 4096 values × 2 bytes = 8 KiB, the size of the fixed bitmap, matching
// the Roaring paper's threshold.
const arrayToBitmapThreshold = 4096

const bitmapWords = 1 << 10 // 65536 bits / 64

// container holds one 16-bit chunk, as either a sorted array or a bitmap.
type container struct {
	array []uint16 // sorted, used while small
	bits  []uint64 // len bitmapWords when in bitmap mode
}

func (c *container) isBitmap() bool { return c.bits != nil }

func (c *container) sizeBytes() int {
	if c.isBitmap() {
		return bitmapWords * 8
	}
	return len(c.array) * 2
}

// Bitmap is a compressed set of uint32 values.
type Bitmap struct {
	keys []uint16     // sorted high-16 chunk keys
	cts  []*container // parallel to keys
}

// SizeBytes estimates the heap footprint of the container payloads.
func (b *Bitmap) SizeBytes() int {
	n := len(b.keys) * 10 // keys + container headers, approximate
	for _, c := range b.cts {
		n += c.sizeBytes()
	}
	return n
}

// FromSortedDense builds a bitmap from a strictly ascending slice in one
// pass. Chunks holding at least denseMin values materialize as bitmaps
// even though a sorted array would be smaller, and chunks past the
// array threshold always do. Membership tests and intersections against
// bitmap chunks are O(1) word operations instead of binary searches, so
// callers that probe a bitmap far more often than they store it
// (graph.BuildHubBitsets) trade up to 8 KiB per chunk for constant-time
// lookups. denseMin values below 1 are treated as 1 (every non-empty
// chunk becomes a bitmap).
func FromSortedDense(vals []uint32, denseMin int) *Bitmap {
	denseMin = min(max(denseMin, 1), arrayToBitmapThreshold+1)
	b := &Bitmap{}
	for i := 0; i < len(vals); {
		key := uint16(vals[i] >> 16)
		j := i + 1
		for j < len(vals) && uint16(vals[j]>>16) == key {
			j++
		}
		c := &container{}
		if j-i >= denseMin {
			c.bits = make([]uint64, bitmapWords)
			for _, v := range vals[i:j] {
				low := uint16(v)
				c.bits[low>>6] |= uint64(1) << (low & 63)
			}
		} else {
			c.array = make([]uint16, j-i)
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
				dst = append(dst, base|uint32(bits.TrailingZeros64(word)))
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
