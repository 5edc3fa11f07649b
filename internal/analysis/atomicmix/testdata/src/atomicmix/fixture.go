// Fixtures for atomicmix: the server counters' shape — counters
// updated on a hot path — with the access discipline violated.
package atomicmix

import "sync/atomic"

// stats mixes access styles: loads/adds go through sync/atomic, but
// reset and report touch the fields plainly. Every access races.
type stats struct {
	hits   uint64
	misses uint64
}

func (s *stats) hit() {
	atomic.AddUint64(&s.hits, 1)
}

func (s *stats) snapshot() uint64 {
	return atomic.LoadUint64(&s.hits)
}

func (s *stats) reset() {
	s.hits = 0 // want `field hits is accessed with sync/atomic at .*; this plain access races`
}

func (s *stats) skew() uint64 {
	return s.hits + 1 // want `field hits is accessed with sync/atomic at .*; this plain access races`
}

// misses is only ever touched plainly: consistent, not flagged.
func (s *stats) miss() {
	s.misses++
}
