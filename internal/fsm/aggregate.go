package fsm

import (
	"sync"
	"sync/atomic"
	"time"
)

// onTheFly implements the paper's asynchronous aggregation design
// (§5.4): matching workers accumulate into thread-local values and
// periodically hand them to an aggregator goroutine through per-thread
// slots, so workers never block on aggregation. The aggregator merges
// published values into a global value, which Close returns; FSM reads
// only that final value. The aggregator still pays for itself: a
// synchronous mutex merge every 4,096 matches measured slower on FSM
// (ROADMAP, "Tried and dropped").
//
// The paper's matching threads set a flag and the aggregator waits for
// all thread-local values; here each slot is an atomic pointer the
// worker fills and the aggregator drains, which preserves the
// non-blocking property for workers while being idiomatic Go.
type onTheFly[T any] struct {
	slots []atomic.Pointer[T]
	fresh func() *T
	merge func(dst, src *T)

	mu     sync.Mutex // guards global
	global *T

	stop chan struct{}
	done chan struct{}
}

// newOnTheFly starts an aggregator for the given number of worker
// threads. fresh allocates an empty value; merge folds src into dst.
// interval is how often published values are folded into the global
// value; 0 selects a default.
func newOnTheFly[T any](threads int, interval time.Duration, fresh func() *T, merge func(dst, src *T)) *onTheFly[T] {
	if interval <= 0 {
		interval = 2 * time.Millisecond
	}
	o := &onTheFly[T]{
		slots:  make([]atomic.Pointer[T], threads),
		fresh:  fresh,
		merge:  merge,
		global: fresh(),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	go func() {
		defer close(o.done)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-o.stop:
				return
			case <-tick.C:
				o.drain()
			}
		}
	}()
	return o
}

// Publish offers the worker's local value for aggregation. If the
// worker's slot is free the value is handed off and a fresh local value
// is returned; otherwise the original is returned and the worker simply
// keeps accumulating — it never blocks.
func (o *onTheFly[T]) Publish(tid int, local *T) *T {
	if o.slots[tid].CompareAndSwap(nil, local) {
		return o.fresh()
	}
	return local
}

// Flush hands off the worker's final local value, spinning briefly if
// the slot is occupied (only happens at shutdown, never on the matching
// hot path).
func (o *onTheFly[T]) Flush(tid int, local *T) {
	for !o.slots[tid].CompareAndSwap(nil, local) {
		o.drain()
	}
}

// drain merges all published values into the global value.
func (o *onTheFly[T]) drain() {
	for i := range o.slots {
		if v := o.slots[i].Swap(nil); v != nil {
			o.mu.Lock()
			o.merge(o.global, v)
			o.mu.Unlock()
		}
	}
}

// Close stops the aggregator, folds any remaining published values, and
// returns the final global value.
func (o *onTheFly[T]) Close() *T {
	close(o.stop)
	<-o.done
	o.drain()
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.global
}
