package fsm

import (
	"sync"
	"testing"
	"time"
)

// counter is the tests' aggregated value.
type counter struct{ n uint64 }

func newCounter() *counter { return &counter{} }

func mergeCounter(dst, src *counter) { dst.n += src.n }

func TestOnTheFlyCountsEverything(t *testing.T) {
	const threads = 4
	const perThread = 10000
	agg := newOnTheFly(threads, time.Millisecond, newCounter, mergeCounter)
	var wg sync.WaitGroup
	for tid := 0; tid < threads; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			local := newCounter()
			for i := 0; i < perThread; i++ {
				local.n++
				if i%100 == 0 {
					local = agg.Publish(tid, local)
				}
			}
			agg.Flush(tid, local)
		}(tid)
	}
	wg.Wait()
	final := agg.Close()
	if final.n != threads*perThread {
		t.Fatalf("aggregated %d, want %d", final.n, threads*perThread)
	}
}

func TestOnTheFlyPublishNeverBlocks(t *testing.T) {
	// With the aggregator effectively stalled (huge interval), Publish
	// must still return promptly: the first call hands off, later calls
	// keep the local value.
	agg := newOnTheFly(1, time.Hour, newCounter, mergeCounter)
	a := newCounter()
	a.n = 1
	b := agg.Publish(0, a)
	if b == a {
		t.Fatal("first publish should hand off and return a fresh value")
	}
	b.n = 2
	c := agg.Publish(0, b)
	if c != b {
		t.Fatal("second publish with a full slot must return the same value")
	}
	agg.Flush(0, c)
	if final := agg.Close(); final.n != 3 {
		t.Fatalf("final = %d, want 3", final.n)
	}
}
