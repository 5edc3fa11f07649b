package profile

import (
	"testing"
	"time"
)

func TestBreakdownRatiosSumToOne(t *testing.T) {
	b := &Breakdown{}
	tb := b.Thread()
	tb.Enter(StagePO)
	time.Sleep(2 * time.Millisecond)
	tb.Enter(StageCore)
	time.Sleep(2 * time.Millisecond)
	tb.Enter(StageNonCore)
	time.Sleep(2 * time.Millisecond)
	tb.Close()

	ratios := b.Ratios()
	var sum float64
	for _, r := range ratios {
		if r < 0 || r > 1 {
			t.Fatalf("ratio out of range: %v", ratios)
		}
		sum += r
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("ratios sum to %v, want 1", sum)
	}
	for _, stage := range []string{"PO", "Core", "Non-Core"} {
		if ratios[stage] <= 0 {
			t.Errorf("stage %s recorded no time: %v", stage, ratios)
		}
	}
}

func TestNilBreakdownIsNoOp(t *testing.T) {
	var b *Breakdown
	tb := b.Thread()
	tb.Enter(StageCore) // must not panic
	tb.Close()
}

func TestStageString(t *testing.T) {
	want := map[Stage]string{StagePO: "PO", StageCore: "Core", StageNonCore: "Non-Core", StageOther: "Other"}
	for s, name := range want {
		if s.String() != name {
			t.Errorf("Stage(%d).String() = %q, want %q", s, s.String(), name)
		}
	}
}

func TestMemSampler(t *testing.T) {
	s := StartMemSampler(time.Millisecond)
	// Allocate something visible.
	sink := make([][]byte, 0, 64)
	for i := 0; i < 64; i++ {
		sink = append(sink, make([]byte, 1<<20))
	}
	time.Sleep(10 * time.Millisecond)
	peak := s.Stop()
	if peak == 0 {
		t.Fatal("peak should be nonzero")
	}
	_ = sink
	if s.PeakAboveBaseline() == 0 {
		t.Error("expected growth above baseline after allocating 64 MiB")
	}
}

func TestLoadBalance(t *testing.T) {
	lb := NewLoadBalance(2)
	now := time.Now()
	lb.Report(0, time.Second, now)
	lb.Report(1, 2*time.Second, now.Add(30*time.Millisecond))
	if got := lb.Spread(); got != 30*time.Millisecond {
		t.Fatalf("Spread = %v, want 30ms", got)
	}
	busy := lb.Busy()
	if busy[0] != time.Second || busy[1] != 2*time.Second {
		t.Fatalf("Busy = %v", busy)
	}
	// Nil recorder must be a no-op.
	var nilLB *LoadBalance
	nilLB.Report(0, 0, time.Now())
}

func TestSampleCPU(t *testing.T) {
	samples := SampleCPU(time.Millisecond, func() {
		time.Sleep(20 * time.Millisecond)
	})
	if len(samples) < 5 {
		t.Fatalf("expected several samples, got %d", len(samples))
	}
	for i := 1; i < len(samples); i++ {
		if samples[i].Elapsed <= samples[i-1].Elapsed {
			t.Fatal("sample timestamps must increase")
		}
	}
}
