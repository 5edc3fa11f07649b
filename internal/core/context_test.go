package core

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"peregrine/internal/gen"
	"peregrine/internal/pattern"
	"peregrine/internal/plan"
)

// A context cancelled before the run starts must stop the engine before
// any task is processed.
func TestContextAlreadyCancelled(t *testing.T) {
	g := gen.Standard(gen.MicoLite, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	st := Run(t, g, pattern.Clique(3), nil, Options{Context: ctx})
	if !st.Stopped {
		t.Error("Stopped = false, want true for pre-cancelled context")
	}
	if st.Tasks != 0 {
		t.Errorf("Tasks = %d, want 0 for pre-cancelled context", st.Tasks)
	}
}

// Cancelling mid-run must stop all workers promptly: a star pattern on a
// dense graph enumerates far too many matches to finish, so an uncancelled
// run would exceed the test timeout by orders of magnitude.
func TestContextCancelMidRun(t *testing.T) {
	g := gen.Standard(gen.OrkutLite, 1)
	ctx, cancel := context.WithCancel(context.Background())
	var calls atomic.Uint64
	done := make(chan Stats, 1)
	pls := []*plan.Plan{mustPlan(t, pattern.Star(7))}
	go func() {
		done <- RunPlans(g, pls, func(c *Ctx, _ int, m *Match) {
			if calls.Add(1) == 1000 {
				cancel()
			}
		}, Options{Context: ctx, Threads: 4}).Per[0]
	}()
	select {
	case st := <-done:
		if !st.Stopped {
			t.Error("Stopped = false, want true after cancellation")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("engine did not stop within 30s of context cancellation")
	}
}

// A context that never fires must not perturb results.
func TestContextActiveMatchesUncancelled(t *testing.T) {
	g := gen.Standard(gen.PatentsLite, 1)
	p := pattern.Clique(3)
	want := Count(t, g, p, Options{})
	got := Count(t, g, p, Options{Context: context.Background()})
	if got != want {
		t.Errorf("count with context = %d, want %d", got, want)
	}
}
