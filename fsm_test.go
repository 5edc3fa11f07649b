package peregrine

import (
	"context"
	"testing"
	"time"

	"peregrine/internal/gen"
	"peregrine/internal/pattern"
	"peregrine/internal/ref"
)

// bruteFSM computes the frequent labeled patterns with exactly maxEdges
// edges straight from the MNI definition: enumerate every unlabeled
// pattern of that size, every labeling over the graph's label alphabet,
// and every isomorphism (ref.Enumerate, which counts all automorphic
// variants), accumulating the true per-vertex domains. No orbit sharing,
// no symmetry breaking, no anti-monotone pruning — a pure oracle.
func bruteFSM(g *Graph, maxEdges, support int) map[string]int {
	labels := labelAlphabet(g)
	out := make(map[string]int)
	for _, base := range pattern.GenerateAllEdgeInduced(maxEdges) {
		for _, labeled := range allLabelings(base, labels) {
			code, _ := labeled.CanonicalForm()
			if _, done := out[code]; done {
				continue
			}
			domains := make([]map[uint32]bool, labeled.N())
			for i := range domains {
				domains[i] = make(map[uint32]bool)
			}
			ref.Enumerate(g, labeled, func(m []uint32) bool {
				for v := 0; v < labeled.N(); v++ {
					domains[v][m[v]] = true
				}
				return true
			})
			min := -1
			for _, d := range domains {
				if min == -1 || len(d) < min {
					min = len(d)
				}
			}
			if min >= support {
				out[code] = min
			}
		}
	}
	return out
}

func labelAlphabet(g *Graph) []pattern.Label {
	seen := make(map[uint32]bool)
	var out []pattern.Label
	for v := uint32(0); v < g.NumVertices(); v++ {
		l := g.Label(v)
		if !seen[l] {
			seen[l] = true
			out = append(out, pattern.Label(l))
		}
	}
	return out
}

func allLabelings(p *Pattern, labels []pattern.Label) []*Pattern {
	var out []*Pattern
	n := p.N()
	assign := make([]pattern.Label, n)
	var rec func(i int)
	rec = func(i int) {
		if i == n {
			q := p.Clone()
			for v, l := range assign {
				q.SetLabel(v, l)
			}
			out = append(out, q)
			return
		}
		for _, l := range labels {
			assign[i] = l
			rec(i + 1)
		}
	}
	rec(0)
	return out
}

func TestFSMAgainstBruteForce(t *testing.T) {
	// On 30 vertices a domain's dense form is one word, so nearly every
	// orbit set turns dense; on 200 it is four, and sets of up to eight
	// ids stay lists, so the second graph's supports must straddle that.
	small := gen.ErdosRenyi(gen.ERConfig{Vertices: 30, Edges: 70, Seed: 41, Labels: 2})
	big := gen.ErdosRenyi(gen.ERConfig{Vertices: 200, Edges: 500, Seed: 44, Labels: 4})
	for _, tc := range []struct {
		g              *Graph
		edges, support int
	}{
		{small, 1, 2}, {small, 1, 10}, {small, 2, 3}, {small, 2, 8}, {small, 3, 5},
		{big, 3, 3},
	} {
		res, err := FSM(tc.g, tc.edges, tc.support, WithThreads(4))
		if err != nil {
			t.Fatalf("FSM(%d,%d): %v", tc.edges, tc.support, err)
		}
		want := bruteFSM(tc.g, tc.edges, tc.support)
		got := make(map[string]int)
		for _, f := range res.Frequent {
			got[f.Pattern.CanonicalCode()] = f.Support
		}
		if len(got) != len(want) {
			t.Fatalf("FSM(%d,%d): %d frequent patterns, oracle has %d\n got=%v\nwant=%v",
				tc.edges, tc.support, len(got), len(want), got, want)
		}
		lists, dense := 0, 0
		for code, sup := range want {
			if got[code] != sup {
				t.Errorf("FSM(%d,%d): support mismatch for %q: got %d want %d",
					tc.edges, tc.support, code, got[code], sup)
			}
			if sup <= 2*int(tc.g.NumVertices()+63)/64 {
				lists++
			} else {
				dense++
			}
		}
		if tc.g == big && (lists == 0 || dense == 0) {
			t.Errorf("FSM(%d,%d) on %d vertices: %d supports within a list, %d past it, want both",
				tc.edges, tc.support, tc.g.NumVertices(), lists, dense)
		}
	}
}

func TestFSMAntiMonotonePruning(t *testing.T) {
	g := gen.ErdosRenyi(gen.ERConfig{Vertices: 40, Edges: 100, Seed: 42, Labels: 3})
	// A very high support yields nothing frequent at level 1, so the
	// miner must terminate without exploring larger levels.
	res, err := FSM(g, 3, 10000, WithThreads(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Frequent) != 0 {
		t.Fatalf("expected no frequent patterns, got %d", len(res.Frequent))
	}
	if len(res.Levels) != 1 {
		t.Fatalf("expected pruning after level 1, explored %d levels", len(res.Levels))
	}
}

func TestFSMSupportsAreAntiMonotone(t *testing.T) {
	g := gen.ErdosRenyi(gen.ERConfig{Vertices: 50, Edges: 140, Seed: 43, Labels: 2})
	// Lowering the threshold can only grow the frequent set.
	hi, err := FSM(g, 2, 20, WithThreads(4))
	if err != nil {
		t.Fatal(err)
	}
	lo, err := FSM(g, 2, 5, WithThreads(4))
	if err != nil {
		t.Fatal(err)
	}
	if len(lo.Frequent) < len(hi.Frequent) {
		t.Fatalf("threshold 5 found %d patterns, threshold 20 found %d", len(lo.Frequent), len(hi.Frequent))
	}
	hiCodes := make(map[string]bool)
	for _, f := range lo.Frequent {
		hiCodes[f.Pattern.CanonicalCode()] = true
	}
	for _, f := range hi.Frequent {
		if !hiCodes[f.Pattern.CanonicalCode()] {
			t.Errorf("pattern frequent at 20 missing at 5: %v", f.Pattern)
		}
	}
}

// TestFSMBoundedSaysSo: a deadline bounds the whole mine — not each of
// its traversals — and a mine cut short by it, or by a cancelled
// context, reports Stopped with no frequent set instead of passing a
// truncated scan's supports off as the answer.
func TestFSMBoundedSaysSo(t *testing.T) {
	// The tables' mico stand-in: unbounded, this mine takes seconds.
	g := gen.RMAT(gen.RMATConfig{Vertices: 1024, Edges: 9000, Seed: 1, Labels: 29})
	const deadline = 50 * time.Millisecond
	start := time.Now()
	res, err := FSM(g, 3, 8, WithDeadline(deadline))
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 10*deadline {
		t.Errorf("FSM under a %v deadline ran %v", deadline, elapsed)
	}
	if !res.Stopped || res.Frequent != nil {
		t.Errorf("deadline-bounded FSM: Stopped=%v with %d frequent patterns, want Stopped and none", res.Stopped, len(res.Frequent))
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err = FSM(g, 2, 8, WithContext(ctx))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stopped || res.Frequent != nil {
		t.Errorf("cancelled FSM: Stopped=%v with %d frequent patterns, want Stopped and none", res.Stopped, len(res.Frequent))
	}
}

func TestFSMErrors(t *testing.T) {
	unlabeled := gen.ErdosRenyi(gen.ERConfig{Vertices: 10, Edges: 20, Seed: 44})
	if _, err := FSM(unlabeled, 2, 2); err == nil {
		t.Error("FSM on unlabeled graph should fail")
	}
	labeled := gen.ErdosRenyi(gen.ERConfig{Vertices: 10, Edges: 20, Seed: 44, Labels: 2})
	if _, err := FSM(labeled, 0, 2); err == nil {
		t.Error("FSM with maxEdges=0 should fail")
	}
	if _, err := FSM(labeled, 2, 0); err == nil {
		t.Error("FSM with support=0 should fail")
	}
}
