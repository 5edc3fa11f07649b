package pattern

import (
	"testing"
)

// FuzzParsePattern drives the textual pattern parser with arbitrary
// input. Parse must never panic; on accepted input the pattern must be
// well-formed and survive a String -> Parse round trip unchanged.
func FuzzParsePattern(f *testing.F) {
	for _, s := range []string{
		"0-1 1-2 2-0",
		"0-1 0-2 1!2",
		"0-1 [0:5] [1:2]",
		"0-1 1-2 2-3 3-0 0-2",
		"0-1 1-2 2-0 [0:4] 1!3",
		"[0:0]",
		"0!1",
		"0-1 [3:2]",
		"15-0",
		"",
		"# not a pattern",
		"0--1",
		"[-1:3]",
		"[0:-5]",
		"0-0",
		"1-2 2-3 3-1 x",
		"[1:2",
		"999999999999999999-0",
		// Morph relatives as a coordinator spells them to its nodes: the
		// labeled tailed triangle's diamond, the labeled 5-chain's clique.
		"0-1 0-2 0-3 1-2 1-3 [0:0] [3:1]",
		"0-1 0-2 0-3 0-4 1-2 1-3 1-4 2-3 2-4 3-4 [0:0] [1:1] [2:2] [3:0] [4:1]",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		p, err := Parse(s)
		if err != nil {
			return // rejected input is fine; panics are the bug
		}
		n := p.N()
		if n < 1 || n > MaxVertices {
			t.Fatalf("Parse(%q) accepted %d vertices (limit %d)", s, n, MaxVertices)
		}
		for u := 0; u < n; u++ {
			if p.EdgeKindOf(u, u) != None {
				t.Fatalf("Parse(%q) produced a self-loop on %d", s, u)
			}
			for v := 0; v < n; v++ {
				if p.EdgeKindOf(u, v) != p.EdgeKindOf(v, u) {
					t.Fatalf("Parse(%q): asymmetric edge kind between %d and %d", s, u, v)
				}
			}
		}
		// Validate flags semantic problems (e.g. anti-vertex shape rules);
		// it must be able to run on anything Parse accepts.
		_ = p.Validate()

		// String must render in the grammar Parse accepts, reproducing
		// the pattern exactly (same ids, kinds, and labels).
		s2 := p.String()
		p2, err := Parse(s2)
		if err != nil {
			t.Fatalf("Parse(%q).String() = %q does not re-parse: %v", s, s2, err)
		}
		if !p.Equal(p2) {
			t.Fatalf("round trip changed pattern: %q -> %q", s, s2)
		}
		// Canonical codes are isomorphism invariants; identical patterns
		// must agree. Bounded to small n: the branch-and-bound search
		// degenerates on large highly-symmetric inputs.
		if n <= 8 && p.CanonicalCode() != p2.CanonicalCode() {
			t.Fatalf("round trip changed canonical code for %q", s)
		}
	})
}
