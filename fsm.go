package peregrine

import (
	"peregrine/internal/fsm"
)

// FrequentPattern is one FSM result: a fully labeled pattern and its MNI
// support.
type FrequentPattern = fsm.FrequentPattern

// FSMResult carries the frequent patterns of the final level plus
// per-level statistics.
type FSMResult = fsm.Result

// FSMLevel summarizes one FSM iteration.
type FSMLevel = fsm.Level

// FSM mines the labeled patterns with exactly maxEdges edges whose MNI
// support in g is at least support (Figure 4a). It starts from the
// single unlabeled edge, discovers frequent labelings dynamically
// (§3.2.1), and grows frequent patterns edge by edge, relying on MNI's
// anti-monotonicity to prune. Support is the minimum node image (MNI)
// measure (§2.1); domains are compressed bitmaps shared across
// automorphism orbits, so symmetry breaking costs no precision (§6.6).
//
// WithDeadline bounds the whole mine and WithContext cancels it; a mine
// cut short reports FSMResult.Stopped and no frequent patterns.
func FSM(g *Graph, maxEdges, support int, opts ...Option) (*FSMResult, error) {
	cfg := buildConfig(opts)
	return fsm.Mine(g, maxEdges, support, cfg.opts)
}
