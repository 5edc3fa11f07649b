// Package gen generates synthetic data graphs that stand in for the
// paper's evaluation datasets (Mico, Patents, Orkut, Friendster), which
// are external downloads unavailable in this offline environment.
//
// Two generator families are provided:
//
//   - RMAT: a recursive-matrix generator producing power-law degree
//     distributions, standing in for the social-network graphs (Mico,
//     Orkut, Friendster). Degree skew is what drives dense-neighbourhood
//     intersection cost and load imbalance in the paper's evaluation.
//   - ErdosRenyi: a uniform random graph with an optional degree cap,
//     standing in for Patents, whose degree distribution is nearly flat
//     (avg 10, max 793 at 3.7M vertices).
//
// All generators are deterministic for a given seed (they use a local
// xorshift PRNG, not math/rand's global state), so benchmarks and golden
// tests are reproducible.
package gen

import (
	"peregrine/internal/graph"
)

// RNG is a small xorshift64* pseudo-random generator. It is deliberately
// local and deterministic: the same seed always yields the same graph,
// across runs and Go versions.
type RNG struct{ state uint64 }

// NewRNG returns a deterministic generator. A zero seed is remapped to a
// fixed non-zero constant because xorshift has a zero fixed point.
func NewRNG(seed uint64) *RNG {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &RNG{state: seed}
}

// Next returns the next pseudo-random 64-bit value.
func (r *RNG) Next() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545F4914F6CDD1D
}

// Intn returns a pseudo-random value in [0, n).
func (r *RNG) Intn(n uint64) uint64 {
	if n == 0 {
		return 0
	}
	return r.Next() % n
}

// Float64 returns a pseudo-random value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Next()>>11) / float64(1<<53)
}

// RMATConfig parameterizes the recursive-matrix generator.
type RMATConfig struct {
	Vertices uint32  // number of vertices (rounded up to a power of two internally)
	Edges    uint64  // number of edge samples (duplicates are merged)
	A, B, C  float64 // RMAT quadrant probabilities; D = 1-A-B-C
	Seed     uint64
	Labels   int // if > 0, assign uniform labels in [0, Labels)
}

// RMAT samples Edges edges from a recursive-matrix distribution and
// builds a graph. Defaults (A,B,C = 0.57,0.19,0.19) match the Graph500
// parameters and give a power-law degree distribution.
func RMAT(cfg RMATConfig) *graph.Graph {
	if cfg.A == 0 && cfg.B == 0 && cfg.C == 0 {
		cfg.A, cfg.B, cfg.C = 0.57, 0.19, 0.19
	}
	levels := 0
	for (uint32(1) << levels) < cfg.Vertices {
		levels++
	}
	rng := NewRNG(cfg.Seed)
	b := graph.NewBuilder()
	ab := cfg.A + cfg.B
	abc := cfg.A + cfg.B + cfg.C
	for i := uint64(0); i < cfg.Edges; i++ {
		var u, v uint32
		for l := 0; l < levels; l++ {
			r := rng.Float64()
			switch {
			case r < cfg.A:
				// top-left: no bits set
			case r < ab:
				v |= 1 << l
			case r < abc:
				u |= 1 << l
			default:
				u |= 1 << l
				v |= 1 << l
			}
		}
		if u >= cfg.Vertices || v >= cfg.Vertices || u == v {
			continue
		}
		b.AddEdge(u, v)
	}
	assignLabels(b, cfg.Vertices, cfg.Labels, rng)
	return b.Build()
}

// ERConfig parameterizes the uniform random-graph generator.
type ERConfig struct {
	Vertices  uint32
	Edges     uint64
	MaxDegree uint32 // 0 = uncapped
	Seed      uint64
	Labels    int
}

// ErdosRenyi samples Edges uniform random edges, optionally rejecting
// endpoints whose degree already reached MaxDegree. With a cap, the
// resulting degree distribution is flat like the Patents graph.
func ErdosRenyi(cfg ERConfig) *graph.Graph {
	rng := NewRNG(cfg.Seed)
	b := graph.NewBuilder()
	deg := make([]uint32, cfg.Vertices)
	attempts := cfg.Edges * 4
	var added uint64
	for i := uint64(0); i < attempts && added < cfg.Edges; i++ {
		u := uint32(rng.Intn(uint64(cfg.Vertices)))
		v := uint32(rng.Intn(uint64(cfg.Vertices)))
		if u == v {
			continue
		}
		if cfg.MaxDegree > 0 && (deg[u] >= cfg.MaxDegree || deg[v] >= cfg.MaxDegree) {
			continue
		}
		deg[u]++
		deg[v]++
		b.AddEdge(u, v)
		added++
	}
	assignLabels(b, cfg.Vertices, cfg.Labels, rng)
	return b.Build()
}

func assignLabels(b *graph.Builder, n uint32, labels int, rng *RNG) {
	if labels <= 0 {
		return
	}
	for v := uint32(0); v < n; v++ {
		b.SetLabel(v, uint32(rng.Intn(uint64(labels))))
	}
}

// Dataset names the paper dataset a stand-in models.
type Dataset string

// Stand-in dataset names. The package comment above gives the
// substitution rationale.
const (
	MicoLite       Dataset = "mico-lite"       // Mico: labeled power-law, avg deg ~21.6, 29 labels
	PatentsLite    Dataset = "patents-lite"    // Patents: flat degree, avg deg ~10
	PatentsLabeled Dataset = "patents-labeled" // labeled Patents: 37 labels
	OrkutLite      Dataset = "orkut-lite"      // Orkut: dense power-law, avg deg ~76
	FriendsterLite Dataset = "friendster-lite" // Friendster: large sparse power-law
)

// Standard builds a stand-in dataset at the given scale. Scale 1 targets
// quick unit tests (seconds); the paper-shape properties (degree skew,
// label count, average degree ratios between datasets) hold at any scale.
func Standard(d Dataset, scale int) *graph.Graph {
	if scale < 1 {
		scale = 1
	}
	s := uint32(scale)
	switch d {
	case MicoLite:
		return RMAT(RMATConfig{Vertices: 4096 * s, Edges: uint64(44000) * uint64(s), Seed: 1, Labels: 29})
	case PatentsLite:
		return ErdosRenyi(ERConfig{Vertices: 8192 * s, Edges: uint64(41000) * uint64(s), MaxDegree: 100, Seed: 2})
	case PatentsLabeled:
		return ErdosRenyi(ERConfig{Vertices: 8192 * s, Edges: uint64(41000) * uint64(s), MaxDegree: 100, Seed: 2, Labels: 37})
	case OrkutLite:
		return RMAT(RMATConfig{Vertices: 4096 * s, Edges: uint64(155000) * uint64(s), Seed: 3})
	case FriendsterLite:
		return RMAT(RMATConfig{Vertices: 16384 * s, Edges: uint64(450000) * uint64(s), Seed: 4})
	default:
		return RMAT(RMATConfig{Vertices: 1024, Edges: 8192, Seed: 5})
	}
}
