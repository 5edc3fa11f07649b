package main

import (
	"encoding/json"
	"fmt"
	"strings"

	"peregrine"
	"peregrine/internal/gen"
	"peregrine/internal/graph"
	"peregrine/internal/pattern"
	"peregrine/internal/plan"
	"peregrine/internal/server"
)

// rung is a level of the stack an op can be issued at. A workload is
// measured at one rung; the traced pass replays a sample of its ops at
// every rung, so a module's cost is a subtraction on identical inputs.
type rung int

const (
	rungCore      rung = iota // core.RunPlans on plans built once with plan.New
	rungPeregrine             // package peregrine's one-shot entry points
	rungHandler               // Server.Handler().ServeHTTP, no socket
	rungHTTP                  // loopback HTTP to one node holding the whole graph
	rungCoord                 // through the coordinator, over two budgeted nodes
)

func (r rung) String() string {
	return [...]string{"core", "peregrine", "server.handler", "server.http", "coord"}[r]
}

const (
	graphName  = "g"
	shardCount = 4
	matchLimit = 100
)

// op is one unit of work: a count of several patterns, an existence
// check, or a bounded match listing. The same op can be issued at any
// rung; body is its POST /v1/query form.
type op struct {
	kind  string // server.KindCount, KindExists or KindMatches
	pool  []int  // the patterns asked for, as indices into the workload's pool
	texts []string
	body  []byte

	// Compiled once, outside the timed calls. raw are parsed from texts
	// (so a respelled op keeps its own vertex numbering); pats are raw
	// as matched — converted per Theorem 3.1 when the workload is
	// vertex-induced; plans come from plan.New with no cache.
	raw      []*pattern.Pattern
	pats     []*pattern.Pattern
	plans    []*plan.Plan
	prepared *peregrine.PreparedQuery

	// Set by the traced pass. recover, when non-nil, maps the counts of
	// plans (a morphed batch's executed set) back to the patterns asked
	// for; partner is the op a merged execution pairs this one with.
	recover func([]uint64) []uint64
	partner *op
}

func (o *op) key() string { return strings.Join(o.texts, "|") }

// workload is one named set of inputs. The four differ in which module
// does most of the work; see README.md for why each was chosen.
type workload struct {
	name    string
	rung    rung // where the end-to-end metrics are measured
	clients int  // closed-loop callers; each sends its next op when the last returns
	ops     int  // measured ops of a fixed-count run (no -seconds)
	sample  int  // ops the traced pass replays at each rung
	// exact: every op takes a deterministic path, so the work counters
	// of two runs over the same request list must be equal. Not so where
	// requests coalesce by arrival time or stop at the first match.
	exact bool

	graph         func(seed uint64, div uint32) *graph.Graph
	pool          []*pattern.Pattern
	vertexInduced bool
	// deck is the request mix as a fixed multiset of draws. The request
	// list is the deck dealt again and again, reshuffled by the seed each
	// time, so every run of a workload has the same composition — what
	// the seed changes is the graph, the order, and the respellings.
	deck []draw
}

// draw is one card of a workload's deck: which patterns an op asks
// about and how. respell renumbers the patterns' vertices at random, so
// the text is new to the server and the plan cache must canonicalise it.
type draw struct {
	kind    string
	pool    []int
	respell bool
}

// wholePool is the deck of the two library workloads: one card, every
// pattern of the pool in one batched count.
func wholePool(n int) []draw {
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	return []draw{{kind: server.KindCount, pool: all}}
}

// allSubsets is one count of every k-subset of n pool patterns.
func allSubsets(n, k int) []draw {
	var out []draw
	var pick func(from int, chosen []int)
	pick = func(from int, chosen []int) {
		if len(chosen) == k {
			out = append(out, draw{kind: server.KindCount, pool: append([]int(nil), chosen...)})
			return
		}
		for i := from; i < n; i++ {
			pick(i+1, append(chosen, i))
		}
	}
	pick(0, nil)
	return out
}

func workloads(nproc int) []*workload {
	motifs := func(sizes ...int) []*pattern.Pattern {
		var out []*pattern.Pattern
		for _, k := range sizes {
			out = append(out, pattern.GenerateAllVertexInduced(k)...)
		}
		return out
	}
	er := func(v uint32, e uint64) func(uint64, uint32) *graph.Graph {
		return func(seed uint64, div uint32) *graph.Graph {
			return gen.ErdosRenyi(gen.ERConfig{Vertices: v / div, Edges: e / uint64(div), MaxDegree: 100, Seed: seed})
		}
	}
	// serve_mix's deck of 80: 70 % counts of three patterns (each of the
	// 56 triples once), 10 % the same respelled, 10 % exists, 10 % matches.
	// An exists op asks about the 4-cycle or the 4-clique: on a sparse
	// flat graph the first is found at once and the second is absent,
	// so one stops early and the other searches exhaustively.
	serveMotifs := motifs(3, 4)
	serveDeck := allSubsets(len(serveMotifs), 3)
	for i, p := range serveMotifs {
		n := len(serveMotifs)
		serveDeck = append(serveDeck,
			draw{kind: server.KindCount, pool: []int{i, (i + 1) % n, (i + 2) % n}, respell: true},
			draw{kind: server.KindMatches, pool: []int{i}})
		if p.IsIsomorphic(pattern.Cycle(4)) || p.IsIsomorphic(pattern.Clique(4)) {
			for k := 0; k < 4; k++ {
				serveDeck = append(serveDeck, draw{kind: server.KindExists, pool: []int{i}})
			}
		}
	}
	return []*workload{
		{
			name: "motif_batch", rung: rungPeregrine, clients: 1, ops: 200, sample: 8, exact: true,
			graph: er(512, 2560), pool: motifs(4, 5), vertexInduced: true, deck: wholePool(27),
		},
		{
			name: "clique_skew", rung: rungPeregrine, clients: 1, ops: 200, sample: 10, exact: true,
			graph: func(seed uint64, div uint32) *graph.Graph {
				return gen.RMAT(gen.RMATConfig{Vertices: 4096 / div, Edges: 50000 / uint64(div), Seed: seed})
			},
			pool: []*pattern.Pattern{pattern.Clique(3), pattern.Clique(4)}, deck: wholePool(2),
		},
		{
			name: "serve_mix", rung: rungHTTP, clients: nproc, ops: 5600, sample: 320,
			graph: er(512, 2560), pool: serveMotifs, vertexInduced: true, deck: serveDeck,
		},
		{
			name: "coord_sharded", rung: rungCoord, clients: nproc, ops: 405, sample: 45, exact: true,
			graph: er(4096, 20480), pool: motifs(4), vertexInduced: true, deck: allSubsets(6, 2),
		},
	}
}

// makeOps returns the first n ops of the workload's request list: the
// deck dealt repeatedly, reshuffled each time. The list is a function
// of the seed alone: the same seed gives byte-equal bodies. Ops that
// ask for the same texts share one compiled form.
func (w *workload) makeOps(seed uint64, n int) ([]*op, error) {
	rng := gen.NewRNG(seed*0x9E3779B97F4A7C15 + 1)
	compiled := make(map[string]*op)
	ops := make([]*op, n)
	deck := append([]draw(nil), w.deck...)
	for i := range ops {
		if i%len(deck) == 0 {
			for j := len(deck) - 1; j > 0; j-- {
				k := int(rng.Intn(uint64(j + 1)))
				deck[j], deck[k] = deck[k], deck[j]
			}
		}
		card := deck[i%len(deck)]
		kind, pool := card.kind, card.pool
		texts := make([]string, len(pool))
		for j, pi := range pool {
			p := w.pool[pi]
			if card.respell {
				p = p.Renumber(permutation(p.N(), rng))
			}
			texts[j] = p.String()
		}
		req := server.Request{Graph: graphName, Kind: kind, VertexInduced: w.vertexInduced, Wait: true}
		switch kind {
		case server.KindCount:
			req.Patterns = texts
		case server.KindMatches:
			req.Pattern, req.MaxMatches = texts[0], matchLimit
		default:
			req.Pattern = texts[0]
		}
		id := kind + " " + strings.Join(texts, "|")
		if c, ok := compiled[id]; ok {
			ops[i] = c
			continue
		}
		body, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		o := &op{kind: kind, pool: pool, texts: texts, body: body}
		for _, text := range texts {
			p, err := pattern.Parse(text)
			if err != nil {
				return nil, fmt.Errorf("%s: pattern %q: %w", w.name, text, err)
			}
			o.raw = append(o.raw, p)
			if w.vertexInduced {
				p = pattern.VertexInduced(p)
			}
			pl, err := plan.New(p, plan.Options{})
			if err != nil {
				return nil, fmt.Errorf("%s: plan for %q: %w", w.name, text, err)
			}
			o.pats = append(o.pats, p)
			o.plans = append(o.plans, pl)
		}
		if o.prepared, err = peregrine.Prepare(o.pats...); err != nil {
			return nil, err
		}
		compiled[id] = o
		ops[i] = o
	}
	return ops, nil
}

func permutation(n int, rng *gen.RNG) []int {
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := int(rng.Intn(uint64(i + 1)))
		perm[i], perm[j] = perm[j], perm[i]
	}
	return perm
}

// oracle holds the expected answer for every pool pattern, computed on
// the flat in-memory graph by the ablated path: no sharing, no
// morphing, one thread. Every op's result at every rung is compared
// with it.
type oracle struct {
	g      *graph.Graph
	counts []uint64
	engine map[uint32]uint32 // original vertex id -> g's vertex id
}

func (w *workload) newOracle(g *graph.Graph) (*oracle, error) {
	opts := []peregrine.Option{peregrine.WithoutSharing(), peregrine.WithoutMorphing(), peregrine.WithThreads(1)}
	if w.vertexInduced {
		opts = append(opts, peregrine.VertexInduced())
	}
	counts, err := peregrine.CountMany(g, w.pool, opts...)
	if err != nil {
		return nil, fmt.Errorf("%s: oracle: %w", w.name, err)
	}
	or := &oracle{g: g, counts: counts, engine: make(map[uint32]uint32, g.NumVertices())}
	for v := uint32(0); v < g.NumVertices(); v++ {
		or.engine[g.OrigID(v)] = v
	}
	return or, nil
}

// outcome is what an op returned at some rung, reduced to what the
// oracle can check.
type outcome struct {
	counts  []uint64   // count ops: one per pattern asked for
	found   bool       // exists ops
	matches [][]uint32 // matches ops: original vertex ids per pattern vertex
}

// check compares an op's outcome with the oracle.
func (or *oracle) check(o *op, out *outcome) error {
	switch o.kind {
	case server.KindCount:
		if len(out.counts) != len(o.pool) {
			return fmt.Errorf("count %q: %d rows for %d patterns", o.key(), len(out.counts), len(o.pool))
		}
		for i, pi := range o.pool {
			if out.counts[i] != or.counts[pi] {
				return fmt.Errorf("count %q: got %d, oracle %d", o.texts[i], out.counts[i], or.counts[pi])
			}
		}
	case server.KindExists:
		if want := or.counts[o.pool[0]] > 0; out.found != want {
			return fmt.Errorf("exists %q: got %v, oracle %v", o.texts[0], out.found, want)
		}
	case server.KindMatches:
		want := min(or.counts[o.pool[0]], matchLimit)
		if uint64(len(out.matches)) != want {
			return fmt.Errorf("matches %q: got %d mappings, oracle %d", o.texts[0], len(out.matches), want)
		}
		for _, m := range out.matches {
			if err := or.validMatch(o.pats[0], m); err != nil {
				return fmt.Errorf("matches %q: %w", o.texts[0], err)
			}
		}
	}
	return nil
}

// validMatch checks one returned mapping against the graph: distinct
// vertices, every pattern edge present, every anti-edge absent.
func (or *oracle) validMatch(p *pattern.Pattern, m []uint32) error {
	if len(m) != p.N() {
		return fmt.Errorf("mapping %v has %d vertices, pattern %d", m, len(m), p.N())
	}
	ids := make([]uint32, len(m))
	for i, orig := range m {
		v, ok := or.engine[orig]
		if !ok {
			return fmt.Errorf("mapping %v names vertex %d, not in the graph", m, orig)
		}
		ids[i] = v
	}
	for u := 0; u < p.N(); u++ {
		for v := u + 1; v < p.N(); v++ {
			if ids[u] == ids[v] {
				return fmt.Errorf("mapping %v repeats a vertex", m)
			}
			has := or.g.HasEdge(ids[u], ids[v])
			if p.HasEdge(u, v) && !has || p.HasAntiEdge(u, v) && has {
				return fmt.Errorf("mapping %v breaks the pattern between vertices %d and %d", m, u, v)
			}
		}
	}
	return nil
}
