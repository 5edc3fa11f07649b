package fsm

import (
	"context"
	"encoding/binary"
	"runtime"

	"peregrine/internal/core"
	"peregrine/internal/graph"
	"peregrine/internal/pattern"
	"peregrine/internal/plan"
)

// levelChunk is how many query patterns share one traversal. Each
// thread's tally holds a chunk's values until the chunk is folded, so the
// chunk bounds that memory; one traversal per whole FSM level measured
// slower and larger (ROADMAP, "Tried and dropped").
const levelChunk = 64

// tally is one thread's values of a chunk: at maps a key to its value's
// index in vals. A key is the query's index, then the labels of its
// regular vertices, 4 bytes each: whole labels, since labels sharing a
// key would share one labeling.
type tally[T any] struct {
	at   map[string]int
	vals []T
	key  []byte
	_    [64]byte // no two threads' tallies write one cache line
}

// Discover is dynamic label discovery (§3.2.1), shared by FSM and the
// labeled motif census. It matches exec, levelChunk patterns per
// traversal of g, and each thread tallies its matches of exec[q] by q and
// the labels of label[q]'s regular vertices (label[q] numbers them as
// exec[q] does): add(t, reg, m) records match m in its key's value t, a
// zero T for a new key; reg is label[q]'s regular vertices. After each
// chunk the caller's goroutine folds every key once: it labels label[q]
// with the key's labels, canonicalizes it, and calls fold(labeled, code,
// perm, t) with the key's value from each thread that holds one. It
// reports whether a traversal was cut short; a stopped chunk is not
// folded. opts.Deadline bounds the whole call, not each chunk.
func Discover[T any](g *graph.Graph, exec, label []*pattern.Pattern, opts core.Options,
	add func(t *T, reg []int, m *core.Match),
	fold func(labeled *pattern.Pattern, code string, perm []int, t *T)) (bool, error) {
	opts, cancel := spanDeadline(opts)
	defer cancel()
	plans := make([]*plan.Plan, len(exec))
	regs := make([][]int, len(exec))
	for q, p := range exec {
		pl, err := plan.New(p, plan.Options{NoSymmetryBreaking: opts.NoSymmetryBreaking})
		if err != nil {
			return false, err
		}
		plans[q], regs[q] = pl, label[q].RegularVertices()
	}
	tallies := make([]tally[T], opts.Threads)
	for lo := 0; lo < len(exec); lo += levelChunk {
		for i := range tallies { // fresh tallies, reusing the value arrays
			clear(tallies[i].vals)
			tallies[i].at, tallies[i].vals = make(map[string]int), tallies[i].vals[:0]
		}
		ms := core.RunPlans(g, plans[lo:min(lo+levelChunk, len(exec))], func(ctx *core.Ctx, pat int, m *core.Match) {
			t := &tallies[ctx.Thread]
			reg := regs[lo+pat]
			t.key = binary.BigEndian.AppendUint32(t.key[:0], uint32(lo+pat))
			for _, v := range reg {
				t.key = binary.BigEndian.AppendUint32(t.key, g.Label(m.Mapping[v]))
			}
			i, ok := t.at[string(t.key)]
			if !ok {
				i = len(t.vals)
				t.at[string(t.key)] = i
				t.vals = append(t.vals, *new(T))
			}
			add(&t.vals[i], reg, m)
		}, opts)
		if ms.Stopped {
			return true, nil
		}
		for ti := range tallies {
			for key, i := range tallies[ti].at {
				q := binary.BigEndian.Uint32([]byte(key))
				labeled := label[q].Clone()
				for k, v := range regs[q] {
					labeled.SetLabel(v, pattern.Label(binary.BigEndian.Uint32([]byte(key[4+4*k:]))))
				}
				code, perm := labeled.CanonicalForm()
				fold(labeled, code, perm, &tallies[ti].vals[i])
				for tj := ti + 1; tj < len(tallies); tj++ {
					if j, ok := tallies[tj].at[key]; ok {
						fold(labeled, code, perm, &tallies[tj].vals[j])
						delete(tallies[tj].at, key)
					}
				}
			}
		}
	}
	return false, nil
}

// spanDeadline resolves opts' thread count and turns its Deadline into a
// context deadline, which the engine does not re-arm on every run as it
// does Deadline; the caller must call cancel.
func spanDeadline(opts core.Options) (core.Options, context.CancelFunc) {
	if opts.Threads <= 0 {
		opts.Threads = runtime.GOMAXPROCS(0)
	}
	if opts.Deadline <= 0 {
		return opts, func() {}
	}
	ctx := opts.Context
	if ctx == nil {
		ctx = context.Background()
	}
	ctx, cancel := context.WithTimeout(ctx, opts.Deadline)
	opts.Context, opts.Deadline = ctx, 0
	return opts, cancel
}
