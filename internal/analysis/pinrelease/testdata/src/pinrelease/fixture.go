// Fixtures for pinrelease: a mini registry with the pin-granting shape
// of peregrine/internal/server.Registry.Acquire, and a second Acquire
// whose release func sits elsewhere in the result tuple.
package pinrelease

import "errors"

type Graph struct{}

type Registry struct{}

func (r *Registry) Acquire(name string) (*Graph, func(), error) {
	return &Graph{}, func() {}, nil
}

type Pool struct{}

func (p *Pool) Acquire(v uint32) (lo, hi uint32, release func(), err error) {
	return 0, 0, func() {}, nil
}

func use(*Graph)             {}
func cond() bool             { return false }
func workThatCanFail() error { return errors.New("no") }

// --- positives ---

// discarded: the release func goes straight to the blank identifier.
func discarded(r *Registry) {
	g, _, err := r.Acquire("web") // want `release func returned by Acquire is discarded`
	if err != nil {
		return
	}
	use(g)
}

// neverCalled: bound but never invoked; the pin outlives the query.
func neverCalled(r *Registry) {
	g, release, err := r.Acquire("web") // want `release func returned by Acquire is never called`
	_ = release
	if err != nil {
		return
	}
	use(g)
}

// leakOnEarlyReturn is the real bug shape: released on the happy path,
// leaked whenever the middle return fires.
func leakOnEarlyReturn(r *Registry) error {
	g, release, err := r.Acquire("web")
	if err != nil {
		return err
	}
	use(g)
	if cond() {
		return nil // want `pin from Acquire at .* is not released on this path`
	}
	release()
	return nil
}

// leakInBranch releases in one branch only; the other falls off the
// end of the function still holding the pin.
func leakInBranch(r *Registry) {
	_, release, _ := r.Acquire("web")
	if cond() {
		release()
	}
} // want `pin from Acquire at .* is not released on this path`

// poolLeak: same protocol, the release third of four results.
func poolLeak(p *Pool) error {
	lo, hi, release, err := p.Acquire(7)
	if err != nil {
		return err
	}
	if lo > hi {
		return errors.New("bad range") // want `pin from Acquire at .* is not released on this path`
	}
	release()
	return nil
}

// resultsDropped: the call statement ignores the whole result tuple.
func resultsDropped(r *Registry) {
	r.Acquire("web") // want `release func returned by Acquire is discarded`
}
