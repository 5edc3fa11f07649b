// Command peregrine-vet is the engine's invariant gate: a multichecker
// of three analyzers, each encoding a bug class this codebase has
// actually hit or is structurally exposed to.
//
//	labeltrunc  truncating conversions of pattern labels (the PR 5/PR 7
//	            16-bit collision bug class, enforced forever)
//	lockheld    blocking operations inside mutex critical sections
//	ctxthread   context.Context parameters threaded, never dropped
//
// Two invariants that used to have analyzers here are held by
// construction instead: a registry pin is released on every path
// because server.Registry.With is the only way to take one, and no
// field mixes atomic and plain access because the tree uses only the
// typed sync/atomic values (CI greps for the function-style calls).
//
// Run it through the toolchain (build caching, test packages included):
//
//	go build -o /tmp/pvet ./cmd/peregrine-vet
//	go vet -vettool=/tmp/pvet ./...
//
// Suppress a deliberate violation with a justified directive on (or
// directly above) the offending line:
//
//	//pvet:ignore lockheld per-entry load serialization; lock order documented
//
// The reason is mandatory, and suppressions that silence nothing are
// themselves findings — the gate stays true-positive-only.
package main

import (
	"peregrine/internal/analysis"
	"peregrine/internal/analysis/ctxthread"
	"peregrine/internal/analysis/driver"
	"peregrine/internal/analysis/labeltrunc"
	"peregrine/internal/analysis/lockheld"
)

func main() {
	driver.Main([]*analysis.Analyzer{
		labeltrunc.Analyzer,
		lockheld.Analyzer,
		ctxthread.Analyzer,
	})
}
