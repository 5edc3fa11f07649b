#!/usr/bin/env bash
# One-shot static analysis: everything CI's analysis gates run, in the
# same order, so a clean local run means a clean CI run.
#
#   1. gofmt           — formatting gate (diff listed, not rewritten)
#   2. go vet          — the stock analyzers, test files included
#   3. typed atomics   — no function-style integer sync/atomic calls, so
#                        no field can mix atomic and plain access
#   4. inlinable rows  — Graph.Adj/Label/Degree/OrigID, the engine's
#                        innermost calls, must fit the inlining budget
#   5. inlinable kernels — intersectMerge, lowerBound, containsSorted
#                        likewise (the operand skip lives in the
#                        dispatcher, not in the merge)
#   6. sorted lists only — internal/core (tests included) must not
#                        import internal/bitset: the engine intersects
#                        sorted lists alone
#   7. staticcheck     — if installed; CI pins and installs its own
#                        copy, so locally this warns and continues
#
# Usage: scripts/analyze.sh
set -uo pipefail
cd "$(dirname "$0")/.."

fail=0

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
  echo "gofmt needed on:"
  echo "$unformatted"
  fail=1
fi

echo "== go vet =="
go vet ./... || fail=1

echo "== typed atomics only =="
if grep -rnE 'atomic\.(Add|Load|Store|Swap|CompareAndSwap)(Int32|Int64|Uint32|Uint64|Uintptr)\(' --include='*.go' .; then
  echo "use atomic.Int64/Uint64/... values, not the function-style calls"
  fail=1
fi

echo "== graph accessors inlinable =="
inl=$(go build -gcflags=-m ./internal/graph 2>&1)
for m in Adj Label Degree OrigID; do
  if ! grep -qF "can inline (*Graph).$m" <<<"$inl"; then
    echo "(*Graph).$m no longer inlines: every intersection pays a call for it (see Graph.rowsOf)"
    fail=1
  fi
done

echo "== intersection kernels inlinable =="
inl=$(go build -gcflags=-m ./internal/core 2>&1)
for f in intersectMerge lowerBound containsSorted; do
  if ! grep -qE "can inline $f( |$)" <<<"$inl"; then
    echo "$f no longer inlines: every merge or probe pays a call for it"
    fail=1
  fi
done

echo "== engine free of bitmaps =="
# Direct imports: internal/graph still imports internal/bitset for the
# benchmark ladder's BuildHubBitsets, so go list -deps would list it.
if go list -f '{{join .Imports "\n"}}{{"\n"}}{{join .TestImports "\n"}}' ./internal/core | grep -qx 'peregrine/internal/bitset'; then
  echo "internal/core imports internal/bitset: the engine intersects sorted lists only"
  fail=1
fi

echo "== staticcheck =="
if command -v staticcheck >/dev/null 2>&1; then
  staticcheck ./... || fail=1
else
  echo "staticcheck not installed; skipping (CI runs a pinned copy)"
fi

if [ "$fail" -ne 0 ]; then
  echo "analysis FAILED" >&2
  exit 1
fi
echo "analysis clean"
