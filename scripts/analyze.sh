#!/usr/bin/env bash
# One-shot static analysis: CI's analysis step runs this script, so a
# clean local run means a clean CI run.
#
#   1. gofmt           — formatting gate (diff listed, not rewritten)
#   2. go vet          — the stock analyzers, test files included
#   3. typed atomics   — no function-style integer sync/atomic calls, so
#                        no field can mix atomic and plain access
#   4. inlinable rows  — Graph.Adj/Label/Degree/OrigID, the engine's
#                        innermost calls, must fit the inlining budget
#   5. inlinable kernels — intersectMerge, lowerBound, upperBound,
#                        containsSorted, intersectCount and gallops
#                        likewise, the component walks' per-candidate
#                        helpers (*cutTable).excluded and (*cutVal).add,
#                        the marked kernel's per-candidate test
#                        (*markSet).hit, the scan a sized count level
#                        makes per candidate, (*markSet).count, and the
#                        id window a trie step reads per child, slot and
#                        sized level, (*multiWorker).window
#   6. one bitmap client — no package but internal/graph and bench
#                        (tests included) imports internal/bitset: the
#                        engine intersects sorted lists (a thread's marks
#                        of one list are its own scratch, not an adjacency
#                        encoding) and FSM's MNI domains are internal/mni's
#                        own sets; the hub bitmaps serve the benchmark
#                        ladder only
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
for f in intersectMerge lowerBound upperBound containsSorted intersectCount gallops; do
  if ! grep -qE "can inline $f( |$)" <<<"$inl"; then
    echo "$f no longer inlines: every merge, probe or kernel choice pays a call for it"
    fail=1
  fi
done
for m in '(*cutTable).excluded' '(*cutVal).add'; do
  if ! grep -qF "can inline $m" <<<"$inl"; then
    echo "$m no longer inlines: every candidate of a component walk pays a call for it"
    fail=1
  fi
done
for m in '(*markSet).hit' '(*markSet).count'; do
  if ! grep -qF "can inline $m" <<<"$inl"; then
    echo "$m no longer inlines: every candidate scanned through the marks pays a call for it"
    fail=1
  fi
done
if ! grep -qF "can inline (*multiWorker).window" <<<"$inl"; then
  echo "(*multiWorker).window no longer inlines: every trie child, slot fill and sized level pays a call for it"
  fail=1
fi

echo "== bitmaps for the ladder only =="
# Direct imports: most packages reach internal/graph, which imports
# internal/bitset for the benchmark ladder's BuildHubBitsets, so go list
# -deps would list it everywhere.
importers=$(go list -f '{{.ImportPath}}{{range .Imports}} {{.}}{{end}}{{range .TestImports}} {{.}}{{end}}{{range .XTestImports}} {{.}}{{end}}' ./... |
  awk '{for (i = 2; i <= NF; i++) if ($i == "peregrine/internal/bitset") print $1}' | sort -u |
  grep -vx -e 'peregrine/internal/graph' -e 'peregrine/bench')
if [ -n "$importers" ]; then
  echo "internal/bitset imported by:"
  echo "$importers"
  echo "only internal/graph and bench may import it: the engine intersects sorted lists and FSM's domains are mni.Set"
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
