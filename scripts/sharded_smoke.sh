#!/usr/bin/env bash
# Sharded + distributed serving smoke (CI) over the 4-shard
# patents-lite manifest written by gengraph: coordinator + failover.
#
# A node started with one fragment file removed must answer the query
# with a 200 "failed" job: not a hang, not a count. Then two
# peregrine-serve nodes serve the manifest; the coordinator's merged
# counts must equal a single node's whole-graph counts, before AND after
# one node is killed mid-fleet (per-shard failover to the replica) — for
# an edge-induced pair, which fans out as given, and for a vertex-induced
# pair, which the coordinator rewrites above the fan-out and recovers at
# the merge (its answer must say so: stats.morphing.patternsReplaced > 0).
# By then a node has loaded the graph and reported its shape, so the
# rewrite decomposes the pair's 4-path at a vertex cut, as a node would,
# and ships the cut: stats.morphing.decomposed > 0. The edge-induced
# wheel W4 has no cut of fewer than three vertices; the coordinator
# decomposes it at its hub and two opposite rim vertices and ships that
# three-vertex cut, which the nodes rebuild — its count must equal the
# single node's too, before and after the kill, decomposed. The wheel
# (and the diamond its relation reads) counts 0 on this graph, so this
# checks the cut's path over the wire, not the tally's arithmetic:
# `go test ./internal/core -run Cut` and `go test . -run
# TestDifferentialCountCuts` check that. Each node's plan cache first
# compiles the vertex-induced tailed triangle, which the coordinator runs
# as given, from a different spelling; the nodes still run one plan for
# it, so the coordinator's merged count equals a single node's.
#
# Serving numbers through a coordinator come from `go run ./bench
# -workload coord_sharded`, not from this script.
set -euo pipefail
cd "$(dirname "$0")/.."

WORK=$(mktemp -d)
PIDS=()
cleanup() {
  for pid in "${PIDS[@]:-}"; do kill "$pid" 2>/dev/null || true; done
  rm -rf "$WORK"
}
trap cleanup EXIT

NODE_A=18081
NODE_B=18082
COORD=18090
PATTERNS='["0-1 1-2 2-0","0-1 0-2 0-3"]'
VI_PATTERNS='["0-1 0-2 0-3","0-1 1-2 2-3"]'
W4_PATTERNS='["0-1 0-2 0-3 0-4 1-3 1-4 2-3 2-4"]'
SPELLING_A='["0-1 1-2 1-3 2-3"]' # the tailed triangle, as node A first sees it
SPELLING_B='["0-1 0-2 0-3 1-2"]' # and as node B does

say() { echo "sharded_smoke: $*" >&2; }

wait_healthy() { # url
  for _ in $(seq 1 50); do
    if curl -sf "$1/healthz" >/dev/null 2>&1; then return 0; fi
    sleep 0.2
  done
  say "$1 never became healthy"
  return 1
}

# count <base-url> — run the fixed two-pattern count, print total count
count() {
  curl -sf -X POST "$1/v1/query" \
    -d "{\"graph\":\"patents\",\"kind\":\"count\",\"patterns\":$PATTERNS,\"wait\":true}" \
    | grep -o '"count":[0-9]*' | head -1 | cut -d: -f2
}

# count_rows <base-url> <answer-file> <patterns> <vertexInduced> — run a
# count, keep the whole answer, print its per-pattern rows
count_rows() {
  curl -sf -X POST "$1/v1/query" -o "$2" \
    -d "{\"graph\":\"patents\",\"kind\":\"count\",\"patterns\":$3,\"vertexInduced\":$4,\"wait\":true}"
  grep -o '"perPattern":\[[^]]*\]' "$2" || true
}

# check_rewrite <when> <what> <patterns> <vertexInduced> <single-node rows>
# — the coordinator's answer must equal the single node's and report its
# rewrite, decomposition included
check_rewrite() {
  local merged replaced decomposed
  merged=$(count_rows "http://127.0.0.1:$COORD" "$WORK/rewrite.json" "$3" "$4")
  replaced=$(grep -o '"patternsReplaced":[0-9]*' "$WORK/rewrite.json" | cut -d: -f2 || true)
  decomposed=$(grep -o '"decomposed":[0-9]*' "$WORK/rewrite.json" | cut -d: -f2 || true)
  say "$1: $2 merged $merged patternsReplaced=${replaced:-none} decomposed=${decomposed:-none}"
  if [ -z "$5" ] || [ "$5" != "$merged" ]; then
    say "FAIL: $1: $2 merged counts diverge from single node $5"
    exit 1
  fi
  if [ "${replaced:-0}" -lt 1 ]; then
    say "FAIL: $1: the coordinator did not rewrite the $2: $(cat "$WORK/rewrite.json")"
    exit 1
  fi
  if [ "${decomposed:-0}" -lt 1 ]; then
    say "FAIL: $1: the coordinator's rewrite of the $2 decomposed nothing: $(cat "$WORK/rewrite.json")"
    exit 1
  fi
}

# check_rewrites <when> — both rewritten queries, through the coordinator
check_rewrites() {
  check_rewrite "$1" "vertex-induced pair" "$VI_PATTERNS" true "$SINGLE_VI"
  check_rewrite "$1" "edge-induced W4" "$W4_PATTERNS" false "$SINGLE_W4"
}

# check_spellings — node A and node B each count the vertex-induced tailed
# triangle first in their own spelling; the coordinator's merged count of
# B's spelling must equal node A's whole-graph count of it
check_spellings() {
  local single merged
  count_rows "http://127.0.0.1:$NODE_A" "$WORK/spelling.json" "$SPELLING_A" true >/dev/null
  count_rows "http://127.0.0.1:$NODE_B" "$WORK/spelling.json" "$SPELLING_B" true >/dev/null
  single=$(count_rows "http://127.0.0.1:$NODE_A" "$WORK/spelling.json" "$SPELLING_B" true)
  merged=$(count_rows "http://127.0.0.1:$COORD" "$WORK/spelling.json" "$SPELLING_B" true)
  say "nodes seeded with two spellings: tailed triangle single $single merged $merged"
  if [ -z "$single" ] || [ "$single" != "$merged" ]; then
    say "FAIL: nodes that first saw different spellings sum to $merged, a single node counts $single"
    exit 1
  fi
}

start_node() { # port [extra serve flags...]
  local port=$1
  shift
  "$WORK/bin/peregrine-serve" -addr "127.0.0.1:$port" \
    -graph "patents=$WORK/patents.manifest" "$@" &
  PIDS+=($!)
  wait_healthy "http://127.0.0.1:$port"
}

start_coord() {
  "$WORK/bin/peregrine-coord" -addr "127.0.0.1:$COORD" -graph patents \
    -manifest "$WORK/patents.manifest" \
    -node "http://127.0.0.1:$NODE_A" -node "http://127.0.0.1:$NODE_B" &
  PIDS+=($!)
  wait_healthy "http://127.0.0.1:$COORD"
}

stop_all() {
  for pid in "${PIDS[@]:-}"; do
    kill "$pid" 2>/dev/null || true
    wait "$pid" 2>/dev/null || true
  done
  PIDS=()
}

say "building binaries"
go build -o "$WORK/bin/" ./cmd/gengraph ./cmd/peregrine-serve ./cmd/peregrine-coord

say "writing 4-shard patents-lite manifest"
"$WORK/bin/gengraph" -dataset patents-lite -shards 4 -o "$WORK/patents.manifest"

say "a node missing one fragment file fails the query"
mv "$WORK/patents.shard2.pgr" "$WORK/patents.shard2.pgr.away"
start_node "$NODE_A"
BROKEN=$(curl -s --max-time 30 -o "$WORK/broken.json" -w '%{http_code}' -X POST \
  "http://127.0.0.1:$NODE_A/v1/query" \
  -d "{\"graph\":\"patents\",\"kind\":\"count\",\"patterns\":$PATTERNS,\"wait\":true}")
if [ "$BROKEN" != 200 ] || ! grep -q '"status":"failed"' "$WORK/broken.json" \
  || grep -q '"count":' "$WORK/broken.json"; then
  say "FAIL: want a 200 failed job without a count, got $BROKEN: $(cat "$WORK/broken.json")"
  exit 1
fi
stop_all
mv "$WORK/patents.shard2.pgr.away" "$WORK/patents.shard2.pgr"

say "starting two serve nodes + coordinator"
start_node "$NODE_A"
start_node "$NODE_B"
start_coord

say "comparing merged counts against a single node"
SINGLE=$(count "http://127.0.0.1:$NODE_A")
MERGED=$(count "http://127.0.0.1:$COORD")
say "single-node count=$SINGLE merged count=$MERGED"
if [ -z "$SINGLE" ] || [ "$SINGLE" != "$MERGED" ]; then
  say "FAIL: merged counts diverge from single node"
  exit 1
fi
SINGLE_VI=$(count_rows "http://127.0.0.1:$NODE_A" "$WORK/vi-single.json" "$VI_PATTERNS" true)
SINGLE_W4=$(count_rows "http://127.0.0.1:$NODE_A" "$WORK/w4-single.json" "$W4_PATTERNS" false)
check_rewrites "healthy fleet"
check_spellings

say "killing node B, re-querying through the coordinator"
kill "${PIDS[1]}" 2>/dev/null || true
wait "${PIDS[1]}" 2>/dev/null || true
AFTER=$(count "http://127.0.0.1:$COORD")
say "post-kill merged count=$AFTER"
if [ "$AFTER" != "$SINGLE" ]; then
  say "FAIL: counts changed after node death ($AFTER != $SINGLE)"
  exit 1
fi
check_rewrites "after node death"
FAILOVERS=$(curl -sf "http://127.0.0.1:$COORD/v1/coord" \
  | grep -o '"failovers":[0-9]*' | cut -d: -f2 | awk '{s+=$1} END{print s+0}')
say "coordinator failovers=$FAILOVERS"
if [ -z "$FAILOVERS" ] || [ "$FAILOVERS" -lt 1 ]; then
  say "FAIL: node death recorded no failovers"
  exit 1
fi
stop_all

say "OK: missing fragment failed the job, merged counts exact as given, rewritten (decomposed, W4 at a three-vertex cut) and over nodes that saw other spellings first, failover survived"
