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

# count_vi <base-url> <answer-file> — run the vertex-induced pair, keep
# the whole answer, print its per-pattern rows
count_vi() {
  curl -sf -X POST "$1/v1/query" -o "$2" \
    -d "{\"graph\":\"patents\",\"kind\":\"count\",\"patterns\":$VI_PATTERNS,\"vertexInduced\":true,\"wait\":true}"
  grep -o '"perPattern":\[[^]]*\]' "$2" || true
}

# check_vi <when> — the coordinator's vertex-induced answer must equal
# the single node's ($SINGLE_VI) and report its rewrite
check_vi() {
  local merged replaced
  merged=$(count_vi "http://127.0.0.1:$COORD" "$WORK/vi.json")
  replaced=$(grep -o '"patternsReplaced":[0-9]*' "$WORK/vi.json" | cut -d: -f2 || true)
  say "$1: vertex-induced merged $merged patternsReplaced=${replaced:-none}"
  if [ -z "$SINGLE_VI" ] || [ "$SINGLE_VI" != "$merged" ]; then
    say "FAIL: $1: vertex-induced merged counts diverge from single node $SINGLE_VI"
    exit 1
  fi
  if [ "${replaced:-0}" -lt 1 ]; then
    say "FAIL: $1: the coordinator did not rewrite the vertex-induced pair: $(cat "$WORK/vi.json")"
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
SINGLE_VI=$(count_vi "http://127.0.0.1:$NODE_A" "$WORK/vi-single.json")
check_vi "healthy fleet"

say "killing node B, re-querying through the coordinator"
kill "${PIDS[1]}" 2>/dev/null || true
wait "${PIDS[1]}" 2>/dev/null || true
AFTER=$(count "http://127.0.0.1:$COORD")
say "post-kill merged count=$AFTER"
if [ "$AFTER" != "$SINGLE" ]; then
  say "FAIL: counts changed after node death ($AFTER != $SINGLE)"
  exit 1
fi
check_vi "after node death"
FAILOVERS=$(curl -sf "http://127.0.0.1:$COORD/v1/coord" \
  | grep -o '"failovers":[0-9]*' | cut -d: -f2 | awk '{s+=$1} END{print s+0}')
say "coordinator failovers=$FAILOVERS"
if [ -z "$FAILOVERS" ] || [ "$FAILOVERS" -lt 1 ]; then
  say "FAIL: node death recorded no failovers"
  exit 1
fi
stop_all

say "OK: missing fragment failed the job, merged counts exact as given and rewritten, failover survived"
