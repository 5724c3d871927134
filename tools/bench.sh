#!/usr/bin/env bash
# Release-mode performance benches.
#
# Builds an optimized tree (build-bench), runs the detection hot-path bench
# (which rewrites BENCH_hotpath.json at the repo root — commit it when the
# numbers move) and the fleet scaling bench, and gates on (a) the hot path
# achieving at least MIN_SPEEDUP (default 3) over the reference
# implementation on both paper rosters, (b) the flight-recorder
# instrumentation costing at most 10% of fast-path throughput
# (instrumented_ratio >= MIN_INSTRUMENTED_RATIO, default 0.9), (c) the
# durable-store WAL appends costing at most 10% of instrumented throughput
# (store_ratio >= MIN_STORE_RATIO, default 0.9 — the two buffered appends
# cost a fixed ~0.5-0.8us against a ~10us step, so the ratio floats with
# machine speed and 0.95 had near-zero margin), and (d) the streaming
# tokenizer→snapshot pipeline processing pages at least MIN_STREAM_RATIO
# (default 3) times faster than the test oracle's reference tree builder
# plus tree flattener,
# and (e) the audit evidence of a cookie-caused step, computed from the
# snapshots, running at least MIN_EVIDENCE_SPEEDUP (default 2) times faster
# than the oracle that parses both copies and diffs node trees (the bench
# checks every round that both produce the same lists), and (f) the
# scan-only page-info pass of a page view that builds no snapshot running
# at least 1.5 times faster than the stream build over the same pages
# (checked every round to find the same page info).
# All these ratios are medians of paired adjacent timing rounds inside the
# bench, so ambient machine noise perturbs single rounds, not the gate.
#
# The serve bench (BENCH_serve.json) gates the socket service tier: closed-
# loop hidden-fetch throughput over real loopback sockets must reach at
# least MIN_SERVE_QPS (default 10000) req/s with p99 latency at most
# MAX_SERVE_P99_MS (default 50) and keep-alive connection reuse at least
# MIN_SERVE_REUSE (default 0.9). The first round serves minimal origins so
# the number measures the epoll tier itself; the site-generator round
# (real synthetic container pages) must reach MIN_GENERATOR_QPS (default
# 6996, the last figure of the tree-building origin renderer) as
# generator_qps.
#
# The knowledge bench (BENCH_knowledge.json) gates the crowd-shared verdict
# tier: at every fleet size (1 → 10k users sharing one KnowledgeBase) the
# last user's own hidden-request bill must be at most MAX_WARM_HIDDEN_REQS
# (default 0 — the crowd pays for each site exactly once), and the warm
# verdict service must answer at least MIN_KNOWLEDGE_WARM_QPS (default 300)
# verdicts/s.
#
# The attribution bench (BENCH_attribution.json) gates the provenance tier
# on both paper rosters: taint-assisted attribution must resolve each
# verdict in at most MAX_ATTRIB_ROUNDS mean hidden rounds (default 2 —
# nominate + confirm, versus bisection's O(log n) narrowing), shrink the
# pooled hidden-request bill to convergence by at least MIN_ATTRIB_SPEEDUP
# (default 1.1) over the bisection baseline, and match or beat bisection's
# accuracy (accuracy_ok per roster: no extra missed or over-marked
# cookies). The campaign is fully simulated, so these numbers are exact
# counts, immune to machine noise.
#
# Every bench runs first; then one table of gates, each `gate FILE KEY OP
# LIMIT`, requires every value of "KEY" in FILE to satisfy OP LIMIT.
#
#   tools/bench.sh            # hot path + fleet scaling + serve tier
#   MIN_SPEEDUP=5 tools/bench.sh
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
JOBS="${JOBS:-$(nproc)}"
MIN_SPEEDUP="${MIN_SPEEDUP:-3}"
MIN_INSTRUMENTED_RATIO="${MIN_INSTRUMENTED_RATIO:-0.9}"
MIN_STORE_RATIO="${MIN_STORE_RATIO:-0.9}"
MIN_STREAM_RATIO="${MIN_STREAM_RATIO:-3.0}"
MIN_EVIDENCE_SPEEDUP="${MIN_EVIDENCE_SPEEDUP:-2}"
MIN_SERVE_QPS="${MIN_SERVE_QPS:-10000}"
MAX_SERVE_P99_MS="${MAX_SERVE_P99_MS:-50}"
MIN_SERVE_REUSE="${MIN_SERVE_REUSE:-0.9}"
MIN_GENERATOR_QPS="${MIN_GENERATOR_QPS:-6996}"
MIN_KNOWLEDGE_WARM_QPS="${MIN_KNOWLEDGE_WARM_QPS:-300}"
MAX_WARM_HIDDEN_REQS="${MAX_WARM_HIDDEN_REQS:-0}"
MAX_ATTRIB_ROUNDS="${MAX_ATTRIB_ROUNDS:-2}"
MIN_ATTRIB_SPEEDUP="${MIN_ATTRIB_SPEEDUP:-1.1}"
BUILD_DIR="$ROOT/build-bench"

# gate FILE KEY OP LIMIT: every number written as "KEY": in FILE must
# satisfy `value OP LIMIT` (OP is >=, <= or ==). Exits on the first miss.
gate() {
  local file="$ROOT/$1" key="$2" op="$3" limit="$4" values value
  values="$(grep -o "\"$key\": [0-9.]*" "$file" | sed 's/.*: //' || true)"
  if [[ -z "$values" ]]; then
    echo "FAIL: could not read $key from $1" >&2
    exit 1
  fi
  for value in $values; do
    if ! awk -v v="$value" -v l="$limit" -v op="$op" 'BEGIN {
           exit !((op == ">=" && v >= l) || (op == "<=" && v <= l) ||
                  (op == "==" && v == l)) }'; then
      echo "FAIL: $1 $key $value, required $op $limit" >&2
      exit 1
    fi
  done
  echo "OK: $key ${values//$'\n'/ } ($op $limit)"
}

echo "=== configuring $BUILD_DIR (Release) ==="
cmake -B "$BUILD_DIR" -S "$ROOT" -DCMAKE_BUILD_TYPE=Release >/dev/null
echo "=== building benches ==="
cmake --build "$BUILD_DIR" -j "$JOBS" \
      --target bench_detection_hotpath bench_fleet_scaling bench_serve \
               bench_knowledge bench_attribution

echo "=== detection hot path ==="
"$BUILD_DIR/bench/bench_detection_hotpath" "$ROOT/BENCH_hotpath.json"

echo "=== fleet scaling ==="
"$BUILD_DIR/bench/bench_fleet_scaling"

echo "=== serve tier (loopback sockets) ==="
"$BUILD_DIR/bench/bench_serve" "$ROOT/BENCH_serve.json"

echo "=== knowledge tier (crowd convergence + warm verdicts) ==="
"$BUILD_DIR/bench/bench_knowledge" "$ROOT/BENCH_knowledge.json"

echo "=== attribution tier (taint-nominated verdicts) ==="
"$BUILD_DIR/bench/bench_attribution" "$ROOT/BENCH_attribution.json"

echo "=== gates ==="
gate BENCH_hotpath.json speedup ">=" "$MIN_SPEEDUP"
gate BENCH_hotpath.json instrumented_ratio ">=" "$MIN_INSTRUMENTED_RATIO"
gate BENCH_hotpath.json store_ratio ">=" "$MIN_STORE_RATIO"
gate BENCH_hotpath.json stream_ratio ">=" "$MIN_STREAM_RATIO"
gate BENCH_hotpath.json evidence_speedup ">=" "$MIN_EVIDENCE_SPEEDUP"
gate BENCH_hotpath.json scan_ratio ">=" 1.5
gate BENCH_serve.json qps ">=" "$MIN_SERVE_QPS"
gate BENCH_serve.json p99_ms "<=" "$MAX_SERVE_P99_MS"
gate BENCH_serve.json reuse_ratio ">=" "$MIN_SERVE_REUSE"
gate BENCH_serve.json generator_qps ">=" "$MIN_GENERATOR_QPS"
gate BENCH_knowledge.json warm_hidden_requests "<=" "$MAX_WARM_HIDDEN_REQS"
gate BENCH_knowledge.json warm_qps ">=" "$MIN_KNOWLEDGE_WARM_QPS"
gate BENCH_attribution.json attrib_rounds_per_verdict "<=" "$MAX_ATTRIB_ROUNDS"
gate BENCH_attribution.json overall_bill_speedup ">=" "$MIN_ATTRIB_SPEEDUP"
gate BENCH_attribution.json accuracy_ok "==" 1

echo "all benches done; BENCH_hotpath.json, BENCH_serve.json, BENCH_knowledge.json and BENCH_attribution.json updated"
