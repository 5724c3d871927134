#!/usr/bin/env bash
# Tier-1 verification under sanitizers.
#
# Builds and runs the full ctest suite four times: plain, under
# ThreadSanitizer (-DCOOKIEPICKER_SANITIZE=thread — the concurrency suite's
# contract), the TSan tree again with the flight recorder's process-global
# metrics registry enabled (COOKIEPICKER_OBS=1, so every obs::count / span
# in every test records concurrently into one shared registry), under
# AddressSanitizer+UBSan (-DCOOKIEPICKER_SANITIZE=address); then twelve
# targeted configurations: a Debug build of the fast-path differential
# suite (the bit-identical checks must hold without optimizer-dependent FP
# behaviour), and the chaos soaks: the ChaosSoak fleet test re-run in the
# TSan and ASan trees with COOKIEPICKER_CHAOS=1, which scales it up to 64
# hosts / 8 workers under an aggressive mixed fault plan. Each
# configuration gets its own build tree so caches never mix (thread-metrics
# and the chaos soaks reuse the sanitizer trees — same binaries, different
# environment). The crash-soak
# config re-runs the CrashRecovery property suite in the ASan tree with
# COOKIEPICKER_CHAOS=1, which scales the crash-point fuzzing from 24 to 200
# seeded kill/recover cycles. The fuzz-soak configs re-run the streaming
# snapshot differential fuzz suite and the HTML torture suite in the TSan
# and ASan trees with COOKIEPICKER_FUZZ=8, which scales the
# generated-document corpus eightfold (every document byte-compared across
# the streaming and reference pipelines, with mutation rounds, and every
# generated pair's audit evidence compared with the node-tree oracle), and
# the Set-Cookie/HTTP-date parser differential (in-place parsing against
# the allocating oracle over seeded random headers) eightfold too. The
# serve-soak configs re-run the service-tier suites (event loop,
# real-socket e2e parity, and the flapping-origin verdict soak) in the
# TSan and ASan trees with
# COOKIEPICKER_CHAOS=1, which doubles the soak's training views — epoll
# loops, connection pools, and the origin shards all run real threads, so
# TSan watches the cross-thread handoffs and ASan the parser buffers.
# The knowledge-soak configs re-run the shared-knowledge property suite
# (lattice laws, partition-order byte-identity, the epoch-guard
# demote/merge race) in the TSan and ASan trees with COOKIEPICKER_FUZZ=8,
# which scales the fuzzed lattice states and gossip-order permutations
# eightfold. The taint configs re-run the provenance tier suite (map
# normalization and framing over hostile inputs, taint-stamped streaming
# snapshots, the attribution-vs-bisection differential, the shared-region
# adversarial case, and fault-degraded confirms) in the TSan and ASan
# trees: TSan watches the recorder and snapshot plumbing alongside the
# fleet threads, ASan the framing parser over corrupted and truncated
# payloads.
#
#   tools/check.sh                 # all sixteen configurations
#   tools/check.sh thread          # just the TSan pass
#   tools/check.sh thread-metrics  # TSan with the global recorder enabled
#   tools/check.sh address         # just the ASan/UBSan pass
#   tools/check.sh plain           # just the unsanitized pass
#   tools/check.sh debug           # just the Debug differential pass
#   tools/check.sh chaos-thread    # scaled-up chaos soak in the TSan tree
#   tools/check.sh chaos-address   # scaled-up chaos soak in the ASan tree
#   tools/check.sh crash-soak      # 200-seed crash-recovery fuzz, ASan tree
#   tools/check.sh fuzz-thread     # scaled snapshot diff fuzz + HTML
#                                  # torture, TSan tree
#   tools/check.sh fuzz-address    # the same, ASan tree
#   tools/check.sh serve-thread    # scaled service-tier soak, TSan tree
#   tools/check.sh serve-address   # scaled service-tier soak, ASan tree
#   tools/check.sh knowledge-thread   # scaled knowledge soak, TSan tree
#   tools/check.sh knowledge-address  # scaled knowledge soak, ASan tree
#   tools/check.sh taint-thread       # provenance tier suite, TSan tree
#   tools/check.sh taint-address      # provenance tier suite, ASan tree
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
JOBS="${JOBS:-$(nproc)}"
CONFIGS=("${@:-plain}")
if [[ $# -eq 0 ]]; then
  CONFIGS=(plain thread thread-metrics address debug chaos-thread
           chaos-address crash-soak fuzz-thread fuzz-address
           serve-thread serve-address knowledge-thread knowledge-address
           taint-thread taint-address)
fi

for config in "${CONFIGS[@]}"; do
  sanitize=""
  build_type=""
  obs_env=""
  chaos_env=""
  fuzz_env=""
  test_filter=""
  soak_target="resilience_test"
  build_dir="$ROOT/build-check-$config"
  case "$config" in
    plain)   ;;
    thread)  sanitize="thread" ;;
    thread-metrics)
      # Same TSan binaries as `thread`; the only change is the environment
      # flag that switches MetricsRegistry::global() on, so every test
      # exercises concurrent recording into one shared registry.
      sanitize="thread"
      obs_env="1"
      build_dir="$ROOT/build-check-thread"
      ;;
    address) sanitize="address" ;;
    debug)   build_type="Debug" ;;
    chaos-thread)
      # The chaos soak at full scale (64 hosts, 8 workers, aggressive
      # fault plan) in the TSan tree: retries, degradations, and fault
      # bookkeeping must stay race-free while every worker hits them.
      sanitize="thread"
      chaos_env="1"
      test_filter="ChaosSoak"
      build_dir="$ROOT/build-check-thread"
      ;;
    chaos-address)
      # The same soak under ASan/UBSan: truncated bodies, corrupted
      # Set-Cookie headers, and short-circuited exchanges must not leak
      # or read out of bounds anywhere downstream.
      sanitize="address"
      chaos_env="1"
      test_filter="ChaosSoak"
      build_dir="$ROOT/build-check-address"
      ;;
    crash-soak)
      # Crash-point fuzzing of the durable store in the ASan tree: 200
      # seeded kill-at-random-point / recover / compare-bytes cycles
      # (torn appends, kills after fsync, kills mid-snapshot-rename).
      sanitize="address"
      chaos_env="1"
      test_filter="CrashRecovery"
      soak_target="crash_recovery_test"
      build_dir="$ROOT/build-check-address"
      ;;
    fuzz-thread)
      # The snapshot differential fuzz suite scaled eightfold in the TSan
      # tree: thousands of seeded/mutated documents through the streaming
      # and reference snapshot producers, byte-compared, while TSan watches
      # the shared interners. The HTML torture suite rides along, so the
      # tokenizer's view scratch sees the hostile corpus too, and so does
      # the audit-evidence differential (snapshot evidence against the
      # node-tree oracle on the rosters and the scaled fuzz corpus) and the
      # cookie-parser differential (string_view parsing against the
      # allocating oracle).
      sanitize="thread"
      fuzz_env="8"
      test_filter="SnapshotDifferential|EvidenceDifferential|CookieParseDifferential|Torture\.|BrokenFragment"
      soak_target="snapshot_differential_test evidence_differential_test
                   cookie_parse_differential_test html_torture_test"
      build_dir="$ROOT/build-check-thread"
      ;;
    fuzz-address)
      # The same scaled fuzz under ASan/UBSan: the builder's index patching
      # (subtree extents, merged text rows, structural flags) must never
      # write out of bounds on hostile shapes, and no token view may outlive
      # the tokenizer scratch it points into (HTML torture suite and the
      # evidence differential's text scans included), and no Set-Cookie
      # piece or date token may read past the header it views.
      sanitize="address"
      fuzz_env="8"
      test_filter="SnapshotDifferential|EvidenceDifferential|CookieParseDifferential|Torture\.|BrokenFragment"
      soak_target="snapshot_differential_test evidence_differential_test
                   cookie_parse_differential_test html_torture_test"
      build_dir="$ROOT/build-check-address"
      ;;
    serve-thread)
      # The service tier under TSan with the soak scaled up: epoll loops,
      # timer wheels, per-host pools, and origin shards exchange requests
      # across real threads while a flapping fault plan forces retries and
      # requeues; verdicts must still match the fault-free sim reference.
      sanitize="thread"
      chaos_env="1"
      test_filter="Http1|TimerWheel|EventLoop|ServeE2E|ServeSoak"
      soak_target="serve_http1_test serve_loop_test serve_e2e_test
                   serve_soak_test"
      build_dir="$ROOT/build-check-thread"
      ;;
    serve-address)
      # The same scaled soak under ASan/UBSan: HTTP/1.1 parser buffers,
      # truncated and corrupted wire bytes, and connection teardown paths
      # must never read or write out of bounds.
      sanitize="address"
      chaos_env="1"
      test_filter="Http1|TimerWheel|EventLoop|ServeE2E|ServeSoak"
      soak_target="serve_http1_test serve_loop_test serve_e2e_test
                   serve_soak_test"
      build_dir="$ROOT/build-check-address"
      ;;
    knowledge-thread)
      # The shared-knowledge suite scaled eightfold in the TSan tree: the
      # shard-locked base takes concurrent demote/merge/lookup traffic (the
      # epoch-guard race), and fleets gossip replicas across worker threads.
      sanitize="thread"
      fuzz_env="8"
      test_filter="Knowledge"
      soak_target="knowledge_test"
      build_dir="$ROOT/build-check-thread"
      ;;
    knowledge-address)
      # The same scaled suite under ASan/UBSan: the serialize/parse round
      # trip over escaped hostile keys and the store-backed reload path
      # must never read out of bounds.
      sanitize="address"
      fuzz_env="8"
      test_filter="Knowledge"
      soak_target="knowledge_test"
      build_dir="$ROOT/build-check-address"
      ;;
    taint-thread)
      # The provenance tier under TSan: taint recorders live inside render
      # contexts on origin threads, provenance maps ride responses into the
      # fleet's worker threads, and the attribution differential runs whole
      # training campaigns — the handoffs must all be race-free.
      sanitize="thread"
      test_filter="Provenance|TaintRecorder|Attribution"
      soak_target="provenance_test"
      build_dir="$ROOT/build-check-thread"
      ;;
    taint-address)
      # The same suite under ASan/UBSan: the framing parser consumes
      # corrupted, truncated, and bit-flipped payloads and the escaped
      # hostile label names — no read may ever leave the payload buffer.
      sanitize="address"
      test_filter="Provenance|TaintRecorder|Attribution"
      soak_target="provenance_test"
      build_dir="$ROOT/build-check-address"
      ;;
    *) echo "unknown configuration: $config" \
            "(want plain|thread|thread-metrics|address|debug|" \
            "chaos-thread|chaos-address|crash-soak|fuzz-thread|" \
            "fuzz-address|serve-thread|serve-address|" \
            "knowledge-thread|knowledge-address|" \
            "taint-thread|taint-address)" >&2
       exit 2 ;;
  esac
  echo "=== [$config] configuring $build_dir ==="
  cmake -B "$build_dir" -S "$ROOT" \
        -DCOOKIEPICKER_SANITIZE="$sanitize" \
        -DCMAKE_BUILD_TYPE="$build_type" >/dev/null
  if [[ "$config" == debug ]]; then
    echo "=== [$config] building differential suite ==="
    cmake --build "$build_dir" -j "$JOBS" --target detection_fastpath_test
    echo "=== [$config] running differential suite ==="
    (cd "$build_dir" && ctest --output-on-failure -j "$JOBS" \
        -R 'FastPathDifferential|Interner')
  elif [[ -n "$test_filter" ]]; then
    echo "=== [$config] building $soak_target ==="
    # shellcheck disable=SC2086 — soak_target may name several targets
    cmake --build "$build_dir" -j "$JOBS" --target $soak_target
    echo "=== [$config] running $test_filter soak ==="
    (cd "$build_dir" && COOKIEPICKER_CHAOS="$chaos_env" \
        COOKIEPICKER_FUZZ="$fuzz_env" \
        ctest --output-on-failure -j "$JOBS" -R "$test_filter")
  else
    echo "=== [$config] building ==="
    cmake --build "$build_dir" -j "$JOBS"
    echo "=== [$config] running ctest ==="
    (cd "$build_dir" && COOKIEPICKER_OBS="$obs_env" \
        ctest --output-on-failure -j "$JOBS")
  fi
  echo "=== [$config] OK ==="
done
echo "all checks passed: ${CONFIGS[*]}"
