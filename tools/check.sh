#!/usr/bin/env bash
# tools/check.sh — the repo's one-command correctness gate.
#
# Runs the full matrix, headless, stopping never and failing loudly:
#
#   1. default    cmake --preset default  + full ctest
#   2. asan       ASan+UBSan build        + full ctest
#   3. tsan       ThreadSanitizer build   + the concurrency-exercising tests
#                 (serve loop, fault harness, stress test) — zero reports
#   4. tidy       clang-tidy (bugprone/concurrency/performance/readability
#                 per .clang-tidy) over src/ and tools/
#                 [SKIPPED with a notice when clang-tidy is not installed —
#                  gcc-only containers still run stages 1-3 and 5]
#   5. stats      observability smoke: live tcvsd (with --admin-port) +
#                 real traffic, then `tcvs --admin … stats` (/metrics) must
#                 report non-zero metrics from every instrumented layer and
#                 --log-json must emit parseable JSON lines
#   5b. obs       HTTP observability-plane smoke: live tcvsd with
#                 --admin-port + --slow-op-us armed; every admin endpoint
#                 (/metrics /varz /healthz /readyz /statusz /tracez
#                 /eventsz) must answer, the /metrics body must pass
#                 tools/promcheck.py strict validation and carry at least
#                 one exemplar whose trace id joins /tracez, a slow-op
#                 JSON record with nonzero cost must land on stderr,
#                 `tcvs top` must render per-method rows from /varz, and
#                 bench_admin_scrape must hold its committed baseline
#                 (scrape-overhead gate) via tools/bench_compare.py
#   5c. prof      profiling-plane smoke: live tcvsd with --profile-hz armed
#                 under concurrent commit load; /pprofz must yield a parsed
#                 folded profile naming the SHA-256 hash path, /lockz must
#                 show recorded waits, the per-method queue/work/fsync
#                 decomposition must sum to the latency histogram within
#                 10%, `tcvs profile` must round-trip /pprofz, and
#                 bench_profiler_overhead must hold its committed <=3%
#                 baseline
#   6. bench      bench-output smoke: the fast table benches must emit valid
#                 schema_version-1 JSON into $TCVS_BENCH_JSON_DIR, a
#                 self-comparison with tools/bench_compare.py must pass, and
#                 an inflated copy must trip the regression detector
#   6b. perf      hot-path throughput smoke: short iterations of
#                 bench_crypto / bench_merkle_tree / bench_wal_commit /
#                 bench_protocol_overhead must emit valid JSON (both the
#                 schema_version-1 tables and google-benchmark's native
#                 schema), and tools/bench_compare.py must pass against the
#                 committed baselines in bench/baselines/ (threshold 75% —
#                 the gate catches order-of-magnitude throughput losses,
#                 not shared-runner jitter). Then the deployed-stack floor:
#                 the transport stall tests (TCP_NODELAY on both ends,
#                 p50 of 200 loopback round trips < 10 ms) and the
#                 more-clients-than-workers serve test must pass, and
#                 perfbench checkout_hot (seed 1, 5 s, untraced) must
#                 report correct=true at >= 1,500 ops/s — 33x the ~45 of a
#                 reply stalled on Nagle + delayed ACK, 10x under the
#                 ~15,000 of the unstalled stack
#   7. soak       seeded Byzantine campaign smoke: a short randomized
#                 campaign (TCVS_SOAK_ROUNDS scenarios, default 40 — crank
#                 it up for nightly runs) must hold every harness invariant
#                 (n·k bound, digest-pair fork evidence, honest arm clean)
#                 and the same seed twice must produce byte-identical JSON
#                 reports, under the default, asan, AND tsan presets
#   8. lint       tools/lint.py repo-invariant lint (raw-mutex ban,
#                 naked-new ban, fault-point registry, header hygiene,
#                 metric naming, Prometheus suffix conventions, RPC-method
#                 metric coverage, admin-endpoint coverage, typed audit
#                 events, campaign-fixture hygiene, trust-boundary
#                 quarantine coverage, Tainted reinterpret_cast ban)
#   9. fuzz       builds the TCVS_FUZZ libFuzzer targets with clang++ and
#                 runs each for a bounded smoke over its seed corpus
#                 [SKIPPED without clang++ — fuzz_corpus_test replays the
#                 corpora in stage 1 instead]
#
# The trust boundary itself needs no stage: a borrowed server value cannot
# reach the Protocol II register fold (core::Registers::Fold takes only a
# core::Transition) and nothing but Endorse unwraps a Tainted<T>; both are
# compile errors, so stage 1 checks them.
#
# Exit code: 0 iff every non-skipped stage passed. Suitable for CI as-is:
#   ./tools/check.sh            # everything
#   ./tools/check.sh tsan lint  # just those stages
#
# Each stage is one `cmake --preset` invocation (see CMakePresets.json), so
# any single leg can also be reproduced by hand.

set -u
cd "$(dirname "$0")/.."

JOBS="${JOBS:-$(nproc 2>/dev/null || echo 2)}"
# The concurrency-exercising subset run under TSan (full suites run in
# stages 1-2; TSan's 5-15x slowdown is spent where threads actually are).
TSAN_FILTER='Concurrent|Faulted|Rpc|KilledAndRestarted|FaultInjector|HttpAdmin'

declare -A RESULT
FAILED=0

note() { printf '\n\033[1m== check.sh: %s ==\033[0m\n' "$*"; }

run_stage() {  # run_stage <name> <cmd...>
  local name="$1"; shift
  note "stage $name: $*"
  if "$@"; then
    RESULT[$name]="${RESULT[$name]:-PASS}"
  else
    RESULT[$name]="FAIL"
    FAILED=1
  fi
}

stage_default() {
  run_stage default cmake --preset default
  [ "${RESULT[default]}" = FAIL ] && return
  run_stage default cmake --build --preset default -j "$JOBS"
  [ "${RESULT[default]}" = FAIL ] && return
  run_stage default ctest --preset default -j "$JOBS"
}

stage_asan() {
  run_stage asan cmake --preset asan
  [ "${RESULT[asan]}" = FAIL ] && return
  run_stage asan cmake --build --preset asan -j "$JOBS"
  [ "${RESULT[asan]}" = FAIL ] && return
  run_stage asan ctest --preset asan -j "$JOBS"
}

stage_tsan() {
  run_stage tsan cmake --preset tsan
  [ "${RESULT[tsan]}" = FAIL ] && return
  run_stage tsan cmake --build --preset tsan -j "$JOBS"
  [ "${RESULT[tsan]}" = FAIL ] && return
  run_stage tsan ctest --preset tsan -j 2 -R "$TSAN_FILTER"
}

stage_tidy() {
  local tidy=""
  if command -v clang-tidy >/dev/null 2>&1; then
    tidy=clang-tidy
  fi
  if [ -z "$tidy" ]; then
    note "stage tidy: clang-tidy not installed — SKIPPED"
    RESULT[tidy]="SKIP (clang-tidy not installed)"
    return
  fi
  run_stage tidy cmake --preset tidy
  [ "${RESULT[tidy]}" = FAIL ] && return
  # Headers are covered via HeaderFilterRegex while their includers compile.
  local files
  files=$(find src tools -name '*.cc' | sort)
  if command -v run-clang-tidy >/dev/null 2>&1; then
    run_stage tidy run-clang-tidy -quiet -p build-tidy $files
  else
    run_stage tidy $tidy -quiet -p build-tidy $files
  fi
}

stage_lint() {
  run_stage lint python3 tools/lint.py
}

# Bounded libFuzzer smoke over the committed seed corpora (clang only; the
# build dir is separate so the gcc build/ stays untouched).
fuzz_smoke() {
  local bdir=build-fuzz t
  cmake -B "$bdir" -S . -DTCVS_FUZZ=ON \
        -DCMAKE_C_COMPILER=clang -DCMAKE_CXX_COMPILER=clang++ || return 1
  cmake --build "$bdir" -j "$JOBS" --target \
        rpc_request_fuzz rpc_response_fuzz point_vo_fuzz range_vo_fuzz \
        query_response_fuzz || return 1
  for t in rpc_request rpc_response point_vo range_vo query_response; do
    "$bdir/tests/${t}_fuzz" -runs=2000 -max_total_time=20 \
        "tests/fuzz_corpora/$t" || return 1
  done
}

stage_fuzz() {
  if command -v clang++ >/dev/null 2>&1; then
    run_stage fuzz fuzz_smoke
  else
    note "stage fuzz: clang++ not installed — fuzz smoke SKIPPED (fuzz_corpus_test replays the corpora in stage default)"
    RESULT[fuzz]="SKIP (fuzz smoke: no clang++)"
  fi
}

# Bench-output smoke: run the fast table benches with TCVS_BENCH_JSON_DIR
# set, validate the schema_version-1 JSON they emit, then self-compare the
# directory with bench_compare.py (identical inputs must find metrics to
# compare and zero regressions) and check the regression path fires when a
# latency-like value is inflated past the threshold.
bench_smoke() {
  local tmp rc=1
  tmp=$(mktemp -d) || return 1
  mkdir -p "$tmp/base"
  while :; do  # Single-pass; break is the error exit.
    TCVS_BENCH_JSON_DIR="$tmp/base" ./build/bench/bench_replay_attack \
        > /dev/null || break
    TCVS_BENCH_JSON_DIR="$tmp/base" ./build/bench/bench_sync_cost \
        > /dev/null || break
    python3 - "$tmp/base" <<'PYEOF' || break
import json, pathlib, sys
files = sorted(pathlib.Path(sys.argv[1]).glob("BENCH_*.json"))
assert len(files) == 2, [f.name for f in files]
for f in files:
    doc = json.loads(f.read_text())
    assert doc["schema_version"] == 1, f
    assert doc["tables"] and all(t["headers"] and t["rows"] for t in doc["tables"]), f
print(f"bench: {len(files)} schema_version-1 JSON files OK")
PYEOF
    python3 tools/bench_compare.py --self-test || break
    python3 tools/bench_compare.py "$tmp/base" "$tmp/base" \
        --threshold 5 || break
    # Inflate every numeric cell 10x in a copy: the compare must now fail.
    mkdir -p "$tmp/slow"
    python3 - "$tmp/base" "$tmp/slow" <<'PYEOF' || break
import json, pathlib, re, sys
base, slow = pathlib.Path(sys.argv[1]), pathlib.Path(sys.argv[2])
for f in base.glob("BENCH_*.json"):
    doc = json.loads(f.read_text())
    for t in doc["tables"]:
        t["rows"] = [[re.sub(r"^(\d+(\.\d+)?)$", lambda m: str(float(m.group(1)) * 10), c)
                      for c in row] for row in t["rows"]]
    (slow / f.name).write_text(json.dumps(doc))
PYEOF
    if python3 tools/bench_compare.py "$tmp/base" "$tmp/slow" \
        --threshold 5 > /dev/null; then
      echo "bench: bench_compare.py missed a 10x inflation" >&2
      break
    fi
    rc=0
    break
  done
  rm -rf "$tmp"
  return $rc
}

stage_bench() {
  run_stage bench cmake --preset default
  [ "${RESULT[bench]}" = FAIL ] && return
  run_stage bench cmake --build --preset default -j "$JOBS" \
      --target bench_replay_attack bench_sync_cost
  [ "${RESULT[bench]}" = FAIL ] && return
  run_stage bench bench_smoke
}

# Hot-path perf smoke: short iterations of the throughput benches, schema
# validation of the JSON they emit, then bench_compare.py against the
# committed baselines. Threshold 75%: short runs on shared runners are
# noisy; the gate exists to catch a hot path falling off a cliff (a lost
# SIMD dispatch, a serialized group commit), not scheduler jitter.
perf_smoke() {
  local tmp rc=1
  tmp=$(mktemp -d) || return 1
  mkdir -p "$tmp/new"
  while :; do  # Single-pass; break is the error exit.
    TCVS_BENCH_JSON_DIR="$tmp/new" ./build/bench/bench_crypto \
        --benchmark_min_time=0.05 > /dev/null || break
    TCVS_BENCH_JSON_DIR="$tmp/new" ./build/bench/bench_merkle_tree \
        --benchmark_min_time=0.05 > /dev/null || break
    TCVS_BENCH_JSON_DIR="$tmp/new" ./build/bench/bench_wal_commit \
        > /dev/null || break
    TCVS_BENCH_JSON_DIR="$tmp/new" ./build/bench/bench_protocol_overhead \
        > /dev/null || break
    python3 - "$tmp/new" <<'PYEOF' || break
import json, pathlib, sys
files = sorted(pathlib.Path(sys.argv[1]).glob("BENCH_*.json"))
assert len(files) == 4, [f.name for f in files]
tables = 0
for f in files:
    doc = json.loads(f.read_text())
    if doc.get("schema_version") == 1:
        assert doc["tables"] and all(t["headers"] and t["rows"] for t in doc["tables"]), f
        assert any("ops/sec" in t["headers"] for t in doc["tables"]), f
        tables += 1
    else:
        assert doc.get("benchmarks"), f
assert tables >= 2, "expected ops/sec tables from wal_commit + protocol_overhead"
print(f"perf: {len(files)} bench JSON files OK")
PYEOF
    # Only this stage's baselines: "present in base" then means a lost bench.
    mkdir "$tmp/base" && cp bench/baselines/BENCH_bench_{crypto,merkle_tree}.json \
        bench/baselines/BENCH_bench_{wal_commit,protocol_overhead}.json \
        "$tmp/base/" || break
    python3 tools/bench_compare.py "$tmp/base" "$tmp/new" \
        --threshold 75 || break
    rc=0
    break
  done
  rm -rf "$tmp"
  return $rc
}

# Deployed-stack floor: a reply held back by Nagle until the peer's delayed
# ACK (~40 ms) caps a closed-loop client at ~25 round trips per second, so
# the floor sits far above a stalled stack and far below a healthy one.
deployed_floor() {
  local out rc=1
  out=$(mktemp) || return 1
  while :; do  # Single-pass; break is the error exit.
    ctest --preset default --no-tests=error \
        -R 'NagleOff|RoundTripsDoNotStall|MoreClientsThanWorkers' || break
    python3 perfbench/run.py --workload checkout_hot --seed 1 --seconds 5 \
        --trace 0 > "$out" || break
    python3 - "$out" <<'PYEOF' || break
import json, sys
result = json.loads(open(sys.argv[1]).read().strip().splitlines()[-1])
assert result["correct"], "perfbench checkout_hot: correct=false"
ops = result["metrics"]["ops_per_s"]["value"]
assert ops >= 1500, f"perfbench checkout_hot: {ops:.0f} ops/s < 1500 floor"
print(f"perf: checkout_hot {ops:.0f} ops/s >= 1500 floor")
PYEOF
    rc=0
    break
  done
  rm -f "$out"
  return $rc
}

stage_perf() {
  run_stage perf cmake --preset default
  [ "${RESULT[perf]}" = FAIL ] && return
  run_stage perf cmake --build --preset default -j "$JOBS" \
      --target bench_crypto bench_merkle_tree bench_wal_commit \
               bench_protocol_overhead rpc_test concurrent_server_test
  [ "${RESULT[perf]}" = FAIL ] && return
  run_stage perf perf_smoke
  run_stage perf deployed_floor
}

# Live observability smoke: start tcvsd with the admin plane, drive real
# commits/reads through tcvs, then assert `tcvs --admin … stats` (the
# /metrics body) reports non-zero metrics from the RPC, admin-plane,
# storage, Merkle-tree, and crypto layers, and that --log-json produced
# parseable JSON-lines on stderr.
stats_smoke() {
  local tmp port="" aport="" daemon rc=1
  tmp=$(mktemp -d) || return 1
  mkdir -p "$tmp/data"
  ./build/tools/tcvsd --port 0 --admin-port 0 --data-dir "$tmp/data" \
      --log-json --log-json-interval-ms 200 \
      > "$tmp/tcvsd.out" 2> "$tmp/tcvsd.err" &
  daemon=$!
  while :; do  # Single-pass; break is the error exit.
    for _ in $(seq 1 100); do
      port=$(sed -n 's/^tcvsd listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' \
             "$tmp/tcvsd.out")
      aport=$(sed -n 's/^tcvsd admin listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' \
              "$tmp/tcvsd.out")
      [ -n "$port" ] && [ -n "$aport" ] && break
      kill -0 "$daemon" 2>/dev/null || break
      sleep 0.2
    done
    if [ -z "$port" ] || [ -z "$aport" ]; then
      echo "stats: tcvsd never reported its ports" >&2
      cat "$tmp/tcvsd.out" "$tmp/tcvsd.err" >&2
      break
    fi
    local cli="./build/tools/tcvs --server 127.0.0.1:$port"
    $cli --user 1 --state "$tmp/state" commit a/hello 0 "hello world" || break
    $cli --user 1 --state "$tmp/state" cat a/hello > /dev/null || break
    $cli --user 1 --state "$tmp/state" ls a/ > /dev/null || break
    ./build/tools/tcvs --admin "127.0.0.1:$aport" stats > "$tmp/stats.txt" \
        || break
    local metric missing=""
    for metric in tcvs_rpc_serve_requests_total \
                  tcvs_rpc_serve_transact_requests_total \
                  tcvs_http_admin_metrics_requests_total \
                  tcvs_rpc_serve_reply_cache_insertions_total \
                  tcvs_storage_wal_appends_total \
                  tcvs_mtree_tree_upsert_latency_us_count \
                  tcvs_cvs_server_transactions_total \
                  tcvs_crypto_sha256_hashes_total; do
      grep -E "^${metric} [1-9]" "$tmp/stats.txt" > /dev/null || missing="$metric"
    done
    if [ -n "$missing" ]; then
      echo "stats: metric $missing missing or zero in tcvs stats output:" >&2
      cat "$tmp/stats.txt" >&2
      break
    fi
    $cli shutdown > /dev/null || break
    wait "$daemon" || break
    daemon=""
    # Every --log-json line must be a JSON object with the three sections.
    python3 - "$tmp/tcvsd.err" <<'PYEOF' || break
import json, sys
lines = [l for l in open(sys.argv[1]) if l.startswith("{")]
assert lines, "no JSON lines on tcvsd stderr"
for line in lines:
    obj = json.loads(line)
    assert "ts_ms" in obj and "metrics" in obj, obj.keys()
    for section in ("counters", "gauges", "histograms"):
        assert section in obj["metrics"], section
assert lines and json.loads(lines[-1])["metrics"]["counters"].get(
    "rpc.serve.requests_total", 0) > 0, "final JSON line has zero requests"
print(f"stats: {len(lines)} JSON log lines OK")
PYEOF
    rc=0
    break
  done
  [ -n "${daemon:-}" ] && kill "$daemon" 2>/dev/null
  rm -rf "$tmp"
  return $rc
}

# HTTP observability-plane smoke: boot tcvsd with the admin plane and
# slow-op capture armed, drive real verified traffic, then hold the whole
# observability contract at once: every endpoint answers, /metrics passes
# the strict validator with a joinable exemplar, a slow-op record with a
# nonzero cost vector lands on stderr, and `tcvs top` renders per-method
# rows from /varz.
obs_smoke() {
  local tmp port="" aport="" daemon rc=1
  tmp=$(mktemp -d) || return 1
  mkdir -p "$tmp/data"
  ./build/tools/tcvsd --port 0 --admin-port 0 --data-dir "$tmp/data" \
      --trace --slow-op-us 1 \
      > "$tmp/tcvsd.out" 2> "$tmp/tcvsd.err" &
  daemon=$!
  while :; do  # Single-pass; break is the error exit.
    python3 tools/promcheck.py --self-test || break
    for _ in $(seq 1 100); do
      port=$(sed -n 's/^tcvsd listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' \
             "$tmp/tcvsd.out")
      aport=$(sed -n 's/^tcvsd admin listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' \
              "$tmp/tcvsd.out")
      [ -n "$port" ] && [ -n "$aport" ] && break
      kill -0 "$daemon" 2>/dev/null || break
      sleep 0.2
    done
    if [ -z "$port" ] || [ -z "$aport" ]; then
      echo "obs: tcvsd never reported its ports" >&2
      cat "$tmp/tcvsd.out" "$tmp/tcvsd.err" >&2
      break
    fi
    local cli="./build/tools/tcvs --server 127.0.0.1:$port"
    $cli --user 1 --state "$tmp/state" commit a/hello 0 "hello world" || break
    $cli --user 1 --state "$tmp/state" commit a/bye 0 "goodbye" || break
    $cli --user 1 --state "$tmp/state" cat a/hello > /dev/null || break
    $cli --user 1 --state "$tmp/state" ls a/ > /dev/null || break
    # Fetch every endpoint. /metrics must precede /tracez: exemplar trace
    # ids must join the ring, and /tracez DRAINS it.
    python3 - "$aport" "$tmp" <<'PYEOF' || break
import json, sys, urllib.request
aport, tmp = sys.argv[1], sys.argv[2]
def get(path):
    with urllib.request.urlopen(f"http://127.0.0.1:{aport}{path}",
                                timeout=10) as r:
        return r.read().decode()
metrics = get("/metrics")
open(f"{tmp}/metrics.txt", "w").write(metrics)
varz = json.loads(get("/varz"))
assert varz["counters"].get("rpc.serve.transact.requests_total", 0) >= 2, \
    "varz counters missed the served transactions"
assert varz["counters"].get("rpc.serve.transact.cost.hashes_total", 0) > 0, \
    "per-method cost aggregation is zero"
assert "ok" in get("/healthz")
assert "ready" in get("/readyz")
statusz = json.loads(get("/statusz"))
assert statusz["endpoints"], "statusz lists no endpoints"
tracez = json.loads(get("/tracez"))
open(f"{tmp}/tracez.json", "w").write(json.dumps(tracez))
get("/eventsz")  # Clean run: must answer, may be empty.
assert "/metrics" in get("/"), "index page lists no endpoints"
# The p99-to-trace pivot: an exemplar trace id must join the span ring.
ex_ids = {m.split('"')[1] for m in
          [l.split("# {trace_id=")[1] for l in metrics.splitlines()
           if "# {trace_id=" in l]}
ring_ids = {e.get("args", {}).get("trace_id") for e in
            tracez.get("traceEvents", [])} - {None}
assert ex_ids, "no exemplars in /metrics"
assert ex_ids & ring_ids, f"no exemplar joins /tracez ({len(ex_ids)} ids)"
print(f"obs: endpoints OK, {len(ex_ids)} exemplar ids, "
      f"{len(ex_ids & ring_ids)} joinable")
PYEOF
    python3 tools/promcheck.py "$tmp/metrics.txt" || break
    # Slow-op capture: --slow-op-us 1 makes every RPC slow; a transact
    # record with a nonzero cost vector and a span subtree must be there.
    python3 - "$tmp/tcvsd.err" <<'PYEOF' || break
import json, sys
records = [json.loads(l) for l in open(sys.argv[1])
           if l.startswith('{"method"')]
assert records, "no slow-op records on tcvsd stderr"
tx = [r for r in records if r["method"] == "transact"]
assert tx, "no transact slow-op record"
r = tx[0]
assert r["latency_us"] > 0 and len(r["trace_id"]) == 16
assert r["cost"]["hashes"] > 0, r["cost"]
assert r["cost"]["vo_bytes_built"] > 0, r["cost"]
assert r["spans"], "slow-op record carries no span subtree"
print(f"obs: {len(records)} slow-op records OK")
PYEOF
    # `tcvs top` against the admin plane, with live traffic in the window.
    ( for i in 1 2 3 4 5; do
        $cli --user 1 --state "$tmp/state" commit a/hello "$i" "rev $i" \
            > /dev/null 2>&1
      done ) &
    local load=$!
    ./build/tools/tcvs top --admin "127.0.0.1:$aport" --interval-ms 800 \
        > "$tmp/top.txt" || { wait "$load"; break; }
    wait "$load"
    grep -q '^transact ' "$tmp/top.txt" || {
      echo "obs: tcvs top shows no transact row:" >&2
      cat "$tmp/top.txt" >&2
      break
    }
    $cli shutdown > /dev/null || break
    wait "$daemon" || break
    daemon=""
    # Scrape-overhead gate: the bench's ops/sec columns must hold against
    # the committed baseline, and the measured 10 Hz delta stays <= 5%.
    mkdir -p "$tmp/bench"
    TCVS_BENCH_JSON_DIR="$tmp/bench" ./build/bench/bench_admin_scrape \
        > /dev/null || break
    mkdir "$tmp/base" || break
    cp bench/baselines/BENCH_bench_admin_scrape.json "$tmp/base/" || break
    python3 tools/bench_compare.py "$tmp/base" "$tmp/bench" \
        --threshold 75 || break
    python3 - "$tmp/bench/BENCH_bench_admin_scrape.json" <<'PYEOF' || break
import json, sys
doc = json.load(open(sys.argv[1]))
for table in doc["tables"]:
    d = dict(zip(table["headers"], table["rows"][-1]))
    delta = float(d["delta_pct"])
    assert delta <= 5.0, f"{table['title']}: scrape overhead {delta}% > 5%"
print("obs: scrape overhead within the 5% budget")
PYEOF
    rc=0
    break
  done
  [ -n "${daemon:-}" ] && kill "$daemon" 2>/dev/null
  rm -rf "$tmp"
  return $rc
}

stage_obs() {
  run_stage obs cmake --preset default
  [ "${RESULT[obs]}" = FAIL ] && return
  run_stage obs cmake --build --preset default -j "$JOBS" \
      --target tcvs tcvsd bench_admin_scrape
  [ "${RESULT[obs]}" = FAIL ] && return
  run_stage obs obs_smoke
}

# Profiling-plane smoke: boot tcvsd with the always-on sampling profiler and
# drive concurrent verified commits THROUGH a /pprofz window — ITIMER_PROF
# counts CPU time, so the load must burn daemon CPU *during* the window or
# there is nothing to sample. Then hold the plane's whole contract at once:
# the folded profile parses and names the SHA-256 hash path, /lockz shows
# recorded waits including the serve loop's locks, the per-method
# queue/work/fsync decomposition sums to the latency histogram within 10%,
# `tcvs profile` round-trips /pprofz, and bench_profiler_overhead
# holds its committed <=3% baseline.
prof_smoke() {
  local tmp port="" aport="" daemon rc=1
  tmp=$(mktemp -d) || return 1
  mkdir -p "$tmp/data"
  # High sampling rate for the smoke (the overhead budget is pinned at
  # 100 Hz by the bench; here we want enough samples from a short window).
  ./build/tools/tcvsd --port 0 --admin-port 0 --data-dir "$tmp/data" \
      --group-commit-window-us 200 --profile-hz 997 \
      > "$tmp/tcvsd.out" 2> "$tmp/tcvsd.err" &
  daemon=$!
  while :; do  # Single-pass; break is the error exit.
    for _ in $(seq 1 100); do
      port=$(sed -n 's/^tcvsd listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' \
             "$tmp/tcvsd.out")
      aport=$(sed -n 's/^tcvsd admin listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' \
              "$tmp/tcvsd.out")
      [ -n "$port" ] && [ -n "$aport" ] && break
      kill -0 "$daemon" 2>/dev/null || break
      sleep 0.2
    done
    if [ -z "$port" ] || [ -z "$aport" ]; then
      echo "prof: tcvsd never reported its ports" >&2
      cat "$tmp/tcvsd.out" "$tmp/tcvsd.err" >&2
      break
    fi
    # Chunky payloads so each commit hashes real bytes server-side; four
    # concurrent committers so the serve execution lock actually contends.
    local payload u
    payload=$(head -c 65536 /dev/zero | tr '\0' 'x')
    local pids=()
    for u in 1 2 3 4; do
      ( rev=0
        for i in $(seq 1 250); do
          ./build/tools/tcvs --server "127.0.0.1:$port" --user "$u" \
              --state "$tmp/state$u" commit "load/f$u" "$rev" "$payload" \
              > /dev/null 2>&1 || exit 1
          rev=$((rev + 1))
        done ) &
      pids+=($!)
    done
    sleep 1  # Let the committers ramp before opening the window.
    python3 - "$aport" "$tmp" <<'PYEOF' || { wait "${pids[@]}" 2>/dev/null; break; }
import json, re, sys, urllib.request
aport, tmp = sys.argv[1], sys.argv[2]
def get(path, timeout=45):
    with urllib.request.urlopen(f"http://127.0.0.1:{aport}{path}",
                                timeout=timeout) as r:
        return r.read().decode()
# A 3 s window riding the always-on profiler, with the load running inside.
folded = get("/pprofz?seconds=3&fmt=folded")
open(f"{tmp}/folded.txt", "w").write(folded)
lines = [l for l in folded.splitlines() if l]
assert lines, "profile window captured no samples (was the load running?)"
for l in lines:
    assert re.fullmatch(r".+ \d+", l), f"bad folded line: {l!r}"
total = sum(int(l.rsplit(" ", 1)[1]) for l in lines)
assert total >= 5, f"too few samples across the window: {total}"
hot = [l for l in lines
       if "Sha256" in l or "Winternitz" in l or "Verify" in l or "Sign" in l]
assert hot, "no SHA-256/signature frames in the profile:\n" + "\n".join(
    lines[:40])
# JSON rendering of a second, shorter window.
top = json.loads(get("/pprofz?seconds=1&fmt=json"))
assert top["hz"] > 0 and "top" in top, top.keys()
# /lockz: the contention profile records waits — the serve loop's named
# locks must show up in /varz as lock.* histograms with recorded counts.
lockz = json.loads(get("/lockz"))
assert "sites" in lockz and "dropped" in lockz, lockz.keys()
waited = [s for s in lockz["sites"] if s["total_us"] > 0]
assert waited, "no wait sites in /lockz under concurrent load"
varz = json.loads(get("/varz"))
hists = varz["histograms"]
execute = hists.get("lock.rpc.serve.execute.contention_us", {})
assert execute.get("count", 0) > 0, \
    "serve execution lock shows no contention under 4 concurrent clients"
# Queue-delay attribution: per-method queue + work + fsync must equal the
# served latency histogram's sum within 10% (clamping is the only slack).
c = varz["counters"]
lat = hists["rpc.serve.transact.latency_us"]
parts = (c.get("rpc.serve.transact.cost.queue_us_total", 0)
         + c.get("rpc.serve.transact.cost.work_us_total", 0)
         + c.get("rpc.serve.transact.cost.wal_fsync_wait_us_total", 0))
assert lat["sum"] > 0, "no transact latency recorded"
drift = abs(parts - lat["sum"]) / lat["sum"]
assert drift <= 0.10, (
    f"queue+work+fsync={parts} vs latency sum={lat['sum']}: "
    f"{100 * drift:.1f}% apart")
print(f"prof: {total} samples, {len(hot)} hot hash/sig stacks, "
      f"{len(waited)} wait sites, decomposition within {100 * drift:.2f}%")
PYEOF
    # `tcvs profile` end to end through /pprofz, while the committers are
    # still running: it must print parseable folded stacks.
    ./build/tools/tcvs --admin "127.0.0.1:$aport" profile --seconds 1 \
        --hz 100 > "$tmp/cli_folded.txt" 2> /dev/null || {
      echo "prof: tcvs profile failed" >&2
      wait "${pids[@]}" 2>/dev/null
      break
    }
    if grep -qvE '^.+ [0-9]+$' "$tmp/cli_folded.txt"; then
      echo "prof: tcvs profile printed a non-folded line:" >&2
      grep -vE '^.+ [0-9]+$' "$tmp/cli_folded.txt" | head -5 >&2
      wait "${pids[@]}" 2>/dev/null
      break
    fi
    local pid load_failed=0
    for pid in "${pids[@]}"; do
      wait "$pid" || load_failed=1
    done
    if [ "$load_failed" != 0 ]; then
      echo "prof: a load client failed" >&2
      break
    fi
    ./build/tools/tcvs --server "127.0.0.1:$port" shutdown > /dev/null || break
    wait "$daemon" || break
    daemon=""
    # Overhead gate: the bench's ops/sec + MB/s columns must hold against
    # the committed baseline, and the measured 100 Hz delta stays <= 3%.
    mkdir -p "$tmp/bench"
    TCVS_BENCH_JSON_DIR="$tmp/bench" ./build/bench/bench_profiler_overhead \
        > /dev/null || break
    mkdir "$tmp/base" || break
    cp bench/baselines/BENCH_bench_profiler_overhead.json "$tmp/base/" || break
    python3 tools/bench_compare.py "$tmp/base" "$tmp/bench" \
        --threshold 75 || break
    python3 - "$tmp/bench/BENCH_bench_profiler_overhead.json" <<'PYEOF' || break
import json, sys
doc = json.load(open(sys.argv[1]))
for table in doc["tables"]:
    d = dict(zip(table["headers"], table["rows"][-1]))
    delta = float(d["delta_pct"])
    assert delta <= 3.0, f"{table['title']}: profiler overhead {delta}% > 3%"
print("prof: overhead within the 3% budget")
PYEOF
    rc=0
    break
  done
  [ -n "${daemon:-}" ] && kill "$daemon" 2>/dev/null
  rm -rf "$tmp"
  return $rc
}

stage_prof() {
  run_stage prof cmake --preset default
  [ "${RESULT[prof]}" = FAIL ] && return
  run_stage prof cmake --build --preset default -j "$JOBS" \
      --target tcvs tcvsd bench_profiler_overhead
  [ "${RESULT[prof]}" = FAIL ] && return
  run_stage prof prof_smoke
}

# Seeded Byzantine campaign smoke: a short randomized campaign must exit 0
# (every invariant held: n·k detection bound, digest-pair fork evidence,
# no false alarms on the honest arm) and the same seed run twice must
# produce byte-identical JSON reports — seed-exact reproducibility is load-
# bearing for the checked-in regression fixtures. TCVS_SOAK_ROUNDS sets the
# scenario budget (default 40; nightly runs use hundreds).
soak_smoke() {  # soak_smoke <build-dir>
  local bindir="$1" tmp rc=1 rounds="${TCVS_SOAK_ROUNDS:-40}"
  tmp=$(mktemp -d) || return 1
  while :; do  # Single-pass; break is the error exit.
    "$bindir/tools/tcvs_campaign" --seed 42 --scenarios "$rounds" \
        > "$tmp/run1.json" || { cat "$tmp/run1.json" >&2; break; }
    "$bindir/tools/tcvs_campaign" --seed 42 --scenarios "$rounds" \
        > "$tmp/run2.json" || { cat "$tmp/run2.json" >&2; break; }
    if ! cmp -s "$tmp/run1.json" "$tmp/run2.json"; then
      echo "soak: same-seed campaign reports differ under $bindir" \
           "(determinism broken)" >&2
      diff "$tmp/run1.json" "$tmp/run2.json" | head -20 >&2
      break
    fi
    echo "soak: $rounds scenarios OK under $bindir," \
         "same-seed reports byte-identical"
    rc=0
    break
  done
  rm -rf "$tmp"
  return $rc
}

stage_soak() {
  local preset bindir
  for preset in default asan tsan; do
    case "$preset" in
      default) bindir=build ;;
      *)       bindir=build-$preset ;;
    esac
    run_stage soak cmake --preset "$preset"
    [ "${RESULT[soak]}" = FAIL ] && return
    run_stage soak cmake --build --preset "$preset" -j "$JOBS" \
        --target tcvs_campaign_tool
    [ "${RESULT[soak]}" = FAIL ] && return
    run_stage soak soak_smoke "$bindir"
    [ "${RESULT[soak]}" = FAIL ] && return
  done
}

stage_stats() {
  run_stage stats cmake --preset default
  [ "${RESULT[stats]}" = FAIL ] && return
  run_stage stats cmake --build --preset default -j "$JOBS" --target tcvs tcvsd
  [ "${RESULT[stats]}" = FAIL ] && return
  run_stage stats stats_smoke
}

STAGES=("$@")
[ ${#STAGES[@]} -eq 0 ] && STAGES=(default asan tsan tidy stats obs prof bench perf soak lint fuzz)
for stage in "${STAGES[@]}"; do
  case "$stage" in
    default) stage_default ;;
    asan)    stage_asan ;;
    tsan)    stage_tsan ;;
    tidy)    stage_tidy ;;
    stats)   stage_stats ;;
    obs)     stage_obs ;;
    prof)    stage_prof ;;
    bench)   stage_bench ;;
    perf)    stage_perf ;;
    soak)    stage_soak ;;
    lint)    stage_lint ;;
    fuzz)    stage_fuzz ;;
    *) echo "check.sh: unknown stage '$stage' (default asan tsan tidy stats obs prof bench perf soak lint fuzz)" >&2
       exit 2 ;;
  esac
done

note "summary"
for stage in "${STAGES[@]}"; do
  printf '  %-8s %s\n' "$stage" "${RESULT[$stage]:-SKIP}"
done
exit $FAILED
