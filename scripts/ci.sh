#!/usr/bin/env bash
# Tier-1 CI: a clean release build (warnings are errors) with the full
# ctest suite, then a ThreadSanitizer build that runs the parallel-sweep
# determinism test and the sharded-simulation digest suites to prove both
# kinds of parallelism are race-free (not just
# accidentally ordered) along with a small fig13 exchange table at --jobs=4,
# then an ASan+UBSan build that runs the
# fault-injection and simulator-edge suites — the code paths that tear
# down in-flight state mid-run and are therefore the likeliest source of
# lifetime/indexing bugs — plus the flow-engine and routing-table suites
# (index arithmetic over flat arrays), and finally an end-to-end kill/resume drill on
# d2net_campaign running campaigns/fig6.json and a 256 B/pair copy of
# fig13.json: journal a campaign, truncate the
# journal mid-file with a torn final line (what a SIGKILL leaves behind),
# resume, and require the resumed --json output to be byte-identical to an
# uninterrupted run (see docs/durable_sweeps.md).
#
#
# Stage 5 is a warn-only perf smoke: bench_micro_core --json against the
# committed BENCH_core.json baseline with a +/-15% band. It prints a
# regression table and never fails the build (CI machines are noisy; the
# committed baseline is refreshed deliberately, see docs/perf.md).
#
# Stages 2 and 3 additionally run the transient-faults bench (whose
# detection-delay sweep exercises modeled fault detection + link-state
# propagation, see docs/resilience.md) under TSan and ASan+UBSan.
#
# Stage 6 enforces the campaign porting contract (docs/campaigns.md): every
# committed spec under campaigns/ must --dry-run clean, the figure specs
# (fig6-fig13) must reproduce their committed goldens under
# tests/golden/campaigns/ byte-for-byte (generated from the per-figure
# binaries those specs replaced; fig13 also at --jobs=4, apart from the
# top-level "jobs" field, and merged from two lease-sharing workers), a
# malformed spec must exit 2 naming itself, the transient_faults spec must reproduce
# bench_ablation_transient_faults' --json byte-for-byte (including the
# propagation sweep, whose convergence times also get a warn-only +/-20%
# smoke against BENCH_convergence.json), and a mixed
# load/fault/exchange campaign must survive a
# simulated SIGKILL (journal truncated mid-file with a torn final line) and
# resume to byte-identical output. It closes with the multi-worker chaos
# drill: three cooperating --workers processes, one SIGKILLed right after
# claiming a shard (before journaling anything), a survivor stealing the
# stale lease, and --merge output byte-identical (diff + sha256 digest) to
# the single-process reference.
#
#   scripts/ci.sh            # all stages, build trees under build-ci*/
#   SKIP_TSAN=1 scripts/ci.sh
#   SKIP_ASAN=1 scripts/ci.sh
#   SKIP_RESUME=1 scripts/ci.sh
#   SKIP_PERF=1 scripts/ci.sh
#   SKIP_CAMPAIGN=1 scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${JOBS:-$(nproc)}"

echo "=== stage 1: build (-Wall -Wextra -Werror) + full test suite ==="
cmake -B build-ci -S . -DD2NET_WERROR=ON >/dev/null
cmake --build build-ci -j "$JOBS"
ctest --test-dir build-ci --output-on-failure -j "$JOBS"

if [[ "${SKIP_TSAN:-0}" != "1" ]]; then
  echo "=== stage 2: ThreadSanitizer determinism check ==="
  cmake -B build-ci-tsan -S . -DD2NET_SANITIZE=thread >/dev/null
  cmake --build build-ci-tsan -j "$JOBS" --target test_sweep_runner \
    --target test_determinism_digest --target test_sharded_sim
  TSAN_OPTIONS="halt_on_error=1" ./build-ci-tsan/tests/test_sweep_runner
  # Sharded single-simulation execution: the digest suite runs serial and
  # 2/4/7-shard engines over the same scenarios (including the fault
  # schedule), so a data race between lanes shows up here even on a host
  # whose single core would otherwise serialize the interleaving.
  TSAN_OPTIONS="halt_on_error=1" \
    ./build-ci-tsan/tests/test_determinism_digest --gtest_filter='*Sharded*'
  TSAN_OPTIONS="halt_on_error=1" ./build-ci-tsan/tests/test_sharded_sim
  # Modeled fault propagation adds control-plane events that cross shard
  # lanes through the coordinator; run its digest suite and the
  # transient-faults bench (detection-delay sweep included) under TSan too.
  cmake --build build-ci-tsan -j "$JOBS" --target bench_ablation_transient_faults
  TSAN_OPTIONS="halt_on_error=1" \
    ./build-ci-tsan/tests/test_determinism_digest --gtest_filter='*Propagation*'
  TSAN_OPTIONS="halt_on_error=1" ./build-ci-tsan/bench/bench_ablation_transient_faults \
    --duration-us=2 --warmup-us=0.5 --seed=3 --wedge-demo=false >/dev/null
  # Flow-engine sweep under --jobs: each point is an independent FlowSim,
  # so a race can only come from the sweep fan-out sharing state it must
  # not (scratch buffers, tables, the journal writer).
  cmake --build build-ci-tsan -j "$JOBS" --target d2net_campaign
  # Batched rate ticks: exact recompute past the knee walks a
  # network-spanning component per event, which TSan's slowdown turns
  # into tens of minutes; the thread structure under test is identical.
  TSAN_OPTIONS="halt_on_error=1" ./build-ci-tsan/bench/d2net_campaign \
    --spec=campaigns/fig6.json \
    --engine=flow --flow-interval-us=0.2 --duration-us=2 --warmup-us=0.5 \
    --seed=3 --jobs=4 >/dev/null
  # Exchange rows fan out through the same runner: concurrent points share
  # one exchange plan, table and intermediate set per topology.
  mkdir -p build-ci-tsan/drill
  sed 's/"bytes_per_pair": 7680/"bytes_per_pair": 64/' campaigns/fig13.json \
    > build-ci-tsan/drill/fig13-64.json
  TSAN_OPTIONS="halt_on_error=1" ./build-ci-tsan/bench/d2net_campaign \
    --spec=build-ci-tsan/drill/fig13-64.json --duration-us=2 --warmup-us=0.5 \
    --seed=3 --jobs=4 >/dev/null
fi

if [[ "${SKIP_ASAN:-0}" != "1" ]]; then
  echo "=== stage 3: ASan+UBSan fault-injection / sim-edge check ==="
  cmake -B build-ci-asan -S . -DD2NET_SANITIZE=address,undefined >/dev/null
  cmake --build build-ci-asan -j "$JOBS" --target test_faults --target test_sim_edge
  ASAN_OPTIONS="halt_on_error=1" UBSAN_OPTIONS="halt_on_error=1" \
    ./build-ci-asan/tests/test_faults
  ASAN_OPTIONS="halt_on_error=1" UBSAN_OPTIONS="halt_on_error=1" \
    ./build-ci-asan/tests/test_sim_edge
  # Propagation tears down in-flight state on stale local views (salvage
  # resamples, misroute detours, drains at detection time) — exactly the
  # lifetime-bug surface this stage exists for.
  cmake --build build-ci-asan -j "$JOBS" --target bench_ablation_transient_faults
  ASAN_OPTIONS="halt_on_error=1" UBSAN_OPTIONS="halt_on_error=1" \
    ./build-ci-asan/bench/bench_ablation_transient_faults \
    --duration-us=2 --warmup-us=0.5 --seed=3 --wedge-demo=false >/dev/null
  # The flow engine's slot-recycled flow table and component-local
  # waterfill are all index arithmetic over flat arrays — the same
  # indexing-bug surface. Its test suite covers create/destroy churn,
  # incremental recompute, and full sweeps through the bench layer.
  cmake --build build-ci-asan -j "$JOBS" --target test_flow_engine
  ASAN_OPTIONS="halt_on_error=1" UBSAN_OPTIONS="halt_on_error=1" \
    ./build-ci-asan/tests/test_flow_engine
  # The minimal table's bitset build indexes R/64-word rows of flat level
  # matrices and fills CSR offsets through per-row cursors; its suite
  # checks every family and fault filter against a BFS reference.
  cmake --build build-ci-asan -j "$JOBS" --target test_routing
  ASAN_OPTIONS="halt_on_error=1" UBSAN_OPTIONS="halt_on_error=1" \
    ./build-ci-asan/tests/test_routing
fi

if [[ "${SKIP_RESUME:-0}" != "1" ]]; then
  echo "=== stage 4: crash/resume durability drill (fig6 sweeps, fig13 exchanges) ==="
  cmake --build build-ci -j "$JOBS" --target d2net_campaign
  BENCH=./build-ci/bench/d2net_campaign
  WORK=build-ci/resume-drill
  rm -rf "$WORK" && mkdir -p "$WORK"
  # wall_seconds / events_per_second are genuine wall-clock measurements and
  # legitimately differ between runs; everything else must match exactly.
  normalize() { sed -E 's/"(wall_seconds|events_per_second)": [0-9.eE+-]+/"\1": X/g' "$1"; }
  # fig13 at the committed 7680 B/pair is minutes of simulation; the drill
  # uses the 256 B/pair copy stage 6 pins to its golden.
  sed 's/"bytes_per_pair": 7680/"bytes_per_pair": 256/' campaigns/fig13.json \
    > "$WORK/fig13.json"

  drill() {  # drill <name> <spec>
    local name=$1 ARGS=(--spec="$2" --duration-us=2 --warmup-us=0.5 --seed=3)
    "$BENCH" "${ARGS[@]}" --json="$WORK/$name-clean.json" >/dev/null
    "$BENCH" "${ARGS[@]}" --journal="$WORK/$name-journal-full" \
      --json="$WORK/$name-full.json" >/dev/null

    # Simulated crash: copy the full journal, keep only the first 40% of its
    # lines, and append a torn final line (no trailing newline).
    cp -r "$WORK/$name-journal-full" "$WORK/$name-journal-cut"
    local LINES KEEP
    LINES=$(wc -l < "$WORK/$name-journal-cut/journal.jsonl")
    KEEP=$(( LINES * 2 / 5 )); [[ "$KEEP" -lt 1 ]] && KEEP=1
    head -n "$KEEP" "$WORK/$name-journal-full/journal.jsonl" \
      > "$WORK/$name-journal-cut/journal.jsonl"
    printf '{"key": "torn' >> "$WORK/$name-journal-cut/journal.jsonl"

    "$BENCH" "${ARGS[@]}" --journal="$WORK/$name-journal-cut" --resume \
      --json="$WORK/$name-resumed.json" >/dev/null

    diff <(normalize "$WORK/$name-resumed.json") <(normalize "$WORK/$name-full.json")
    diff <(normalize "$WORK/$name-resumed.json") <(normalize "$WORK/$name-clean.json")
    echo "resume drill OK ($name): resumed output is byte-identical" \
         "($KEEP/$LINES journal lines survived the crash)"
  }
  drill fig6 campaigns/fig6.json
  drill fig13 "$WORK/fig13.json"
fi

if [[ "${SKIP_PERF:-0}" != "1" ]]; then
  echo "=== stage 5: perf smoke (warn-only, vs committed BENCH_core.json) ==="
  if [[ ! -f BENCH_core.json ]]; then
    echo "perf smoke skipped: no committed BENCH_core.json baseline"
  else
    cmake --build build-ci -j "$JOBS" --target bench_micro_core
    ./build-ci/bench/bench_micro_core --json=build-ci/BENCH_core.json >/dev/null
    # Extract one numeric field from a flat BENCH_core.json.
    field() { sed -nE "s/.*\"$2\": ([0-9.]+).*/\1/p" "$1"; }
    printf '%-26s %14s %14s %8s  %s\n' metric baseline current delta verdict
    for key in events_per_sec_minimal events_per_sec_ugal \
               events_per_sec_sharded_serial events_per_sec_sharded_2 \
               events_per_sec_sharded_4 ns_voq_push_pop \
               ns_pool_alloc_release ns_csr_next_hops \
               ns_event_queue_wheel ms_minimal_table_sf31; do
      base=$(field BENCH_core.json "$key")
      cur=$(field build-ci/BENCH_core.json "$key")
      if [[ -z "$base" || -z "$cur" ]]; then
        printf '%-26s %14s %14s %8s  %s\n' "$key" "${base:--}" "${cur:--}" - \
          "MISSING (baseline schema drift?)"
        continue
      fi
      # events/sec regress downward, ns/op regress upward.
      awk -v key="$key" -v base="$base" -v cur="$cur" 'BEGIN {
        delta = base > 0 ? (cur - base) / base * 100 : 0
        worse = (key ~ /^events_per_sec/) ? -delta : delta
        verdict = worse > 15 ? "REGRESSION (warn-only)" : "ok"
        printf "%-26s %14s %14s %+7.1f%%  %s\n", key, base, cur, delta, verdict
      }'
    done
    echo "perf smoke done (informational; refresh the baseline via" \
         "bench_micro_core --json=BENCH_core.json on a quiet machine)"
  fi
  if [[ ! -f BENCH_flow.json ]]; then
    echo "flow perf smoke skipped: no committed BENCH_flow.json baseline"
  else
    # Flow-engine smoke (docs/flow_engine.md): bench-scale scenarios only
    # (--skip-large — the q=43 fields in the committed baseline are
    # refreshed manually with the full run). +/-20% band, warn-only: flow
    # scenarios are end-to-end wall timings, noisier than micro-op loops.
    cmake --build build-ci -j "$JOBS" --target bench_micro_flow
    ./build-ci/bench/bench_micro_flow --skip-large \
      --json=build-ci/BENCH_flow.json >/dev/null
    field() { sed -nE "s/.*\"$2\": ([0-9.]+).*/\1/p" "$1"; }
    printf '%-26s %14s %14s %8s  %s\n' metric baseline current delta verdict
    for key in flows_per_sec_exact flows_per_sec_batched \
               accepted_exact accepted_batched; do
      base=$(field BENCH_flow.json "$key")
      cur=$(field build-ci/BENCH_flow.json "$key")
      if [[ -z "$base" || -z "$cur" ]]; then
        printf '%-26s %14s %14s %8s  %s\n' "$key" "${base:--}" "${cur:--}" - \
          "MISSING (baseline schema drift?)"
        continue
      fi
      # flows/sec regress downward; accepted throughput is deterministic
      # for a given seed, so any drift there is a model change, not noise.
      awk -v key="$key" -v base="$base" -v cur="$cur" 'BEGIN {
        delta = base > 0 ? (cur - base) / base * 100 : 0
        worse = (key ~ /^flows_per_sec/) ? -delta : (delta < 0 ? -delta : delta)
        verdict = worse > 20 ? "REGRESSION (warn-only)" : "ok"
        if (key ~ /^accepted/ && (delta > 0.01 || delta < -0.01))
          verdict = "DRIFT (deterministic field moved; warn-only)"
        printf "%-26s %14s %14s %+7.1f%%  %s\n", key, base, cur, delta, verdict
      }'
    done
    echo "flow perf smoke done (informational; refresh via" \
         "bench_micro_flow --json=BENCH_flow.json on a quiet machine)"
  fi
fi

if [[ "${SKIP_CAMPAIGN:-0}" != "1" ]]; then
  echo "=== stage 6: declarative campaign drill (specs vs goldens) ==="
  cmake --build build-ci -j "$JOBS" --target d2net_campaign \
    --target bench_ablation_transient_faults
  CAMPAIGN=./build-ci/bench/d2net_campaign
  WORK=build-ci/campaign-drill
  GOLDEN=tests/golden/campaigns
  rm -rf "$WORK" && mkdir -p "$WORK"
  # --jobs=1 because bench_ablation_transient_faults runs serially by
  # construction and the top-level "jobs" JSON field must agree; the
  # goldens were generated with exactly these arguments.
  ARGS=(--duration-us=2 --warmup-us=0.5 --seed=3 --jobs=1)
  normalize() { sed -E 's/"(wall_seconds|events_per_second)": [0-9.eE+-]+/"\1": X/g' "$1"; }

  # Every committed spec must parse, validate and expand cleanly.
  for spec in campaigns/*.json; do
    "$CAMPAIGN" --spec="$spec" --dry-run >/dev/null
  done

  # Porting contract: each figure spec's normalized --json must equal its
  # golden, generated from the per-figure binary the spec replaced (see
  # docs/campaigns.md, "Goldens"). fig13 at the committed 7680 B/pair is
  # minutes of simulation; its golden is the 256 B/pair exchange.
  sed 's/"bytes_per_pair": 7680/"bytes_per_pair": 256/' campaigns/fig13.json \
    > "$WORK/fig13.json"
  for fig in fig6 fig7 fig8 fig9 fig10 fig11 fig12 fig13; do
    spec="campaigns/$fig.json"
    [[ "$fig" == fig13 ]] && spec="$WORK/fig13.json"
    "$CAMPAIGN" --spec="$spec" "${ARGS[@]}" --json="$WORK/$fig-spec.json" >/dev/null
    diff <(normalize "$WORK/$fig-spec.json") "$GOLDEN/$fig.json"
  done
  # Exchange rows honour --jobs: fig13 at --jobs=4 matches the same golden
  # apart from the top-level "jobs" field.
  "$CAMPAIGN" --spec="$WORK/fig13.json" --duration-us=2 --warmup-us=0.5 --seed=3 \
    --jobs=4 --json="$WORK/fig13-jobs4.json" >/dev/null
  diff <(normalize "$WORK/fig13-jobs4.json" | sed -E 's/^  "jobs": [0-9]+,$/  "jobs": J,/') \
    <(sed -E 's/^  "jobs": [0-9]+,$/  "jobs": J,/' "$GOLDEN/fig13.json")

  # ... and through two lease-sharing workers, merged.
  "$CAMPAIGN" --spec="$WORK/fig13.json" "${ARGS[@]}" --journal="$WORK/fig13-dist" \
    --workers=2 --worker-id=a --lease-ttl=30 > "$WORK/fig13-a.log" 2>&1 &
  WA=$!
  "$CAMPAIGN" --spec="$WORK/fig13.json" "${ARGS[@]}" --journal="$WORK/fig13-dist" \
    --workers=2 --worker-id=b --lease-ttl=30 > "$WORK/fig13-b.log" 2>&1 &
  WB=$!
  wait "$WA"
  wait "$WB"
  "$CAMPAIGN" --spec="$WORK/fig13.json" "${ARGS[@]}" --journal="$WORK/fig13-dist" \
    --merge --json="$WORK/fig13-merged.json" > "$WORK/fig13-merge.log"
  grep -q "0 missing, 0 failed" "$WORK/fig13-merge.log"
  diff <(normalize "$WORK/fig13-merged.json") "$GOLDEN/fig13.json"

  # A malformed spec is a located error and exit code 2, never an abort.
  echo '{"name": 1}' > "$WORK/malformed.json"
  set +e
  "$CAMPAIGN" --spec="$WORK/malformed.json" --dry-run 2> "$WORK/malformed.err"
  STATUS=$?
  set -e
  [[ "$STATUS" -eq 2 ]]
  grep -q "$WORK/malformed.json" "$WORK/malformed.err"

  ./build-ci/bench/bench_ablation_transient_faults "${ARGS[@]}" \
    --json="$WORK/tf-bench.json" >/dev/null
  "$CAMPAIGN" --spec=campaigns/transient_faults.json "${ARGS[@]}" \
    --json="$WORK/tf-spec.json" >/dev/null
  diff <(normalize "$WORK/tf-spec.json") <(normalize "$WORK/tf-bench.json")
  echo "campaign porting contract OK: fig6-fig13 match their goldens," \
       "transient_faults matches its binary"

  # Warn-only convergence smoke: detection-to-consistency times of the
  # modeled control plane vs the committed reference, +/-20% band. The
  # values are simulated time and fully deterministic for these args, so
  # drift means the propagation protocol model changed — refresh
  # BENCH_convergence.json deliberately when that is intended.
  if [[ -f BENCH_convergence.json ]]; then
    mapfile -t ref < <(grep -oE '"consistency_us_mean": [0-9.]+' BENCH_convergence.json \
      | awk '{print $2}')
    mapfile -t cur < <(grep -oE '"consistency_us_mean": [0-9.]+' "$WORK/tf-bench.json" \
      | awk '{print $2}')
    if [[ "${#ref[@]}" -eq 0 || "${#ref[@]}" -ne "${#cur[@]}" ]]; then
      echo "convergence smoke: point count mismatch (ref ${#ref[@]}," \
           "current ${#cur[@]}) — refresh BENCH_convergence.json (warn-only)"
    else
      for i in $(seq 0 $(( ${#ref[@]} - 1 ))); do
        awk -v r="${ref[$i]}" -v c="${cur[$i]}" -v i="$i" 'BEGIN {
          d = r > 0 ? (c - r) / r * 100 : (c > 0 ? 999 : 0)
          v = (d > 20 || d < -20) ? "DRIFT (warn-only)" : "ok"
          printf "convergence smoke point %d: ref=%.3fus cur=%.3fus %+.1f%%  %s\n", i, r, c, d, v
        }'
      done
      echo "convergence smoke done (informational; see docs/resilience.md)"
    fi
  else
    echo "convergence smoke skipped: no committed BENCH_convergence.json"
  fi

  # Kill/resume drill on the smoke campaign (mixed load, per-system fault
  # and exchange steps in one journal).
  "$CAMPAIGN" --spec=campaigns/smoke.json "${ARGS[@]}" \
    --json="$WORK/smoke-clean.json" >/dev/null
  "$CAMPAIGN" --spec=campaigns/smoke.json "${ARGS[@]}" \
    --journal="$WORK/smoke-full" --json="$WORK/smoke-full.json" >/dev/null
  diff <(normalize "$WORK/smoke-full.json") <(normalize "$WORK/smoke-clean.json")
  cp -r "$WORK/smoke-full" "$WORK/smoke-cut"
  LINES=$(wc -l < "$WORK/smoke-cut/journal.jsonl")
  KEEP=$(( LINES * 2 / 5 )); [[ "$KEEP" -lt 1 ]] && KEEP=1
  head -n "$KEEP" "$WORK/smoke-full/journal.jsonl" > "$WORK/smoke-cut/journal.jsonl"
  printf '{"key": "torn' >> "$WORK/smoke-cut/journal.jsonl"
  "$CAMPAIGN" --spec=campaigns/smoke.json "${ARGS[@]}" \
    --journal="$WORK/smoke-cut" --resume --json="$WORK/smoke-resumed.json" >/dev/null
  diff <(normalize "$WORK/smoke-resumed.json") <(normalize "$WORK/smoke-clean.json")
  echo "campaign resume drill OK ($KEEP/$LINES journal lines survived the crash)"

  # Multi-worker chaos drill (docs/campaigns.md, distributed campaigns):
  # three cooperating workers on the smoke campaign; the first claims a
  # shard and is SIGKILLed in the narrowest recovery window (lease
  # published, zero journal entries). A survivor must steal the stale
  # lease after --lease-ttl, and the merged output must be byte-identical
  # (diff + digest) to the single-process reference above.
  DIST="$WORK/smoke-dist"
  rm -rf "$DIST"
  D2NET_CAMPAIGN_HOLD=120 "$CAMPAIGN" --spec=campaigns/smoke.json "${ARGS[@]}" \
    --journal="$DIST" --workers=3 --worker-id=victim --lease-ttl=2 \
    > "$WORK/victim.log" 2>&1 &
  VICTIM=$!
  # The hold message means the victim holds a published lease and has
  # journaled nothing — the exact crash window the steal path must absorb.
  for _ in $(seq 1 200); do
    grep -q "holding shard" "$WORK/victim.log" 2>/dev/null && break
    sleep 0.1
  done
  grep -q "holding shard" "$WORK/victim.log"
  kill -9 "$VICTIM" 2>/dev/null
  wait "$VICTIM" 2>/dev/null || true
  "$CAMPAIGN" --spec=campaigns/smoke.json "${ARGS[@]}" \
    --journal="$DIST" --workers=3 --worker-id=survivor1 --lease-ttl=2 \
    > "$WORK/survivor1.log" 2>&1 &
  S1=$!
  "$CAMPAIGN" --spec=campaigns/smoke.json "${ARGS[@]}" \
    --journal="$DIST" --workers=3 --worker-id=survivor2 --lease-ttl=2 \
    > "$WORK/survivor2.log" 2>&1 &
  S2=$!
  wait "$S1"
  wait "$S2"
  # Exactly the dead worker's shard must have been stolen.
  grep -h "stole stale lease" "$WORK/survivor1.log" "$WORK/survivor2.log"
  "$CAMPAIGN" --spec=campaigns/smoke.json "${ARGS[@]}" --journal="$DIST" --status
  "$CAMPAIGN" --spec=campaigns/smoke.json "${ARGS[@]}" \
    --journal="$DIST" --merge --json="$WORK/smoke-merged.json" >/dev/null
  diff <(normalize "$WORK/smoke-merged.json") <(normalize "$WORK/smoke-clean.json")
  MERGED_DIGEST=$(normalize "$WORK/smoke-merged.json" | sha256sum | cut -d' ' -f1)
  REFERENCE_DIGEST=$(normalize "$WORK/smoke-clean.json" | sha256sum | cut -d' ' -f1)
  [[ "$MERGED_DIGEST" == "$REFERENCE_DIGEST" ]]
  echo "multi-worker chaos drill OK: survivor stole the dead worker's lease," \
       "merged digest $MERGED_DIGEST matches the single-process reference"
fi

echo "CI OK"
