#!/usr/bin/env bash
# Perf harness driver.
#
# Default mode: configure + build a Release tree in build-bench/, run the
# micro_core google-benchmark suite plus the core perf trajectory, and
# refresh BENCH_core.json at the repository root. A small fig8 run prints
# the paper's running-time panel for eyeballing.
#
#   tools/run_bench.sh                 # full perf run, writes BENCH_core.json
#   tools/run_bench.sh --scale         # large-market N x M sweep, writes
#                                      # BENCH_scale.json (wall time, rounds,
#                                      # peak RSS, steady-round allocations)
#   tools/run_bench.sh --serve         # closed-loop serving load run, writes
#                                      # BENCH_serve.json (cold/warm latency
#                                      # percentiles, throughput, shed burst)
#   tools/run_bench.sh --serve --net   # networked serving load run over the
#                                      # loopback TCP front-end (closed- and
#                                      # open-loop legs at conns {1,64,512}),
#                                      # writes BENCH_serve_net.json
#   tools/run_bench.sh --store         # persistence-tier run, writes
#                                      # BENCH_store.json (cold boot from an
#                                      # mmap snapshot vs rebuild at N=20000,
#                                      # memory-capped spill/fault-back
#                                      # stream with zero discards)
#   tools/run_bench.sh --kernels       # SIMD kernel microbench: per-kernel
#                                      # ns/word at words {4,64,1024,16384},
#                                      # scalar vs the dispatched tier, writes
#                                      # BENCH_kernels.json
#   tools/run_bench.sh --smoke BINDIR  # smoke: run every bench binary in
#                                      # BINDIR at SPECMATCH_TRIALS=1 (the
#                                      # bench_smoke ctest)
#   tools/run_bench.sh --compare OLD.json NEW.json [--threshold PCT]
#                                      # regression gate: non-zero exit when
#                                      # NEW regresses wall_ms/p99/throughput
#                                      # (or kernel ns/word rows) past the
#                                      # threshold (default 25%)
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"

if [[ "${1:-}" == "--compare" ]]; then
  old_json="${2:?usage: run_bench.sh --compare OLD.json NEW.json}"
  new_json="${3:?usage: run_bench.sh --compare OLD.json NEW.json}"
  shift 3
  exec python3 "$repo_root/tools/bench_compare.py" "$old_json" "$new_json" "$@"
fi

if [[ "${1:-}" == "--scale" ]]; then
  build_dir="$repo_root/build-bench"
  cmake -B "$build_dir" -S "$repo_root" -DCMAKE_BUILD_TYPE=Release
  cmake --build "$build_dir" -j"$(nproc)" --target large_market
  # Allocation counting on, so every record carries steady_allocs and the
  # zero-allocation guarantee is re-proved on the real sweep, not just the
  # smoke grid. The JSON lands at the repo root for review diffs.
  SPECMATCH_COUNT_ALLOCS=1 \
  SPECMATCH_BENCH_JSON="$repo_root/BENCH_scale.json" \
    "$build_dir/bench/large_market"
  exit 0
fi

if [[ "${1:-}" == "--serve" ]]; then
  build_dir="$repo_root/build-bench"
  cmake -B "$build_dir" -S "$repo_root" -DCMAKE_BUILD_TYPE=Release
  cmake --build "$build_dir" -j"$(nproc)" --target serve_load
  if [[ "${2:-}" == "--net" ]]; then
    # Networked leg: the same mutation/solve mix driven through the loopback
    # TCP front-end, closed- and open-loop, conns {1, 64, 512} (override
    # with SPECMATCH_NET_CONNS). Rows land under bench "serve_net" with the
    # connection count in the algorithm field, so --compare keys them apart
    # from the in-process rows. Single-core containers serialize client and
    # server on one CPU — see EXPERIMENTS.md before reading these numbers
    # as network overhead.
    SPECMATCH_METRICS=1 \
    SPECMATCH_BENCH_JSON="$repo_root/BENCH_serve_net.json" \
      "$build_dir/bench/serve_load" --net
    exit 0
  fi
  # Metrics on, so the JSON carries the serve.* instrument snapshot (latency
  # histograms with p50/p90/p99 alongside the client-side exact percentiles).
  SPECMATCH_METRICS=1 \
  SPECMATCH_BENCH_JSON="$repo_root/BENCH_serve.json" \
    "$build_dir/bench/serve_load"
  exit 0
fi

if [[ "${1:-}" == "--store" ]]; then
  build_dir="$repo_root/build-bench"
  cmake -B "$build_dir" -S "$repo_root" -DCMAKE_BUILD_TYPE=Release
  cmake --build "$build_dir" -j"$(nproc)" --target serve_load
  # Metrics on, so the JSON carries the serve.store.* counters and the
  # spill/fault-in latency histograms next to the wall-clock legs.
  SPECMATCH_METRICS=1 \
  SPECMATCH_BENCH_JSON="$repo_root/BENCH_store.json" \
    "$build_dir/bench/serve_load" --store
  exit 0
fi

if [[ "${1:-}" == "--kernels" ]]; then
  build_dir="$repo_root/build-bench"
  cmake -B "$build_dir" -S "$repo_root" -DCMAKE_BUILD_TYPE=Release
  cmake --build "$build_dir" -j"$(nproc)" --target micro_kernels
  # The bench re-proves scalar/dispatched bit-equivalence before timing, so
  # a broken tier fails here rather than producing fast-but-wrong numbers.
  SPECMATCH_BENCH_JSON="$repo_root/BENCH_kernels.json" \
    "$build_dir/bench/micro_kernels"
  exit 0
fi

if [[ "${1:-}" == "--smoke" ]]; then
  bindir="${2:?usage: run_bench.sh --smoke BINDIR}"
  export SPECMATCH_TRIALS="${SPECMATCH_TRIALS:-1}"
  export SPECMATCH_BENCH_SMOKE="${SPECMATCH_BENCH_SMOKE:-1}"
  tmpdir="$(mktemp -d)"
  trap 'rm -rf "$tmpdir"' EXIT
  status=0
  for bench in fig6_optimal_vs_matching fig7_stage_welfare fig8_running_time \
               ablation_transition_rules ablation_mwis ablation_rescreen \
               ablation_swap baseline_auction ablation_topology \
               ablation_bundles ablation_manipulation dynamic_market \
               ablation_proposing_side fault_injection ablation_pricing; do
    if [[ ! -x "$bindir/$bench" ]]; then
      echo "bench_smoke: MISSING $bench" >&2
      status=1
      continue
    fi
    echo "bench_smoke: $bench"
    if ! "$bindir/$bench" > "$tmpdir/$bench.log" 2>&1; then
      echo "bench_smoke: FAILED $bench" >&2
      tail -n 30 "$tmpdir/$bench.log" >&2
      status=1
    fi
  done
  # micro_core: one tiny google-benchmark case, then the (smoke-sized) core
  # trajectory, JSON to the temp dir so the checked-in record is untouched.
  echo "bench_smoke: micro_core"
  if ! SPECMATCH_BENCH_JSON="$tmpdir/BENCH_core.json" \
       "$bindir/micro_core" --benchmark_filter='BM_BitsetIntersects/64' \
       --benchmark_min_time=0.01 > "$tmpdir/micro_core.log" 2>&1; then
    echo "bench_smoke: FAILED micro_core" >&2
    tail -n 30 "$tmpdir/micro_core.log" >&2
    status=1
  fi
  grep -q '"bench": "two_stage"' "$tmpdir/BENCH_core.json" || {
    echo "bench_smoke: BENCH_core.json missing two_stage records" >&2
    status=1
  }
  # Scale-bench leg: smoke-sized sweep with the counting allocator on. The
  # records must exist AND report zero steady-round allocations — this is
  # the MatchWorkspace zero-allocation guarantee enforced in CI on top of
  # the unit test (threads default to 1 here, the serial path the guarantee
  # is scoped to).
  echo "bench_smoke: large_market (scale)"
  if ! SPECMATCH_COUNT_ALLOCS=1 SPECMATCH_THREADS=1 \
       SPECMATCH_BENCH_JSON="$tmpdir/BENCH_scale.json" \
       "$bindir/large_market" > "$tmpdir/large_market.log" 2>&1; then
    echo "bench_smoke: FAILED large_market" >&2
    tail -n 30 "$tmpdir/large_market.log" >&2
    status=1
  fi
  grep -q '"bench": "two_stage_scale"' "$tmpdir/BENCH_scale.json" || {
    echo "bench_smoke: BENCH_scale.json missing two_stage_scale records" >&2
    status=1
  }
  if grep -q '"steady_allocs": [1-9-]' "$tmpdir/BENCH_scale.json"; then
    echo "bench_smoke: BENCH_scale.json reports non-zero steady allocations" >&2
    grep '"steady_allocs"' "$tmpdir/BENCH_scale.json" >&2
    status=1
  fi
  grep -q '"steady_allocs": 0' "$tmpdir/BENCH_scale.json" || {
    echo "bench_smoke: BENCH_scale.json missing steady_allocs measurements" >&2
    status=1
  }
  # Component-sharding leg: force every connected component into its own
  # shard (SPECMATCH_COMPONENT_MIN=1, the maximally-sharded path) and
  # require (a) the deterministic `result:` transcript is byte-identical
  # to the default run above — the merge-order guarantee, enforced
  # end-to-end — and (b) the steady state still allocates nothing with
  # sharding at its finest grain.
  echo "bench_smoke: large_market (scale, forced small components)"
  if ! SPECMATCH_COUNT_ALLOCS=1 SPECMATCH_THREADS=1 \
       SPECMATCH_COMPONENT_MIN=1 \
       SPECMATCH_BENCH_JSON="$tmpdir/BENCH_scale_comp.json" \
       "$bindir/large_market" > "$tmpdir/large_market_comp.log" 2>&1; then
    echo "bench_smoke: FAILED large_market (forced small components)" >&2
    tail -n 30 "$tmpdir/large_market_comp.log" >&2
    status=1
  fi
  grep '^result:' "$tmpdir/large_market.log" > "$tmpdir/results_default.txt" || true
  grep '^result:' "$tmpdir/large_market_comp.log" > "$tmpdir/results_comp.txt" || true
  if [[ ! -s "$tmpdir/results_default.txt" ]]; then
    echo "bench_smoke: large_market emitted no result: transcript lines" >&2
    status=1
  elif ! diff -u "$tmpdir/results_default.txt" "$tmpdir/results_comp.txt" >&2; then
    echo "bench_smoke: forced-small-component transcript differs from default" >&2
    status=1
  fi
  if grep -q '"steady_allocs": [1-9-]' "$tmpdir/BENCH_scale_comp.json"; then
    echo "bench_smoke: forced-small-component leg reports non-zero steady allocations" >&2
    grep '"steady_allocs"' "$tmpdir/BENCH_scale_comp.json" >&2
    status=1
  fi
  grep -q '"steady_allocs": 0' "$tmpdir/BENCH_scale_comp.json" || {
    echo "bench_smoke: forced-small-component leg missing steady_allocs measurements" >&2
    status=1
  }
  # CSR leg: force the sparse representation onto the smoke grid (60/200
  # vertices, normally dense) so CI exercises the CSR engine paths
  # end-to-end, with the same zero-steady-allocation bar.
  echo "bench_smoke: large_market (scale, forced CSR)"
  if ! SPECMATCH_COUNT_ALLOCS=1 SPECMATCH_THREADS=1 \
       SPECMATCH_GRAPH_DENSE_MAX=32 \
       SPECMATCH_BENCH_JSON="$tmpdir/BENCH_scale_csr.json" \
       "$bindir/large_market" > "$tmpdir/large_market_csr.log" 2>&1; then
    echo "bench_smoke: FAILED large_market (forced CSR)" >&2
    tail -n 30 "$tmpdir/large_market_csr.log" >&2
    status=1
  fi
  grep -q '"bench": "two_stage_scale"' "$tmpdir/BENCH_scale_csr.json" || {
    echo "bench_smoke: BENCH_scale_csr.json missing two_stage_scale records" >&2
    status=1
  }
  if grep -q '"steady_allocs": [1-9-]' "$tmpdir/BENCH_scale_csr.json"; then
    echo "bench_smoke: forced-CSR leg reports non-zero steady allocations" >&2
    grep '"steady_allocs"' "$tmpdir/BENCH_scale_csr.json" >&2
    status=1
  fi
  # Representation-aware peak-RSS budget: the smoke grid tops out at
  # N=200 x M=8, where either representation fits comfortably in 256 MB
  # (binary + gtest-free runtime + workload). A blown budget means an
  # adjacency (or workspace) regression, caught here before the real
  # N=20000 gate in BENCH_scale.json.
  for scale_json in BENCH_scale.json BENCH_scale_csr.json; do
    over_budget="$(awk -F': ' '/"peak_rss_mb"/ {
        gsub(/[,}].*/, "", $2); if ($2 + 0 > 256) print $2 }' \
        "$tmpdir/$scale_json")"
    if [[ -n "$over_budget" ]]; then
      echo "bench_smoke: $scale_json peak_rss_mb over 256 MB budget:" \
           "$over_budget" >&2
      status=1
    fi
    grep -q '"peak_rss_mb"' "$tmpdir/$scale_json" || {
      echo "bench_smoke: $scale_json missing peak_rss_mb measurements" >&2
      status=1
    }
  done
  # Serving leg: smoke-sized closed-loop load through the MatchServer. The
  # JSON must carry the cold and warm legs plus the shed-burst record.
  echo "bench_smoke: serve_load"
  if ! SPECMATCH_METRICS=1 \
       SPECMATCH_BENCH_JSON="$tmpdir/BENCH_serve.json" \
       "$bindir/serve_load" > "$tmpdir/serve_load.log" 2>&1; then
    echo "bench_smoke: FAILED serve_load" >&2
    tail -n 30 "$tmpdir/serve_load.log" >&2
    status=1
  fi
  for marker in '"algorithm": "cold"' '"algorithm": "warm"' \
                '"bench": "serve_shed"' 'serve.latency_ms'; do
    if ! grep -q "$marker" "$tmpdir/BENCH_serve.json"; then
      echo "bench_smoke: BENCH_serve.json missing $marker" >&2
      status=1
    fi
  done
  # Networked serving leg: the same smoke-sized load through the loopback
  # TCP front-end at conns {1, 8}, closed- and open-loop. The JSON must
  # carry both legs plus the totals row, and the bench itself asserts no
  # request was lost and no protocol error occurred.
  echo "bench_smoke: serve_load --net"
  if ! SPECMATCH_BENCH_JSON="$tmpdir/BENCH_serve_net.json" \
       "$bindir/serve_load" --net > "$tmpdir/serve_load_net.log" 2>&1; then
    echo "bench_smoke: FAILED serve_load --net" >&2
    tail -n 30 "$tmpdir/serve_load_net.log" >&2
    status=1
  fi
  for marker in '"algorithm": "closed_c1"' '"algorithm": "open_c8"' \
                '"algorithm": "totals"'; do
    if ! grep -q "$marker" "$tmpdir/BENCH_serve_net.json"; then
      echo "bench_smoke: BENCH_serve_net.json missing $marker" >&2
      status=1
    fi
  done
  # Persistence leg: smoke-sized store run. The bench itself CHECKs the
  # cold-booted market answers byte-identically and that the capped stream
  # discards nothing; the JSON must carry both cold-start legs, the capped
  # stream, and the serve.store.* counters — and it must flow through the
  # bench_compare gate (self-compare: proves store rows parse and key).
  echo "bench_smoke: serve_load --store"
  if ! SPECMATCH_METRICS=1 \
       SPECMATCH_BENCH_JSON="$tmpdir/BENCH_store.json" \
       "$bindir/serve_load" --store > "$tmpdir/serve_load_store.log" 2>&1; then
    echo "bench_smoke: FAILED serve_load --store" >&2
    tail -n 30 "$tmpdir/serve_load_store.log" >&2
    status=1
  fi
  for marker in '"algorithm": "rebuild"' '"algorithm": "snapshot_load"' \
                '"bench": "store_spill_stream"' 'discarded=0' \
                'serve.store.spills' 'serve.store.fault_ms'; do
    if ! grep -q "$marker" "$tmpdir/BENCH_store.json"; then
      echo "bench_smoke: BENCH_store.json missing $marker" >&2
      status=1
    fi
  done
  if ! "$repo_root/tools/run_bench.sh" --compare \
       "$tmpdir/BENCH_store.json" "$tmpdir/BENCH_store.json" \
       > "$tmpdir/store_compare.log" 2>&1; then
    echo "bench_smoke: BENCH_store.json did not pass the bench_compare gate" >&2
    tail -n 20 "$tmpdir/store_compare.log" >&2
    status=1
  fi
  # SIMD kernel leg: smoke-sized micro_kernels run. The bench itself CHECKs
  # every dispatch tier against the scalar reference before timing, and the
  # JSON must carry the kernels-v1 schema with both scalar and dispatched
  # rows (on x86 the dispatched tier differs from scalar).
  echo "bench_smoke: micro_kernels"
  if ! SPECMATCH_BENCH_JSON="$tmpdir/BENCH_kernels.json" \
       "$bindir/micro_kernels" > "$tmpdir/micro_kernels.log" 2>&1; then
    echo "bench_smoke: FAILED micro_kernels" >&2
    tail -n 30 "$tmpdir/micro_kernels.log" >&2
    status=1
  fi
  for marker in '"schema": "specmatch-kernels-v1"' \
                '"kernel": "and_popcount"' '"dispatch": "scalar"'; do
    if ! grep -q "$marker" "$tmpdir/BENCH_kernels.json"; then
      echo "bench_smoke: BENCH_kernels.json missing $marker" >&2
      status=1
    fi
  done
  # Metrics leg: with SPECMATCH_METRICS on, the bench JSON must carry the
  # algorithmic-counters section with non-zero Stage I, MWIS, and dist
  # counts (the observability acceptance bar; see docs/OBSERVABILITY.md).
  echo "bench_smoke: micro_core (metrics)"
  if ! SPECMATCH_METRICS=1 SPECMATCH_BENCH_JSON="$tmpdir/BENCH_metrics.json" \
       "$bindir/micro_core" --benchmark_filter='BM_BitsetIntersects/64' \
       --benchmark_min_time=0.01 > "$tmpdir/micro_core_metrics.log" 2>&1; then
    echo "bench_smoke: FAILED micro_core (metrics)" >&2
    tail -n 30 "$tmpdir/micro_core_metrics.log" >&2
    status=1
  fi
  for counter in stage1.rounds stage1.proposals mwis.calls dist.messages; do
    if ! grep -Eq "\"$counter\": [1-9][0-9]*" "$tmpdir/BENCH_metrics.json"; then
      echo "bench_smoke: BENCH_metrics.json missing non-zero $counter" >&2
      status=1
    fi
  done
  # SIMD observability: the dispatch gauge and at least one per-kernel call
  # counter must surface in the same dump (docs/OBSERVABILITY.md "Kernel
  # dispatch"). The tier gauge exists on every platform (scalar included).
  if ! grep -q '"simd.dispatch.tier"' "$tmpdir/BENCH_metrics.json"; then
    echo "bench_smoke: BENCH_metrics.json missing simd.dispatch.tier gauge" >&2
    status=1
  fi
  if ! grep -Eq '"simd\.(and_popcount|popcount)\.calls": [1-9][0-9]*' \
       "$tmpdir/BENCH_metrics.json"; then
    echo "bench_smoke: BENCH_metrics.json missing non-zero simd.*.calls" >&2
    status=1
  fi
  exit "$status"
fi

build_dir="$repo_root/build-bench"
cmake -B "$build_dir" -S "$repo_root" -DCMAKE_BUILD_TYPE=Release
cmake --build "$build_dir" -j"$(nproc)" --target micro_core fig8_running_time

# Full micro suite + the core trajectory; the JSON lands at the repo root so
# perf changes show up in review diffs.
SPECMATCH_BENCH_JSON="$repo_root/BENCH_core.json" \
  "$build_dir/bench/micro_core" "$@"
echo
echo "== fig8 running-time panel (SPECMATCH_TRIALS=${SPECMATCH_TRIALS:-5}) =="
SPECMATCH_TRIALS="${SPECMATCH_TRIALS:-5}" "$build_dir/bench/fig8_running_time"
