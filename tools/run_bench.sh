#!/usr/bin/env bash
# Perf harness. Every bench leg is one row of the table in legs();
# a release mode builds a Release tree in build-bench/ and runs its rows at
# full size, writing BENCH_<row>.json at the repository root, and --smoke
# walks every row at smoke size.
#
#   tools/run_bench.sh                 # micro_core suite + core trajectory,
#                                      # writes BENCH_core.json, then prints
#                                      # the fig8 running-time panel
#   tools/run_bench.sh --scale         # large-market N x M sweep, writes
#                                      # BENCH_scale.json (wall time, rounds,
#                                      # peak RSS, steady-round allocations)
#   tools/run_bench.sh --serve         # the serving legs perfbench/ lacks:
#                                      # admission shed burst and snapshot
#                                      # cold boot vs rebuild at N=2000/20000,
#                                      # writes BENCH_serve.json
#   tools/run_bench.sh --kernels       # SIMD kernel microbench: per-kernel
#                                      # ns/word, scalar vs the dispatched
#                                      # tier, writes BENCH_kernels.json
#   tools/run_bench.sh --perfbench     # perfbench/run.py, 5 runs of every
#                                      # workload in BENCHMARK.json, writes
#                                      # their medians to BENCH_perfbench.json
#   tools/run_bench.sh --smoke BINDIR  # every row at smoke size against the
#                                      # binaries in BINDIR (the bench_smoke
#                                      # ctest)
#   tools/run_bench.sh --compare OLD.json NEW.json [--threshold PCT]
#                                      # regression gate: non-zero exit when
#                                      # NEW regresses wall_ms/p99/throughput
#                                      # (or kernel ns/word rows) past the
#                                      # threshold (default 25%)
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"

# One row per leg, '|'-separated:
#   name      the leg; release JSON is BENCH_<name>.json, smoke JSON and log
#             are <name>.json / <name>.log in the smoke temp dir
#   mode      the release mode that runs the row ("-": smoke only)
#   binary    bench target
#   env       VAR=value words for every run of the row
#   smoke     VAR=value words added at smoke size
#   args      arguments at smoke size (release rows get run_bench.sh's)
#   markers   ';'-separated strings the smoke JSON must contain
#   checks    functions below, called with the row name after a smoke run
legs() {
  cat <<'EOF'
fig6_optimal_vs_matching|-|fig6_optimal_vs_matching||||||
fig7_stage_welfare|-|fig7_stage_welfare||||||
ablation_transition_rules|-|ablation_transition_rules||||||
ablation_mwis|-|ablation_mwis||||||
ablation_rescreen|-|ablation_rescreen||||||
ablation_swap|-|ablation_swap||||||
baseline_auction|-|baseline_auction||||||
ablation_topology|-|ablation_topology||||||
ablation_bundles|-|ablation_bundles||||||
ablation_manipulation|-|ablation_manipulation||||||
dynamic_market|-|dynamic_market||||||
ablation_proposing_side|-|ablation_proposing_side||||||
fault_injection|-|fault_injection||||||
ablation_pricing|-|ablation_pricing||||||
core|default|micro_core|||--benchmark_filter=BM_BitsetIntersects/64 --benchmark_min_time=0.01|"bench": "two_stage"|
fig8_running_time|default|fig8_running_time||||||
scale|--scale|large_market|SPECMATCH_COUNT_ALLOCS=1|SPECMATCH_THREADS=1||"bench": "two_stage_scale"|zero_allocs rss_budget
scale_components|-|large_market|SPECMATCH_COUNT_ALLOCS=1 SPECMATCH_COMPONENT_MIN=1|SPECMATCH_THREADS=1|||zero_allocs same_results
scale_csr|-|large_market|SPECMATCH_COUNT_ALLOCS=1 SPECMATCH_GRAPH_DENSE_MAX=32|SPECMATCH_THREADS=1||"bench": "two_stage_scale"|zero_allocs rss_budget
serve|--serve|serve_load||||"bench": "serve_shed";"algorithm": "rebuild";"algorithm": "snapshot_load"|compare_gate
kernels|--kernels|micro_kernels||||"schema": "specmatch-kernels-v1";"kernel": "and_popcount";"dispatch": "scalar"|
metrics|-|micro_core|SPECMATCH_METRICS=1||--benchmark_filter=BM_BitsetIntersects/64 --benchmark_min_time=0.01||metric_counters
EOF
}

fail() {
  echo "bench_smoke: $*" >&2
  status=1
}

# Steady-round allocation counting (SPECMATCH_COUNT_ALLOCS=1): the records
# must exist AND report zero — the MatchWorkspace zero-allocation guarantee
# enforced on the bench grid, on the serial path it is scoped to.
zero_allocs() {
  if grep -q '"steady_allocs": [1-9-]' "$tmpdir/$1.json"; then
    fail "$1 reports non-zero steady allocations"
    grep '"steady_allocs"' "$tmpdir/$1.json" >&2
  fi
  grep -q '"steady_allocs": 0' "$tmpdir/$1.json" ||
    fail "$1 missing steady_allocs measurements"
}

# Every component in its own shard (SPECMATCH_COMPONENT_MIN=1): the
# deterministic `result:` transcript must be byte-identical to the default
# scale run — the merge-order guarantee, enforced end to end.
same_results() {
  grep '^result:' "$tmpdir/scale.log" > "$tmpdir/results_default.txt" || true
  grep '^result:' "$tmpdir/$1.log" > "$tmpdir/results_$1.txt" || true
  if [[ ! -s "$tmpdir/results_default.txt" ]]; then
    fail "large_market emitted no result: transcript lines"
  elif ! diff -u "$tmpdir/results_default.txt" "$tmpdir/results_$1.txt" >&2; then
    fail "$1 transcript differs from the default scale run"
  fi
}

# The smoke grid tops out at N=200 x M=8, where either representation fits
# comfortably in 256 MB; a blown budget means an adjacency (or workspace)
# regression, caught here before the real N=20000 gate in BENCH_scale.json.
rss_budget() {
  local over
  over="$(grep -o '"peak_rss_mb": [0-9.e+-]*' "$tmpdir/$1.json" |
          awk '$2 + 0 > 256 { printf "%s ", $2 }')"
  [[ -z "$over" ]] || fail "$1 peak_rss_mb over 256 MB budget: $over"
  grep -q '"peak_rss_mb"' "$tmpdir/$1.json" ||
    fail "$1 missing peak_rss_mb measurements"
}

# The JSON must flow through the --compare gate (self-compare: proves its
# rows parse and key).
compare_gate() {
  if ! "$repo_root/tools/run_bench.sh" --compare "$tmpdir/$1.json" \
       "$tmpdir/$1.json" > "$tmpdir/$1_compare.log" 2>&1; then
    fail "$1.json did not pass the bench_compare gate"
    tail -n 20 "$tmpdir/$1_compare.log" >&2
  fi
}

# With SPECMATCH_METRICS on, the dump must carry non-zero Stage I, MWIS and
# dist counters, the SIMD dispatch gauge and a per-kernel call counter (see
# docs/OBSERVABILITY.md).
metric_counters() {
  local counter
  for counter in stage1.rounds stage1.proposals mwis.calls dist.messages; do
    grep -Eq "\"$counter\": [1-9][0-9]*" "$tmpdir/$1.json" ||
      fail "$1.json missing non-zero $counter"
  done
  grep -q '"simd.dispatch.tier"' "$tmpdir/$1.json" ||
    fail "$1.json missing simd.dispatch.tier gauge"
  grep -Eq '"simd\.(and_popcount|popcount)\.calls": [1-9][0-9]*' \
    "$tmpdir/$1.json" || fail "$1.json missing non-zero simd.*.calls"
}

smoke() {
  local bindir="$1" name mode binary env smoke_env args markers checks
  local marker check
  export SPECMATCH_TRIALS="${SPECMATCH_TRIALS:-1}"
  export SPECMATCH_BENCH_SMOKE="${SPECMATCH_BENCH_SMOKE:-1}"
  tmpdir="$(mktemp -d)"
  trap 'rm -rf "$tmpdir"' EXIT
  status=0
  while IFS='|' read -r name mode binary env smoke_env args markers checks; do
    if [[ ! -x "$bindir/$binary" ]]; then
      fail "MISSING $binary"
      continue
    fi
    echo "bench_smoke: $name"
    # shellcheck disable=SC2086  # env/args columns are word lists
    if ! env $env $smoke_env SPECMATCH_BENCH_JSON="$tmpdir/$name.json" \
         "$bindir/$binary" $args > "$tmpdir/$name.log" 2>&1; then
      fail "FAILED $name"
      tail -n 30 "$tmpdir/$name.log" >&2
      continue
    fi
    IFS=';' read -r -a marker_list <<< "$markers"
    for marker in "${marker_list[@]}"; do
      grep -qF "$marker" "$tmpdir/$name.json" ||
        fail "$name.json missing $marker"
    done
    for check in $checks; do "$check" "$name"; done
  done < <(legs)
  exit "$status"
}

release() {
  local selected="$1" name mode binary env smoke_env args markers checks
  local -a rows=() targets=()
  shift
  while IFS='|' read -r name mode binary env smoke_env args markers checks; do
    [[ "$mode" == "$selected" ]] || continue
    rows+=("$name|$binary|$env")
    targets+=("$binary")
  done < <(legs)
  local build_dir="$repo_root/build-bench"
  cmake -B "$build_dir" -S "$repo_root" -DCMAKE_BUILD_TYPE=Release
  cmake --build "$build_dir" -j"$(nproc)" --target "${targets[@]}"
  for row in "${rows[@]}"; do
    IFS='|' read -r name binary env <<< "$row"
    echo "== $name =="
    # shellcheck disable=SC2086
    env $env SPECMATCH_BENCH_JSON="$repo_root/BENCH_$name.json" \
      "$build_dir/bench/$binary" "$@"
  done
}

# Five runs of every BENCHMARK.json workload at its run_seconds; the
# summariser refuses to write BENCH_perfbench.json unless every run is
# correct, failure-free and on one fingerprint per workload.
perfbench() {
  local runs=5 workload k spec seconds workloads
  outdir="$(mktemp -d)"
  trap 'rm -rf "$outdir"' EXIT
  cd "$repo_root"
  spec="$(python3 -c 'import json; s = json.load(open("BENCHMARK.json"))
print(s["run_seconds"], *(w["name"] for w in s["workloads"]))')"
  read -r seconds workloads <<< "$spec"
  for workload in $workloads; do
    for k in $(seq 1 "$runs"); do
      echo "== perfbench $workload run $k/$runs =="
      python3 perfbench/run.py --workload "$workload" --seed 1 \
        --seconds "$seconds" --trace 0 > "$outdir/$workload.$k.txt" || true
      grep -E '^(window|\{)' "$outdir/$workload.$k.txt" || true
    done
  done
  python3 tools/perfbench_record.py "$outdir"/*.txt
}

case "${1:-}" in
  --compare)
    old_json="${2:?usage: run_bench.sh --compare OLD.json NEW.json}"
    new_json="${3:?usage: run_bench.sh --compare OLD.json NEW.json}"
    shift 3
    exec python3 "$repo_root/tools/bench_compare.py" "$old_json" "$new_json" "$@"
    ;;
  --smoke) smoke "${2:?usage: run_bench.sh --smoke BINDIR}" ;;
  --perfbench) perfbench ;;
  --scale|--serve|--kernels) release "$@" ;;
  *)
    export SPECMATCH_TRIALS="${SPECMATCH_TRIALS:-5}"
    release default "$@"
    ;;
esac
