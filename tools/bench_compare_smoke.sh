#!/usr/bin/env bash
# The bench_compare ctest: exercise run_bench.sh --compare against the
# canned fixture pair. The clean pair must pass (exit 0) and the pair with
# a planted warm-p99/throughput regression must fail non-zero — proving
# the gate actually trips before anyone relies on it in CI. Then the
# perfbench summariser (tools/perfbench_record.py) on canned run.py
# transcripts: it must summarise correct runs and refuse the rest.
set -euo pipefail

tools_dir="${1:?usage: bench_compare_smoke.sh TOOLS_DIR}"
fixtures="$tools_dir/fixtures"
status=0

echo "bench_compare_smoke: clean pair (must pass)"
if ! "$tools_dir/run_bench.sh" --compare \
     "$fixtures/bench_compare_old.json" "$fixtures/bench_compare_ok.json"; then
  echo "bench_compare_smoke: FAILED — clean pair reported a regression" >&2
  status=1
fi

echo "bench_compare_smoke: regressed pair (must fail)"
if "$tools_dir/run_bench.sh" --compare \
     "$fixtures/bench_compare_old.json" \
     "$fixtures/bench_compare_regressed.json"; then
  echo "bench_compare_smoke: FAILED — planted regression was not detected" >&2
  status=1
fi

# The planted regressions (warm serve leg, store snapshot_load wall time)
# all stay under 500%; a huge threshold must let the pair pass — sanity
# that --threshold is actually honored.
echo "bench_compare_smoke: regressed pair at --threshold 500 (must pass)"
if ! "$tools_dir/run_bench.sh" --compare \
     "$fixtures/bench_compare_old.json" \
     "$fixtures/bench_compare_regressed.json" --threshold 500; then
  echo "bench_compare_smoke: FAILED — threshold override not honored" >&2
  status=1
fi

# Kernel-schema pair (specmatch-kernels-v1, bench/micro_kernels rows keyed
# by kernel/words/dispatch). Clean pair passes; the regressed pair plants a
# 4x ns_per_call jump on and_popcount@1024/avx2 which must trip the gate.
# Its ns_per_word twin moves by the same ratio but only ~0.35 ns absolute,
# which the --min-ns floor (default 2 ns) must swallow — so exactly one
# regression line is expected.
echo "bench_compare_smoke: kernel clean pair (must pass)"
if ! "$tools_dir/run_bench.sh" --compare \
     "$fixtures/bench_compare_kernels_old.json" \
     "$fixtures/bench_compare_kernels_ok.json"; then
  echo "bench_compare_smoke: FAILED — clean kernel pair reported a regression" >&2
  status=1
fi

echo "bench_compare_smoke: kernel regressed pair (must fail)"
if "$tools_dir/run_bench.sh" --compare \
     "$fixtures/bench_compare_kernels_old.json" \
     "$fixtures/bench_compare_kernels_regressed.json"; then
  echo "bench_compare_smoke: FAILED — planted kernel regression not detected" >&2
  status=1
fi

# With the absolute floor raised past the planted 360 ns jump the same pair
# must pass — sanity that --min-ns is actually honored.
echo "bench_compare_smoke: kernel regressed pair at --min-ns 1000 (must pass)"
if ! "$tools_dir/run_bench.sh" --compare \
     "$fixtures/bench_compare_kernels_old.json" \
     "$fixtures/bench_compare_kernels_regressed.json" --min-ns 1000; then
  echo "bench_compare_smoke: FAILED — --min-ns override not honored" >&2
  status=1
fi

# The summariser writes BENCH_perfbench.json to its working directory.
scratch="$(mktemp -d)"
trap 'rm -rf "$scratch"' EXIT
record() {
  rm -f "$scratch/BENCH_perfbench.json"
  (cd "$scratch" && python3 "$tools_dir/perfbench_record.py" "$@")
}
ok="$fixtures/cold_solve.perfbench_ok.txt"

echo "bench_compare_smoke: perfbench summariser, correct runs (must write)"
if ! record "$ok" "$ok" ||
   ! python3 - "$scratch/BENCH_perfbench.json" <<'PY'
import json, sys
w = json.load(open(sys.argv[1]))["workloads"]["cold_solve"]
assert w["runs"] == 2 and w["fingerprint"]["nproc"] == 4, w
m = w["metrics"]
assert len(m) == 6, sorted(m)
rps = 29.677303375809473
assert m["throughput_rps"] == {"median": rps, "q1": rps, "q3": rps,
                               "unit": "req/s"}, m
assert m["solve_p50_ms"]["median"] == 131.965988, m
assert m["peak_rss_mb"]["median"] == 115.421875, m
PY
then
  echo "bench_compare_smoke: FAILED — correct transcripts did not summarise" >&2
  status=1
fi

echo "bench_compare_smoke: perfbench summariser, incorrect run (must refuse)"
if record "$ok" "$fixtures/cold_solve.perfbench_incorrect.txt" ||
   [[ -e "$scratch/BENCH_perfbench.json" ]]; then
  echo "bench_compare_smoke: FAILED — an incorrect run was summarised" >&2
  status=1
fi

echo "bench_compare_smoke: perfbench summariser, mixed nproc (must refuse)"
sed 's/"nproc": 4/"nproc": 8/' "$ok" > "$scratch/cold_solve.nproc8.txt"
if record "$ok" "$scratch/cold_solve.nproc8.txt" ||
   [[ -e "$scratch/BENCH_perfbench.json" ]]; then
  echo "bench_compare_smoke: FAILED — mixed fingerprints were summarised" >&2
  status=1
fi

exit "$status"
