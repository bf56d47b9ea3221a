#!/usr/bin/env bash
# simd_smoke: end-to-end SIMD tier-equivalence gate (the simd_equivalence
# ctest). At SPECMATCH_THREADS 1 and 4, the AVX2 tier against the scalar
# reference:
#
#   * the large_market smoke sweep's deterministic `result:` transcript must
#     be byte-identical to the scalar-forced run — matchings, rounds,
#     welfare, and component counts cannot depend on SPECMATCH_SIMD;
#   * the `specmatch_cli serve` transcript over tools/serve_smoke.req must
#     be byte-identical to the scalar-forced transcript.
#
# Exits 77 (ctest SKIP_RETURN_CODE) when micro_kernels --probe does not list
# `avx2`: there is no second tier to compare, so passing would say nothing.
#
# Usage: simd_smoke.sh <path-to-specmatch_cli> <tools-dir> <bench-bindir>
set -euo pipefail

CLI="$1"
HERE="$2"
BENCHDIR="$3"
REQ="$HERE/serve_smoke.req"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

export SPECMATCH_TRIALS=1
export SPECMATCH_BENCH_SMOKE=1

tiers="$("$BENCHDIR/micro_kernels" --probe)"
echo "simd_smoke: supported tiers: $(echo "$tiers" | tr '\n' ' ')"
if ! grep -qx 'avx2' <<< "$tiers"; then
  echo "simd_smoke: SKIP: the AVX2 tier is not available on this CPU"
  exit 77
fi

run() { # <tier> <threads>: large_market result: lines and a serve transcript
  SPECMATCH_SIMD="$1" SPECMATCH_THREADS="$2" \
    SPECMATCH_BENCH_JSON="$TMP/scale_$1_t$2.json" \
    "$BENCHDIR/large_market" > "$TMP/lm_$1_t$2.log" 2>&1
  grep '^result:' "$TMP/lm_$1_t$2.log" > "$TMP/results_$1_t$2.txt"
  [[ -s "$TMP/results_$1_t$2.txt" ]] || {
    echo "simd_smoke: $1 large_market emitted no result: lines (t=$2)" >&2
    exit 1
  }
  SPECMATCH_SIMD="$1" SPECMATCH_THREADS="$2" \
    "$CLI" serve "$REQ" --out "$TMP/serve_$1_t$2.out" 2>/dev/null
}

status=0
for t in 1 4; do
  run scalar "$t"
  run avx2 "$t"
  if ! diff -u "$TMP/results_scalar_t$t.txt" "$TMP/results_avx2_t$t.txt" >&2
  then
    echo "simd_smoke: large_market result: transcript differs (threads=$t)" >&2
    status=1
  fi
  if ! cmp -s "$TMP/serve_scalar_t$t.out" "$TMP/serve_avx2_t$t.out"; then
    echo "simd_smoke: serve transcript differs (threads=$t)" >&2
    diff "$TMP/serve_scalar_t$t.out" "$TMP/serve_avx2_t$t.out" >&2 || true
    status=1
  fi
done

[[ "$status" -eq 0 ]] &&
  echo "simd_smoke OK: result: transcripts and serve transcripts identical" \
       "across tiers {scalar avx2} x threads {1,4}"
exit "$status"
