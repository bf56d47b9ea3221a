#!/usr/bin/env bash
# simd_smoke: end-to-end SIMD tier-equivalence gate (the simd_equivalence
# ctest). For every dispatch tier this CPU supports (probed via
# micro_kernels --probe) at SPECMATCH_THREADS 1 and 4:
#
#   * the large_market smoke sweep's deterministic `result:` transcript must
#     be byte-identical to the scalar-forced run — matchings, rounds,
#     welfare, and component counts cannot depend on SPECMATCH_SIMD;
#   * the `specmatch_cli serve` transcript over tools/serve_smoke.req must
#     be byte-identical to the scalar-forced transcript.
#
# Exits 77 (ctest SKIP_RETURN_CODE) when the probe lists only `scalar`:
# there is no second tier to compare, so passing would say nothing.
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
if ! grep -qvx -e 'scalar' -e '' <<< "$tiers"; then
  echo "simd_smoke: SKIP: only the scalar tier is available on this CPU"
  exit 77
fi

# Scalar baselines, one per thread count.
for t in 1 4; do
  SPECMATCH_SIMD=scalar SPECMATCH_THREADS="$t" \
    SPECMATCH_BENCH_JSON="$TMP/scale_scalar_t$t.json" \
    "$BENCHDIR/large_market" > "$TMP/lm_scalar_t$t.log" 2>&1
  grep '^result:' "$TMP/lm_scalar_t$t.log" > "$TMP/results_scalar_t$t.txt"
  [[ -s "$TMP/results_scalar_t$t.txt" ]] || {
    echo "simd_smoke: scalar large_market emitted no result: lines (t=$t)" >&2
    exit 1
  }
  SPECMATCH_SIMD=scalar SPECMATCH_THREADS="$t" SPECMATCH_SERVE_THREADS="$t" \
    "$CLI" serve "$REQ" --out "$TMP/serve_scalar_t$t.out" 2>/dev/null
done

status=0
for tier in $tiers; do
  [[ "$tier" == "scalar" ]] && continue
  for t in 1 4; do
    SPECMATCH_SIMD="$tier" SPECMATCH_THREADS="$t" \
      SPECMATCH_BENCH_JSON="$TMP/scale_${tier}_t$t.json" \
      "$BENCHDIR/large_market" > "$TMP/lm_${tier}_t$t.log" 2>&1
    grep '^result:' "$TMP/lm_${tier}_t$t.log" > "$TMP/results_${tier}_t$t.txt"
    if ! diff -u "$TMP/results_scalar_t$t.txt" \
                 "$TMP/results_${tier}_t$t.txt" >&2; then
      echo "simd_smoke: large_market result: transcript differs" \
           "(tier=$tier threads=$t)" >&2
      status=1
    fi
    SPECMATCH_SIMD="$tier" SPECMATCH_THREADS="$t" \
      SPECMATCH_SERVE_THREADS="$t" \
      "$CLI" serve "$REQ" --out "$TMP/serve_${tier}_t$t.out" 2>/dev/null
    if ! cmp -s "$TMP/serve_scalar_t$t.out" "$TMP/serve_${tier}_t$t.out"; then
      echo "simd_smoke: serve transcript differs (tier=$tier threads=$t)" >&2
      diff "$TMP/serve_scalar_t$t.out" "$TMP/serve_${tier}_t$t.out" >&2 || true
      status=1
    fi
  done
done

[[ "$status" -eq 0 ]] &&
  echo "simd_smoke OK: result: transcripts and serve transcripts identical" \
       "across tiers {$(echo "$tiers" | tr '\n' ' ')} x threads {1,4}"
exit "$status"
