#!/usr/bin/env bash
# serve_smoke: replays tools/serve_smoke.req through `specmatch_cli serve`
# and pins the serving determinism contract (docs/SERVING.md):
#
#   * transcripts are byte-identical across repeated runs AND across
#     SPECMATCH_THREADS 1 vs 4;
#   * the serial steady state allocates nothing (SPECMATCH_COUNT_ALLOCS=1,
#     asserted via the CLI's stderr summary);
#   * warm fallback, semantic errors, and solve responses all appear.
#
# Usage: serve_smoke.sh <path-to-specmatch_cli> <tools-dir>
set -euo pipefail

CLI="$1"
HERE="$2"
REQ="$HERE/serve_smoke.req"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

run() { # <threads> <out> <err>
  SPECMATCH_THREADS="$1" SPECMATCH_COUNT_ALLOCS=1 \
    "$CLI" serve "$REQ" --out "$2" 2>"$3"
}

run 1 "$TMP/t1a.out" "$TMP/t1a.err"
run 1 "$TMP/t1b.out" "$TMP/t1b.err"
run 4 "$TMP/t4a.out" "$TMP/t4a.err"
run 4 "$TMP/t4b.out" "$TMP/t4b.err"

for variant in t1b t4a t4b; do
  if ! cmp -s "$TMP/t1a.out" "$TMP/$variant.out"; then
    echo "FAIL: transcript $variant diverged from t1a:" >&2
    diff "$TMP/t1a.out" "$TMP/$variant.out" >&2 || true
    exit 1
  fi
done

fail() { echo "FAIL: $1" >&2; cat "$TMP/t1a.out" >&2; exit 1; }
grep -q '^ok solve a cold'  "$TMP/t1a.out" || fail "missing cold solve response"
grep -q '^ok solve a warm'  "$TMP/t1a.out" || fail "missing warm solve response"
grep -q 'fallback=cold'     "$TMP/t1a.out" || fail "missing warm fallback marker"
grep -q '^err '             "$TMP/t1a.out" || fail "missing semantic error response"

# The serial replay must be allocation-free in steady state.
grep -q 'steady_allocs=0' "$TMP/t1a.err" || {
  echo "FAIL: nonzero steady-state allocations:" >&2
  cat "$TMP/t1a.err" >&2
  exit 1
}

echo "serve_smoke OK: $(wc -l < "$TMP/t1a.out") responses, transcripts identical at threads {1,4}"
