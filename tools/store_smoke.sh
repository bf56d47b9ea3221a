#!/usr/bin/env bash
# store_smoke: end-to-end contract of the persistent market store
# (docs/PERSISTENCE.md):
#
#   * snapshot + cold boot: a server booted cold against the snapshot
#     directory (no create requests) answers a request suffix byte-identically
#     to the continuously running server that wrote the snapshots, at
#     SPECMATCH_THREADS 1 vs 4;
#   * memory-capped spill/fault-back: under SPECMATCH_SERVE_MEM_MB=1 the
#     same workload answers byte-identically to the uncapped run, with
#     spills > 0 and discarded=0 (nothing is ever lost while the store is on).
#
# Usage: store_smoke.sh <path-to-specmatch_cli> <tools-dir>
set -euo pipefail

CLI="$1"
HERE="$2"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

# --- build the workload: 8 markets big enough that they cannot all fit in a
# 1 MB budget, each created, solved, and snapshotted; then a suffix of
# queries and warm solves that never creates anything. `stats` is absent on
# purpose: its registry-wide tail (faults, disk bytes) legitimately differs
# between a warm server and a cold-booted one.
PHASE1="$TMP/phase1.req"
PHASE2="$TMP/phase2.req"
: > "$PHASE1"
for k in 0 1 2 3 4 5 6 7; do
  "$CLI" generate --sellers 8 --buyers 300 --seed $((100 + k)) \
    --out "$TMP/scn$k.txt" > /dev/null
  echo "create m$k" >> "$PHASE1"
  cat "$TMP/scn$k.txt" >> "$PHASE1"
  echo "solve m$k cold" >> "$PHASE1"
  echo "price m$k $k 0 2.5" >> "$PHASE1"
  echo "solve m$k warm" >> "$PHASE1"
  echo "snapshot m$k" >> "$PHASE1"
done
: > "$PHASE2"
for k in 0 1 2 3 4 5 6 7; do
  echo "query m$k" >> "$PHASE2"
  echo "solve m$k warm" >> "$PHASE2"
  echo "restore m$k" >> "$PHASE2"
done
PHASE2_LINES=$(grep -c . "$PHASE2")

run() { # <threads> <mem-mb> <store-dir> <req> <out> <err>
  SPECMATCH_THREADS="$1" SPECMATCH_SERVE_MEM_MB="$2" \
    "$CLI" serve "$4" --store "$3" --out "$5" 2>"$6"
}

# --- leg 1: snapshot + cold boot -------------------------------------------
# Continuous run: phase 1 and phase 2 in one server lifetime.
cat "$PHASE1" "$PHASE2" > "$TMP/both.req"
run 1 4096 "$TMP/warm_store" "$TMP/both.req" "$TMP/warm.out" "$TMP/warm.err"
tail -n "$PHASE2_LINES" "$TMP/warm.out" > "$TMP/warm_tail.out"

# Cold boots: fresh processes against the snapshot dir phase 1 populated.
# `restore m*` must answer faulted=0 on the warm server (still resident) —
# so phase 2's transcript can only match if the cold server faults every
# market in via the *first* touch (the query), not the restore.
for threads in 1 4; do
  run "$threads" 4096 "$TMP/warm_store" "$PHASE2" \
    "$TMP/cold_t$threads.out" "$TMP/cold_t$threads.err"
  if ! cmp -s "$TMP/warm_tail.out" "$TMP/cold_t$threads.out"; then
    echo "FAIL: cold boot transcript (threads=$threads) diverged:" >&2
    diff "$TMP/warm_tail.out" "$TMP/cold_t$threads.out" >&2 || true
    exit 1
  fi
done

# --- leg 2: memory-capped spill / fault-back --------------------------------
# The capped run evicts (spilling) and faults back throughout; market content
# — solves, queries, prices, snapshot byte counts — must not change. Only the
# evicted=/faulted= bookkeeping fields may differ, so they are stripped
# before the compare.
run 1 4096 "$TMP/uncapped_store" "$TMP/both.req" \
  "$TMP/uncapped.out" "$TMP/uncapped.err"
run 1 1 "$TMP/capped_store" "$TMP/both.req" \
  "$TMP/capped.out" "$TMP/capped.err"
strip_bookkeeping() { sed -E 's/ (evicted|faulted)=[0-9]+//g' "$1"; }
if ! cmp -s <(strip_bookkeeping "$TMP/uncapped.out") \
            <(strip_bookkeeping "$TMP/capped.out"); then
  echo "FAIL: memory-capped transcript diverged from uncapped:" >&2
  diff <(strip_bookkeeping "$TMP/uncapped.out") \
       <(strip_bookkeeping "$TMP/capped.out") >&2 || true
  exit 1
fi

fail() { echo "FAIL: $1" >&2; cat "$TMP/capped.err" >&2; exit 1; }
grep -q 'discarded=0' "$TMP/capped.err" || fail "capped run discarded markets"
grep -Eq 'spills=[1-9]' "$TMP/capped.err" || fail "capped run never spilled"
grep -Eq 'faults=[1-9]' "$TMP/capped.err" || fail "capped run never faulted"
if grep -q '^err ' "$TMP/capped.out"; then fail "unexpected err response"; fi

echo "store_smoke OK: cold boot identical at threads {1,4};" \
  "capped run spilled/faulted with zero discards"
