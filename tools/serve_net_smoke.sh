#!/usr/bin/env bash
# serve_net_smoke: pins the networked serving contract (docs/PROTOCOL.md).
#
# Replays tools/serve_smoke.req against `specmatch_cli serve --listen` over
# 1 and 8 concurrent connections at drain-lane counts {1, 4}, and requires
# every TCP transcript to be byte-identical to the in-process
# `specmatch_cli serve FILE` transcript — the tentpole bit-for-bit
# guarantee. Also checks that SIGTERM drains gracefully: the server must
# exit 0 having answered everything (requests == responses in its final
# stats line), never dropping an accepted request.
#
# Usage: serve_net_smoke.sh <path-to-specmatch_cli> <tools-dir>
set -euo pipefail

CLI="$1"
HERE="$2"
REQ="$HERE/serve_smoke.req"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"; [[ -n "${SRV_PID:-}" ]] && kill "$SRV_PID" 2>/dev/null || true' EXIT

# The reference transcript: the in-process replay path.
"$CLI" serve "$REQ" --out "$TMP/ref.out" 2>/dev/null

wait_for_port() { # <port-file>
  for _ in $(seq 1 200); do
    [[ -s "$1" ]] && return 0
    sleep 0.05
  done
  echo "FAIL: server never wrote its port file" >&2
  exit 1
}

for threads in 1 4; do
  for conns in 1 8; do
    tag="t${threads}_c${conns}"
    rm -f "$TMP/port"
    SPECMATCH_THREADS="$threads" \
      "$CLI" serve --listen 0 --port-file "$TMP/port" 2>"$TMP/$tag.err" &
    SRV_PID=$!
    wait_for_port "$TMP/port"
    port="$(cat "$TMP/port")"

    "$CLI" serve "$REQ" --connect "$port" --conns "$conns" \
      --out "$TMP/$tag.out" 2>"$TMP/$tag.client.err"

    kill -TERM "$SRV_PID"
    if ! wait "$SRV_PID"; then
      echo "FAIL: $tag server exited nonzero after SIGTERM:" >&2
      cat "$TMP/$tag.err" >&2
      exit 1
    fi
    SRV_PID=""

    if ! cmp -s "$TMP/ref.out" "$TMP/$tag.out"; then
      echo "FAIL: $tag TCP transcript diverged from the in-process path:" >&2
      diff "$TMP/ref.out" "$TMP/$tag.out" >&2 || true
      exit 1
    fi

    # Graceful drain: every parsed request was answered.
    reqs="$(sed -nE 's/.* requests=([0-9]+) .*/\1/p' "$TMP/$tag.err" | head -1)"
    resps="$(sed -nE 's/.* responses=([0-9]+) .*/\1/p' "$TMP/$tag.err" | head -1)"
    if [[ -z "$reqs" || "$reqs" != "$resps" ]]; then
      echo "FAIL: $tag drain lost requests (requests=$reqs responses=$resps):" >&2
      cat "$TMP/$tag.err" >&2
      exit 1
    fi
  done
done

echo "serve_net_smoke OK: transcripts identical to in-process at threads {1,4} x conns {1,8}"
