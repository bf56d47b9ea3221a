#!/usr/bin/env bash
# cli_flags_smoke: `specmatch_cli` numeric flags must parse as whole tokens.
# A value with trailing junk ("5x", "1.5q") or no number at all ("abc") must
# fail through usage() with exit 2 and name the flag on stderr, never run
# with a truncated value. Only `generate` is exercised: a bad `serve
# --listen` that slipped through would start a server.
#
# Usage: cli_flags_smoke.sh <path-to-specmatch_cli>
set -uo pipefail

CLI="$1"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

status=0
check() { # <flag> <value>
  "$CLI" generate --sellers 2 "$1" "$2" --out "$TMP/out.scn" \
    > /dev/null 2> "$TMP/err"
  local code=$?
  if [[ "$code" -ne 2 ]]; then
    echo "cli_flags_smoke: generate $1 $2 exited $code, want 2" >&2
    status=1
  elif ! grep -qF -- "$1" "$TMP/err"; then
    echo "cli_flags_smoke: generate $1 $2: stderr does not name $1:" >&2
    cat "$TMP/err" >&2
    status=1
  fi
  if [[ -e "$TMP/out.scn" ]]; then
    echo "cli_flags_smoke: generate $1 $2 wrote a scenario" >&2
    rm -f "$TMP/out.scn"
    status=1
  fi
}

check --buyers 5x
check --buyers abc
check --max-range 1.5q

[[ "$status" -eq 0 ]] && echo "cli_flags_smoke OK: junk numeric flags exit 2"
exit "$status"
