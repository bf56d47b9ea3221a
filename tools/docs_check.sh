#!/usr/bin/env bash
# Documentation consistency check (registered as the docs_check ctest).
#
# 1. Every intra-repo markdown link in the checked docs must resolve to an
#    existing file (anchors and external URLs are skipped).
# 2. Every SPECMATCH_* token mentioned in the checked docs, or in the
#    scripts and CMake files that set knobs for tests and bench legs, must
#    be a knob registered in src/common/config.* (known_env_knobs), so docs,
#    harnesses and code cannot drift apart: a leftover setting of a removed
#    knob fails here instead of silently doing nothing. The checking macros
#    (SPECMATCH_CHECK etc.) are code identifiers, not env knobs, and are
#    whitelisted.
# 3. Every wire-protocol verb the server implements (the request_keyword
#    switch in src/serve/protocol.cpp) must be documented in
#    docs/PROTOCOL.md, so the protocol spec cannot silently fall behind the
#    implementation.
# 4. Every `stats` response tail key (the kStatsTailKeys registry between
#    the stats-tail-keys markers in src/serve/protocol.cpp) must be
#    documented in docs/SERVING.md.
# 5. The reverse of 2: every knob registered in known_env_knobs() must be
#    read by code in src/, bench/, tools/ or examples/ (its name as a quoted
#    string outside the registry entry), so a removed knob cannot stay
#    listed. SPECMATCH_SANITIZE is a CMake option and is exempt.
#
# Usage: tools/docs_check.sh [repo_root]
set -uo pipefail

repo_root="${1:-$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)}"
cd "$repo_root"

docs=(README.md EXPERIMENTS.md DESIGN.md docs/*.md)
knob_setters=(tools/*.sh tools/CMakeLists.txt tests/CMakeLists.txt
              bench/CMakeLists.txt)
config_files=(src/common/config.hpp src/common/config.cpp)
macro_whitelist='SPECMATCH_CHECK|SPECMATCH_CHECK_MSG|SPECMATCH_DCHECK'

status=0

# ---- 1. Intra-repo links resolve -------------------------------------------
for doc in "${docs[@]}"; do
  [[ -f "$doc" ]] || { echo "docs_check: MISSING doc $doc" >&2; status=1; continue; }
  doc_dir="$(dirname "$doc")"
  # Inline markdown links: [text](target). One per line via grep -o.
  while IFS= read -r target; do
    case "$target" in
      http://*|https://*|mailto:*|\#*) continue ;;
    esac
    path="${target%%#*}"         # drop any #anchor
    [[ -n "$path" ]] || continue
    # Relative to the doc's own directory, like a markdown renderer.
    if [[ ! -e "$doc_dir/$path" && ! -e "$path" ]]; then
      echo "docs_check: BROKEN LINK in $doc -> $target" >&2
      status=1
    fi
  done < <(grep -oE '\]\(([^)]+)\)' "$doc" | sed -E 's/^\]\((.*)\)$/\1/')
done

# ---- 2. SPECMATCH_* tokens in docs and knob setters are registered knobs ----
known="$(grep -ohE 'SPECMATCH_[A-Z_]+' "${config_files[@]}" | sort -u)"
for doc in "${docs[@]}" "${knob_setters[@]}"; do
  [[ -f "$doc" ]] || { echo "docs_check: MISSING $doc" >&2; status=1; continue; }
  while IFS= read -r token; do
    [[ "$token" =~ ^($macro_whitelist)$ ]] && continue
    if ! grep -qx "$token" <<< "$known"; then
      echo "docs_check: $doc mentions $token, not registered in src/common/config.*" >&2
      status=1
    fi
  done < <(grep -ohE 'SPECMATCH_[A-Z_]+' "$doc" | sort -u)
done

# ---- 3. Every protocol verb appears in docs/PROTOCOL.md ---------------------
protocol_src=src/serve/protocol.cpp
protocol_doc=docs/PROTOCOL.md
if [[ ! -f "$protocol_doc" ]]; then
  echo "docs_check: MISSING $protocol_doc" >&2
  status=1
else
  # The verbs are the string literals returned by request_keyword().
  verbs="$(sed -n '/request_keyword/,/^}/p' "$protocol_src" \
           | grep -oE 'return "[a-z]+"' | grep -oE '"[a-z]+"' | tr -d '"' \
           | sort -u)"
  if [[ -z "$verbs" ]]; then
    echo "docs_check: no verbs extracted from $protocol_src (request_keyword moved?)" >&2
    status=1
  fi
  for verb in $verbs; do
    if ! grep -qE "(^|[\` ])$verb([\` ]|$)" "$protocol_doc"; then
      echo "docs_check: verb '$verb' ($protocol_src) undocumented in $protocol_doc" >&2
      status=1
    fi
  done
fi

# ---- 4. Every stats tail key appears in docs/SERVING.md ---------------------
serving_doc=docs/SERVING.md
if [[ ! -f "$serving_doc" ]]; then
  echo "docs_check: MISSING $serving_doc" >&2
  status=1
else
  keys="$(sed -n '/stats-tail-keys-begin/,/stats-tail-keys-end/p' \
              "$protocol_src" \
          | grep -oE '"[a-z_]+"' | tr -d '"')"
  if [[ -z "$keys" ]]; then
    echo "docs_check: no stats tail keys extracted from $protocol_src (markers moved?)" >&2
    status=1
  fi
  for key in $keys; do
    if ! grep -qE "(^|[\`| ])$key(=|\`)" "$serving_doc"; then
      echo "docs_check: stats key '$key' ($protocol_src) undocumented in $serving_doc" >&2
      status=1
    fi
  done
fi

# ---- 5. Every registered knob is read by code ------------------------------
registry=src/common/config.cpp
knobs="$(grep -oE '\{"SPECMATCH_[A-Z_]+"' "$registry" | tr -d '{"' | sort -u)"
if [[ -z "$knobs" ]]; then
  echo "docs_check: no knobs extracted from $registry (registry moved?)" >&2
  status=1
fi
for knob in $knobs; do
  [[ "$knob" == SPECMATCH_SANITIZE ]] && continue
  if ! grep -rhF "\"$knob\"" src bench tools examples \
       | grep -vF "{\"$knob\"" | grep -q .; then
    echo "docs_check: $knob is registered in $registry but read nowhere" \
         "in src/ bench/ tools/ examples/" >&2
    status=1
  fi
done

if [[ "$status" -eq 0 ]]; then
  echo "docs_check: OK (${#docs[@]} docs, ${#knob_setters[@]} knob setters checked)"
fi
exit "$status"
