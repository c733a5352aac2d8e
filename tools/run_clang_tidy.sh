#!/usr/bin/env bash
# clang-tidy + clang-query runner for vmstorm.
#
# Usage:
#   tools/run_clang_tidy.sh [--strict] [--build-dir DIR] [FILE...]
#
# With no FILE arguments, lints the gated libraries (src/common, src/blob,
# src/sim). Uses the compile-commands database from the build tree
# (configured automatically if missing). Two phases:
#   1. clang-tidy with the repo .clang-tidy config.
#   2. clang-query with the AST matchers under tools/clang_query/*.cq
#      (coroutine-lambda captures through named lambdas — a shape vmlint's
#      token rules cannot see). Any match fails the run.
# Binaries are looked up under plain and versioned names. A missing
# clang-tidy without --strict is a skip (exit 0); a missing clang-query is
# always a warn+skip (vmlint remains the enforced gate for those shapes) —
# but matcher files that fail to parse, or that match, fail the run.
set -u -o pipefail

cd "$(dirname "$0")/.."

STRICT=0
BUILD_DIR=build
FILES=()
while [ $# -gt 0 ]; do
  case "$1" in
    --strict) STRICT=1 ;;
    --build-dir) shift; BUILD_DIR="$1" ;;
    -h|--help) sed -n '2,17p' "$0"; exit 0 ;;
    *) FILES+=("$1") ;;
  esac
  shift
done

TIDY=""
for candidate in clang-tidy clang-tidy-{21,20,19,18,17,16,15,14}; do
  if command -v "$candidate" >/dev/null 2>&1; then
    TIDY="$candidate"
    break
  fi
done
QUERY=""
for candidate in clang-query clang-query-{21,20,19,18,17,16,15,14}; do
  if command -v "$candidate" >/dev/null 2>&1; then
    QUERY="$candidate"
    break
  fi
done
if [ -z "$TIDY" ]; then
  if [ "$STRICT" = 1 ]; then
    echo "run_clang_tidy: clang-tidy not found (strict mode)" >&2
    exit 1
  fi
  echo "run_clang_tidy: clang-tidy not found; tidy phase SKIPPED (install" \
       "clang-tidy, or rely on CI which runs it strictly)" >&2
fi
if [ -z "$QUERY" ]; then
  echo "run_clang_tidy: clang-query not found; query phase SKIPPED" \
       "(vmlint's coro-capture token rule remains the enforced gate)" >&2
fi
if [ -z "$TIDY" ] && [ -z "$QUERY" ]; then
  exit 0
fi

if [ ! -f "$BUILD_DIR/compile_commands.json" ]; then
  echo "run_clang_tidy: configuring $BUILD_DIR for compile_commands.json" >&2
  cmake -B "$BUILD_DIR" -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null || exit 1
fi

if [ "${#FILES[@]}" -eq 0 ]; then
  # The gated set: libraries that must stay tidy-clean (see ISSUE/DESIGN).
  while IFS= read -r f; do
    FILES+=("$f")
  done < <(find src/common src/blob src/sim -name '*.cpp' | sort)
fi

status=0
if [ -n "$TIDY" ]; then
  echo "run_clang_tidy: $TIDY over ${#FILES[@]} file(s) (db: $BUILD_DIR)" >&2
  if [ "$STRICT" = 1 ]; then
    # Strict (CI) mode: keep the full diagnostics and follow them with a
    # per-check finding count so a failing job names the offending checks
    # without scrolling the log.
    OUT=$(mktemp)
    trap 'rm -f "$OUT"' EXIT
    "$TIDY" -p "$BUILD_DIR" --quiet "${FILES[@]}" | tee "$OUT"
    status=${PIPESTATUS[0]}
    echo "run_clang_tidy: findings by check:" >&2
    grep -oE '\[[a-z][a-z0-9.-]*\]$' "$OUT" | sort | uniq -c | sort -rn >&2 \
      || echo "  (none)" >&2
  else
    "$TIDY" -p "$BUILD_DIR" --quiet "${FILES[@]}"
    status=$?
  fi
fi

# Query phase: each matcher file under tools/clang_query/ must produce zero
# matches. A matcher that fails to load (parse error, bad compile db) is a
# hard failure — silently green matchers are worse than none.
if [ -n "$QUERY" ]; then
  QOUT=$(mktemp)
  trap 'rm -f "$QOUT"' EXIT
  for cq in tools/clang_query/*.cq; do
    [ -e "$cq" ] || continue
    echo "run_clang_tidy: $QUERY -f $cq over ${#FILES[@]} file(s)" >&2
    if ! "$QUERY" -p "$BUILD_DIR" -f "$cq" "${FILES[@]}" >"$QOUT" 2>&1; then
      echo "run_clang_tidy: clang-query failed on $cq:" >&2
      cat "$QOUT" >&2
      status=1
      continue
    fi
    matches=$(grep -c '^Match #' "$QOUT" || true)
    if [ "${matches:-0}" -gt 0 ]; then
      echo "run_clang_tidy: $matches match(es) from $cq:" >&2
      cat "$QOUT"
      status=1
    fi
  done
fi

if [ $status -eq 0 ]; then
  echo "run_clang_tidy: OK" >&2
fi
exit $status
