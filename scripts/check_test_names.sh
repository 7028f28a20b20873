#!/bin/sh
# Test-name stability gate: lists every gtest binary under BUILD/tests
# three times and fails if any listing differs.  ctest names come from
# these listings, and gtest prints a parameter without a PrintTo as its
# raw bytes, so uninitialised padding in a parameter struct renames
# tests from run to run.
#
# Usage: scripts/check_test_names.sh [build-dir]
set -eu

BUILD="${1:-build}"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

STATUS=0
COUNT=0
for BIN in "$BUILD"/tests/*; do
  [ -f "$BIN" ] && [ -x "$BIN" ] || continue
  NAME="$(basename "$BIN")"
  for RUN in 1 2 3; do
    "$BIN" --gtest_list_tests > "$TMP/$NAME.$RUN"
  done
  COUNT=$((COUNT + 1))
  if ! cmp -s "$TMP/$NAME.1" "$TMP/$NAME.2" ||
     ! cmp -s "$TMP/$NAME.1" "$TMP/$NAME.3"; then
    echo "error: $NAME lists different test names from run to run:" >&2
    diff "$TMP/$NAME.1" "$TMP/$NAME.2" | head -10 >&2 || true
    STATUS=1
  fi
done
if [ "$COUNT" -eq 0 ]; then
  echo "error: no test binaries under $BUILD/tests" >&2
  exit 1
fi
[ "$STATUS" -eq 0 ] && echo "test names stable across 3 listings ($COUNT binaries)"
exit "$STATUS"
