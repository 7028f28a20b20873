#!/bin/sh
# Mutation check: every scripts/mutants/NN-name.patch is a deliberately
# broken change that the tests its header names must catch.  Each patch
# is applied in turn to a temporary git worktree of HEAD, only the named
# test targets are rebuilt (incrementally, in one build tree shared by
# all mutants), and the named gtest filter is run:
#
#   Expect: killed       the filter must fail on the mutant (default);
#   Expect: equivalent   the mutant keeps every bit, and the filter must
#                        still pass (the header says why).
#
# Before any mutant, the clean worktree builds every named target and
# each filter must pass and match at least one test, so a kill always
# means the mutant was caught, never that the test was already broken.
# A patch that no longer applies fails the check: a refactor that moves
# the mutated code has to re-express its mutants.
#
# Patch header (plain text before the first "diff --git" line, which
# git apply ignores):
#
#   Mutant:  one line saying what the patch breaks
#   Targets: KernelsTest [OtherTest ...]   (test executables under tests/)
#   Filter:  Kernels.StageUpdateBrokenStates   (a --gtest_filter)
#   Expect:  killed | equivalent
#
# BUILD is a configured build tree whose CMAKE_BUILD_TYPE and
# CMAKE_CXX_FLAGS the mutant builds reuse (scripts/ci.sh passes its
# Release tree).  The worktree and its build tree live under a temp dir
# and are removed on exit.
#
# Usage: scripts/mutation_check.sh BUILD [jobs]
set -eu

BUILD="${1:?usage: scripts/mutation_check.sh BUILD [jobs]}"
JOBS="${2:-$(nproc 2>/dev/null || echo 4)}"
cd "$(dirname "$0")/.."
ROOT="$(pwd)"
CACHE="$BUILD/CMakeCache.txt"
if [ ! -f "$CACHE" ]; then
  echo "error: $CACHE not found; configure BUILD first" >&2
  exit 1
fi
cache_value() { sed -n "s/^$1:[A-Z]*=//p" "$CACHE" | head -n 1; }
BUILD_TYPE="$(cache_value CMAKE_BUILD_TYPE)"
CXX_FLAGS="$(cache_value CMAKE_CXX_FLAGS)"

PATCHES="$(ls scripts/mutants/*.patch 2>/dev/null || true)"
if [ -z "$PATCHES" ]; then
  echo "error: no mutants under scripts/mutants" >&2
  exit 1
fi

TMP="$(mktemp -d)"
WT="$TMP/src"
WB="$TMP/build"
cleanup() {
  git -C "$ROOT" worktree remove --force "$WT" 2>/dev/null || true
  git -C "$ROOT" worktree prune
  rm -rf "$TMP"
}
trap cleanup EXIT
trap 'exit 130' INT TERM

header() { sed -n "/^diff --git/q; s/^$1: *//p" "$2" | head -n 1; }

# Runs the gtest filter $2 over the targets $1 in the worktree build.
# \returns 0 when every binary passes and the filter matched some test.
run_filter() {
  MATCHED=0
  for T in $1; do
    N="$("$WB/tests/$T" --gtest_list_tests --gtest_filter="$2" |
         grep -c '^  ' || true)"
    MATCHED=$((MATCHED + N))
    "$WB/tests/$T" --gtest_filter="$2" > "$TMP/run.log" 2>&1 || return 1
  done
  [ "$MATCHED" -gt 0 ] || return 2
  return 0
}

git worktree add --detach --quiet "$WT" HEAD
echo "configuring mutant build tree (${BUILD_TYPE:-default type}) under $TMP"
cmake -S "$WT" -B "$WB" -DCMAKE_BUILD_TYPE="$BUILD_TYPE" \
    -DCMAKE_CXX_FLAGS="$CXX_FLAGS" > "$TMP/configure.log" 2>&1 ||
  { tail -n 30 "$TMP/configure.log" >&2; echo "error: configure failed" >&2; exit 1; }

STATUS=0
ALL_TARGETS=""
for PATCH in $PATCHES; do
  TARGETS="$(header Targets "$PATCH")"
  if [ -z "$TARGETS" ] || [ -z "$(header Filter "$PATCH")" ]; then
    echo "error: $PATCH: header lacks Targets: or Filter:" >&2
    exit 1
  fi
  ALL_TARGETS="$ALL_TARGETS $TARGETS"
done
ALL_TARGETS="$(echo $ALL_TARGETS | tr ' ' '\n' | sort -u | tr '\n' ' ')"

echo "== clean tree: $ALL_TARGETS=="
cmake --build "$WB" -j "$JOBS" --target $ALL_TARGETS > "$TMP/build.log" 2>&1 ||
  { tail -n 30 "$TMP/build.log" >&2; echo "error: clean tree does not build" >&2; exit 1; }
for PATCH in $PATCHES; do
  FILTER="$(header Filter "$PATCH")"
  if run_filter "$(header Targets "$PATCH")" "$FILTER"; then
    echo "ok   clean tree passes $FILTER"
  else
    echo "FAIL clean tree: $FILTER fails or matches no test" >&2
    exit 1
  fi
done

for PATCH in $PATCHES; do
  NAME="$(basename "$PATCH" .patch)"
  TARGETS="$(header Targets "$PATCH")"
  FILTER="$(header Filter "$PATCH")"
  EXPECT="$(header Expect "$PATCH")"
  EXPECT="${EXPECT:-killed}"
  echo "== $NAME: $(header Mutant "$PATCH")"
  if ! git -C "$WT" apply "$ROOT/$PATCH"; then
    echo "FAIL $NAME: patch no longer applies to HEAD" >&2
    STATUS=1
    continue
  fi
  if ! cmake --build "$WB" -j "$JOBS" --target $TARGETS \
      > "$TMP/build.log" 2>&1; then
    tail -n 30 "$TMP/build.log" >&2
    echo "FAIL $NAME: mutant does not build" >&2
    STATUS=1
  else
    if run_filter "$TARGETS" "$FILTER"; then RESULT=survived; else RESULT=killed; fi
    case "$EXPECT" in
      killed) WANT=killed ;;
      equivalent) WANT=survived ;;
      *) echo "FAIL $NAME: unknown Expect: $EXPECT" >&2; WANT=none ;;
    esac
    if [ "$RESULT" = "$WANT" ]; then
      echo "ok   $NAME $RESULT by $FILTER"
    else
      echo "FAIL $NAME $RESULT by $FILTER (expected $EXPECT)" >&2
      STATUS=1
    fi
  fi
  git -C "$WT" checkout --quiet -- .
done

[ "$STATUS" -eq 0 ] && echo "mutation check passed ($(echo $PATCHES | wc -w) mutants)"
exit "$STATUS"
