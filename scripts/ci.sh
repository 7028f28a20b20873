#!/bin/sh
# Local mirror of the CI matrix: build Debug, Release and asan and run
# the labeled test tiers (see tests/CMakeLists.txt):
#
#   Debug    unit + property + smoke + scenario  (fast correctness on
#            every build, including the pinned workload-gallery matrix)
#   Release  everything, including the "slow" tier — the determinism
#            matrix and the closed-box conservation regression
#   asan     Debug with AddressSanitizer + UndefinedBehaviorSanitizer
#            (any report is fatal) and libstdc++ assertions: unit +
#            scenario, which covers the shard fork/rewind paths, plus the
#            determinism matrix, which drives every engine's flux sweeps
#            (shifted kernel views, reallocating line scratch) on every
#            backend and tiling
#   tsan     RelWithDebInfo with ThreadSanitizer (halt on the first
#            report): the determinism matrix, i.e. every backend's
#            parallel loops and reductions at 1-8 workers, then the
#            HealthScan tests (the interior health pass's per-slab
#            partials on every backend) and the Boundary tests (the
#            one-region ghost fill's slab writers on every backend).  The
#            OpenMP backend stays out: libgomp is not instrumented.
#
# Last, the slow mutation suite: each scripts/mutants/*.patch must be
# killed by the tests its header names (scripts/mutation_check.sh).
#
# The guard subsystem must detect and recover from breakdowns in both
# build types, so neither configuration is optional.  After the Release
# run, a small guarded+instrumented smoke run emits a telemetry JSON
# report under artifacts/ for CI upload.
#
# Usage: scripts/ci.sh [jobs]
set -eu

JOBS="${1:-$(nproc 2>/dev/null || echo 4)}"
cd "$(dirname "$0")/.."

echo "== tracked-tree hygiene =="
# Build trees are generated; a tracked build*/ path means someone
# committed one (the .gitignore build*/ rule only covers new files).
TRACKED_BUILD="$(git ls-files -- 'build*' | head -5)"
if [ -n "$TRACKED_BUILD" ]; then
  echo "error: generated build tree files are git-tracked:" >&2
  echo "$TRACKED_BUILD" >&2
  exit 1
fi

SANITIZE="-fsanitize=address,undefined -fno-sanitize-recover=all"
SANITIZE="$SANITIZE -fno-omit-frame-pointer -D_GLIBCXX_ASSERTIONS"
for TYPE in Debug Release asan tsan; do
  BUILD="build-ci-$TYPE"
  echo "== $TYPE =="
  case "$TYPE" in
    asan)
      cmake -B "$BUILD" -S . -DCMAKE_BUILD_TYPE=Debug \
          -DCMAKE_CXX_FLAGS="$SANITIZE" ;;
    tsan)
      cmake -B "$BUILD" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
          -DCMAKE_CXX_FLAGS="-fsanitize=thread -fno-omit-frame-pointer" ;;
    *) cmake -B "$BUILD" -S . -DCMAKE_BUILD_TYPE="$TYPE" ;;
  esac
  cmake --build "$BUILD" -j "$JOBS"
  case "$TYPE" in
    Debug) LABELS='unit|property|smoke|scenario' ;;
    asan) LABELS='unit|scenario|determinism' ;;
    tsan) LABELS='determinism' ;;
    *) LABELS='' ;;
  esac
  (cd "$BUILD" && TSAN_OPTIONS=halt_on_error=1 \
      ctest --output-on-failure -j "$JOBS" ${LABELS:+-L "$LABELS"})
  if [ "$TYPE" = tsan ]; then
    (cd "$BUILD" && TSAN_OPTIONS=halt_on_error=1 \
        ctest --output-on-failure -j "$JOBS" -R '^HealthScan\.|^Boundary')
  fi
done

echo "== test-name stability =="
# ctest names embed gtest's parameter dump, so a name that changes from
# run to run breaks every comparison of test lists: list each test binary
# three times and fail on any difference.
scripts/check_test_names.sh build-ci-Release

echo "== scenario regression matrix =="
# The workload gallery gate: every registered scenario's pinned run must
# reproduce its checked-in reference hash on both engines (label covers
# the ScenarioRegressionTest binary and the scenario_matrix end-to-end
# run of the gallery tool).
(cd build-ci-Release && ctest --output-on-failure -L scenario)

echo "== scenario gallery artifact =="
# CI-tracked record of the full matrix: name, pinned hash per engine,
# reference, status.
mkdir -p artifacts
./build-ci-Release/examples/scenario_gallery --json artifacts/SCENARIOS.json
echo "wrote artifacts/SCENARIOS.json"

echo "== telemetry artifact =="
mkdir -p artifacts
./build-ci-Release/bench/fig4_scaling --cells 96 --steps 20 --threads 1,2 \
    --guard --telemetry artifacts/fig4_telemetry.json
echo "wrote artifacts/fig4_telemetry.json"

echo "== tiling ablation artifact =="
# Fast smoke-scale config of the A5 tile sweep; the JSON table is the
# CI-tracked record of tiled-vs-flattened hot-loop cost.
./build-ci-Release/bench/ablation_tiling --cells 96 --steps 10 \
    --threads 2 --json artifacts/BENCH_tiling.json
echo "wrote artifacts/BENCH_tiling.json"

echo "== checkpoint overhead artifact =="
# Durability cost record: per-step price of periodic atomic checkpoints
# at cadences {off, 100, 10} on the Fig. 4 workload.  The acceptance
# budget is < 5% overhead at the default every=100 cadence.
./build-ci-Release/bench/checkpoint_overhead --cells 96 --steps 200 \
    --threads 2 --dir artifacts/checkpoint_overhead.ckpt \
    --json artifacts/BENCH_checkpoint.json
echo "wrote artifacts/BENCH_checkpoint.json"

echo "== shard smoke + ablation artifact =="
# PR 9 record: multi-process row-block sharding.  First the elastic
# recovery end-to-end (kill one shard mid-run, resume from its own
# checkpoint store, verify the final hash against a single-process
# run), then the A9 scaling table; the bench exits nonzero if any
# shard count's hash diverges from the 1-shard reference.
rm -rf artifacts/shard_ci_ckpt
./build-ci-Release/examples/shard_interaction_2d --cells 64 --shards 2 \
    --steps 10 --checkpoint-dir artifacts/shard_ci_ckpt \
    --checkpoint-every 1 --kill-shard 1 --kill-at-step 5 --verify
./build-ci-Release/bench/ablation_shards --cells 96 --ext5-cells 192 \
    --steps 10 --shards 1,2,4,8 --json artifacts/BENCH_shard.json
echo "wrote artifacts/BENCH_shard.json"

echo "== simd ablation gate + artifact =="
# A8 record and gate: per-kernel scalar-vs-SIMD speedups plus the
# scalar-vs-SIMD end-to-end runs on the Fig. 4 workload.  --gate fails
# the Release matrix when fewer than 2 kernels reach 1.3x or fused
# SIMD runs slower than fused scalar (auto-skipped when the toolchain
# could not build an accelerated simd TU); any bit-identity violation
# fails unconditionally.
./build-ci-Release/bench/ablation_simd --cells 96 --steps 20 \
    --gate --json artifacts/BENCH_simd.json
echo "wrote artifacts/BENCH_simd.json"

echo "== mutation suite (slow) =="
# Every checked-in mutant (scripts/mutants/*.patch) must still apply and
# be killed by the tests its header names; each is rebuilt in a
# temporary worktree with the Release tree's settings, about a minute
# apiece.
scripts/mutation_check.sh build-ci-Release "$JOBS"
echo "== CI matrix passed =="
