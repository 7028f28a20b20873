//===- tests/AllocationTest.cpp - Zero-allocation hot path ----------------===//
//
// The pooled-buffer contract: after a short warmup, a steady-state step
// performs zero NDArray heap allocations — every stage temporary (flux
// faces, residuals, RK snapshots, materialized intermediates) comes out
// of the solver's FieldPool.  The counter lives in NDArray's allocator
// (array/AllocCounter.h), so any regression that sneaks a fresh field
// buffer onto the per-step path fails here, on both engines, in 1D and
// 2D, serial and spin-pool.
//
//===----------------------------------------------------------------------===//

#include "array/AllocCounter.h"
#include "runtime/Runtime.h"
#include "runtime/SerialBackend.h"
#include "solver/ArraySolver.h"
#include "solver/FusedSolver.h"
#include "solver/Problems.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>

using namespace sacfd;

namespace {

constexpr unsigned kWarmupSteps = 3;
constexpr unsigned kMeasuredSteps = 4;

/// Builds a fresh solver of the given engine over \p Prob on \p Exec.
template <unsigned Dim>
std::unique_ptr<EulerSolver<Dim>>
makeSolver(const std::string &Engine, const Problem<Dim> &Prob, Backend &Exec,
           const SchemeConfig &Scheme = SchemeConfig::benchmarkScheme()) {
  if (Engine == "array")
    return std::make_unique<ArraySolver<Dim>>(Prob, Scheme, Exec,
                                              ArrayEvalMode::Fused);
  if (Engine == "array-mat")
    return std::make_unique<ArraySolver<Dim>>(Prob, Scheme, Exec,
                                              ArrayEvalMode::Materialized);
  return std::make_unique<FusedSolver<Dim>>(Prob, Scheme, Exec);
}

const char *kEngines[] = {"array", "array-mat", "fused"};

/// Warm up, then assert that further steps allocate nothing: the pool's
/// free lists (and the fused engine's per-thread flux scratch) are primed
/// after the first step, so the steady-state delta must be exactly zero.
template <unsigned Dim>
void expectZeroSteadyStateAllocs(
    const Problem<Dim> &Prob, Backend &Exec, const std::string &Label,
    const SchemeConfig &Scheme = SchemeConfig::benchmarkScheme()) {
  for (const char *Engine : kEngines) {
    std::unique_ptr<EulerSolver<Dim>> S =
        makeSolver(Engine, Prob, Exec, Scheme);
    S->advanceSteps(kWarmupSteps);
    uint64_t Before = alloctrack::allocationCount();
    S->advanceSteps(kMeasuredSteps);
    uint64_t Delta = alloctrack::allocationCount() - Before;
    EXPECT_EQ(Delta, 0u)
        << Engine << " on " << Label << ": " << Delta << " field-buffer "
        << "allocations across " << kMeasuredSteps << " steady-state steps";
  }
}

TEST(AllocationTest, SteadyStateStepsAllocateNothing1D) {
  Problem<1> Prob = sodProblem(64);
  SerialBackend Serial;
  expectZeroSteadyStateAllocs(Prob, Serial, "serial 1D");
  for (unsigned Workers : {2u, 4u}) {
    auto Exec = createBackend(BackendKind::SpinPool, Workers);
    ASSERT_NE(Exec, nullptr);
    expectZeroSteadyStateAllocs(Prob, *Exec,
                                "spin(" + std::to_string(Workers) + ") 1D");
  }
}

TEST(AllocationTest, SteadyStateStepsAllocateNothing2D) {
  Problem<2> Prob = shockInteraction2D(16);
  SerialBackend Serial;
  expectZeroSteadyStateAllocs(Prob, Serial, "serial 2D");
  for (unsigned Workers : {2u, 4u}) {
    auto Exec = createBackend(BackendKind::SpinPool, Workers);
    ASSERT_NE(Exec, nullptr);
    expectZeroSteadyStateAllocs(Prob, *Exec,
                                "spin(" + std::to_string(Workers) + ") 2D");
  }
}

TEST(AllocationTest, SteadyStateStepsAllocateNothingSoA) {
  // The higher-order face path over SoA planes: the fused row pass keeps
  // its face-state, flux and primitive rows in a per-thread, grown-only
  // scratch (the array engine also stages each line's stencil window
  // there), which must be sized once in warmup and then reused.
  SchemeConfig Weno3 = SchemeConfig::figureScheme();
  SerialBackend Serial;
  expectZeroSteadyStateAllocs(shockInteraction2D(16), Serial,
                              "serial 2D weno3", Weno3);
  auto Exec = createBackend(BackendKind::SpinPool, 4);
  ASSERT_NE(Exec, nullptr);
  expectZeroSteadyStateAllocs(shockInteraction2D(16), *Exec,
                              "spin(4) 2D weno3", Weno3);
}

TEST(AllocationTest, FreshSolverWarmupStepsAllocate) {
  // Sanity check on the harness itself: a fresh solver's warmup steps
  // fill the pool's free lists, so they must show a nonzero allocation
  // count, proving the counter sees the buffers the steady state reuses.
  SerialBackend Exec;
  ArraySolver<1> S(sodProblem(64), SchemeConfig::benchmarkScheme(), Exec);
  uint64_t Before = alloctrack::allocationCount();
  S.advanceSteps(kWarmupSteps);
  EXPECT_GT(alloctrack::allocationCount() - Before, 0u);
}

TEST(AllocationTest, PoolStatsReflectSteadyStateReuse) {
  SerialBackend Exec;
  ArraySolver<2> S(shockInteraction2D(12), SchemeConfig::benchmarkScheme(),
                   Exec);
  S.advanceSteps(2);
  FieldPool::Stats Warm = S.fieldPool().stats();
  S.advanceSteps(4);
  FieldPool::Stats St = S.fieldPool().stats();
  EXPECT_GT(St.Acquisitions, Warm.Acquisitions);
  // Every steady-state acquisition is a free-list hit, and the footprint
  // stops growing after warmup.
  EXPECT_EQ(St.Acquisitions - Warm.Acquisitions, St.Hits - Warm.Hits);
  EXPECT_EQ(St.BytesResident, Warm.BytesResident);
  EXPECT_EQ(St.HighWaterBytes, Warm.HighWaterBytes);
  // The solution field U is itself a pooled lease held for the solver's
  // lifetime; every step-scoped temporary must have been returned.
  EXPECT_EQ(St.LiveLeases, 1u);
}

} // namespace
