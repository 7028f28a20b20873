//===- tests/StepGuardTest.cpp - Breakdown detection/recovery tests -------===//
//
// Exercises the step guard end to end: the interior health pass, the
// snapshot/rollback/dt-backoff loop, floor recovery, fault injection,
// structured breakdown reports, and the emergency checkpoint hook.  The
// CFL=10 Sod runs are the acceptance scenario: they break the unguarded
// solver and complete (or fail cleanly) under the guard, in Debug and
// Release builds alike.
//
//===----------------------------------------------------------------------===//

#include "io/Checkpoint.h"
#include "runtime/Runtime.h"
#include "runtime/SerialBackend.h"
#include "solver/ArraySolver.h"
#include "solver/Diagnostics.h"
#include "solver/FusedSolver.h"
#include "solver/Problems.h"
#include "solver/StepGuard.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

using namespace sacfd;

namespace {

SerialBackend Exec;

/// Unique scratch-file path per test.
std::string tempPath(const std::string &Name) {
  const ::testing::TestInfo *Info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  return ::testing::TempDir() + Info->test_suite_name() + "_" +
         Info->name() + "_" + Name;
}

/// Poisons one interior cell of \p S with NaN components.
template <unsigned Dim>
void poisonCell(EulerSolver<Dim> &S, size_t Linear) {
  const Grid<Dim> &G = S.problem().Domain;
  Shape Interior = G.interiorShape();
  const Index Storage = G.toStorage(Interior.delinearize(Linear));
  Cons<Dim> Q = S.field().at(Storage);
  for (unsigned K = 0; K < NumVars<Dim>; ++K)
    Q.setComp(K, std::numeric_limits<double>::quiet_NaN());
  S.field().set(Storage, Q);
}

/// Overwrites one interior cell of \p S with density \p Rho, momentum
/// \p Mom along every axis and total energy \p E.
template <unsigned Dim>
void setCell(EulerSolver<Dim> &S, size_t Linear, double Rho, double Mom,
             double E) {
  const Grid<Dim> &G = S.problem().Domain;
  Cons<Dim> Q;
  Q.Rho = Rho;
  for (unsigned D = 0; D < Dim; ++D)
    Q.Mom[D] = Mom;
  Q.E = E;
  S.field().set(G.toStorage(G.interiorShape().delinearize(Linear)), Q);
}

/// The guard's scan: the interior pass under the default guard floors.
template <unsigned Dim>
FieldHealth<Dim> guardScan(const EulerSolver<Dim> &S,
                           unsigned MaxOffenders = 8) {
  const GuardConfig Cfg;
  return S.summarize(Cfg.DensityFloor, Cfg.PressureFloor, MaxOffenders);
}

/// The acceptance scenario: Sod at CFL = 10 (20x the stable step).
SchemeConfig cfl10Scheme() {
  SchemeConfig SC = SchemeConfig::figureScheme();
  SC.Cfl = 10.0;
  return SC;
}

} // namespace

//===----------------------------------------------------------------------===//
// Health scan
//===----------------------------------------------------------------------===//

TEST(HealthScan, MatchesSerialFieldHealthOnHealthyField) {
  ArraySolver<1> S(sodProblem(64), SchemeConfig::figureScheme(), Exec);
  S.advanceSteps(5);
  FieldHealth<1> H = fieldHealth(S);
  FieldHealth<1> Scan = guardScan(S);
  EXPECT_TRUE(Scan.healthy());
  EXPECT_TRUE(Scan.AllFinite);
  EXPECT_EQ(Scan.MinDensity, H.MinDensity);
  EXPECT_EQ(Scan.MinPressure, H.MinPressure);
}

TEST(HealthScan, VacuumCellReadsAsNegativeInfinityPressure) {
  // A finite cell with rho = 0: its velocity is 0/0, so a pressure taken
  // through toPrim is NaN and a std::min chain would silently keep the
  // healthy minimum.  The one cell rule reads it as p = -inf instead,
  // for the diagnostics and the guard alike.
  ArraySolver<1> S(sodProblem(64), SchemeConfig::figureScheme(), Exec);
  S.advanceSteps(5);
  setCell(S, 30, 0.0, 0.0, 0.25);
  FieldHealth<1> H = fieldHealth(S);
  EXPECT_TRUE(H.AllFinite);
  EXPECT_EQ(H.MinPressure, -std::numeric_limits<double>::infinity());
  FieldHealth<1> Scan = guardScan(S);
  EXPECT_EQ(Scan.BadCells, 1u);
  ASSERT_EQ(Scan.Offenders.size(), 1u);
  EXPECT_EQ(Scan.Offenders[0], 30u);
}

TEST(HealthScan, DeterministicAcrossWorkerCounts) {
  // The pass folds one partial per axis-0 slab and merges them in slab
  // order, a decomposition that depends only on the grid: totals, minima
  // and offenders must match the serial flat result bit for bit on every
  // backend, worker count and tile spec.
  ArraySolver<2> Ref(shockInteraction2D(24), SchemeConfig::figureScheme(),
                     Exec);
  Ref.advanceSteps(3);
  poisonCell(Ref, 5);
  setCell(Ref, 24 * 11 + 3, 0.0, 0.0, 0.25);
  setCell(Ref, 24 * 23 + 20, 1.0, 0.0, -1.0);
  std::vector<Cons<2>> Snapshot(Ref.field().size());
  Ref.field().exportTo(Snapshot.data());
  const FieldHealth<2> Want = guardScan(Ref);
  ASSERT_EQ(Want.BadCells, 3u);
  ASSERT_EQ(Want.Offenders,
            (std::vector<size_t>{5, 24 * 11 + 3, 24 * 23 + 20}));

  auto SameBits = [](const auto &A, const auto &B) {
    return std::memcmp(&A, &B, sizeof(A)) == 0;
  };
  for (const Tile &T : {Tile::off(), Tile::sized(5, 7)})
    for (BackendKind Kind : {BackendKind::Serial, BackendKind::SpinPool,
                             BackendKind::ForkJoin})
      for (unsigned Workers = 1; Workers <= 4; ++Workers) {
        if (Kind == BackendKind::Serial && Workers > 1)
          continue;
        auto Backend_ =
            createBackend(Kind, Workers, Schedule::staticBlock(), T);
        ASSERT_NE(Backend_, nullptr);
        SCOPED_TRACE(std::string(Backend_->name()) + "(" +
                     std::to_string(Workers) + ") tile=" + T.str());
        ArraySolver<2> S(shockInteraction2D(24),
                         SchemeConfig::figureScheme(), *Backend_);
        S.field().importFrom(Snapshot.data());
        const FieldHealth<2> Got = guardScan(S);
        EXPECT_TRUE(SameBits(Got.Totals.Mass, Want.Totals.Mass));
        EXPECT_TRUE(SameBits(Got.Totals.Momentum, Want.Totals.Momentum));
        EXPECT_TRUE(SameBits(Got.Totals.Energy, Want.Totals.Energy));
        EXPECT_TRUE(SameBits(Got.MinDensity, Want.MinDensity));
        EXPECT_TRUE(SameBits(Got.MinPressure, Want.MinPressure));
        EXPECT_EQ(Got.AllFinite, Want.AllFinite);
        EXPECT_EQ(Got.BadCells, Want.BadCells);
        EXPECT_EQ(Got.Offenders, Want.Offenders);
      }
}

TEST(HealthScan, FindsPoisonedCells) {
  ArraySolver<1> S(sodProblem(64), SchemeConfig::figureScheme(), Exec);
  poisonCell(S, 17);
  poisonCell(S, 40);
  FieldHealth<1> Scan = guardScan(S);
  EXPECT_FALSE(Scan.healthy());
  EXPECT_FALSE(Scan.AllFinite);
  EXPECT_EQ(Scan.BadCells, 2u);
  ASSERT_EQ(Scan.Offenders.size(), 2u);
  EXPECT_EQ(Scan.Offenders[0], 17u);
  EXPECT_EQ(Scan.Offenders[1], 40u);
}

TEST(HealthScan, FlagsNegativePressureWithoutNan) {
  ArraySolver<1> S(sodProblem(64), SchemeConfig::figureScheme(), Exec);
  // Drain a cell's energy below its kinetic energy: finite but p < 0.
  const Grid<1> &G = S.problem().Domain;
  Cons<1> Q = S.field().at(G.toStorage(Index{10}));
  Q.E = -1.0;
  S.field().set(G.toStorage(Index{10}), Q);
  FieldHealth<1> Scan = guardScan(S);
  EXPECT_FALSE(Scan.healthy());
  EXPECT_TRUE(Scan.AllFinite) << "the cell is finite, just unphysical";
  EXPECT_EQ(Scan.BadCells, 1u);
  EXPECT_LT(Scan.MinPressure, 0.0);
}

TEST(HealthScan, OffenderListIsCapped) {
  ArraySolver<1> S(sodProblem(64), SchemeConfig::figureScheme(), Exec);
  for (size_t I = 0; I < 20; ++I)
    poisonCell(S, I);
  FieldHealth<1> Scan = guardScan(S, /*MaxOffenders=*/4);
  EXPECT_EQ(Scan.BadCells, 20u);
  EXPECT_EQ(Scan.Offenders.size(), 4u);
}

//===----------------------------------------------------------------------===//
// Guarded stepping: healthy path
//===----------------------------------------------------------------------===//

TEST(StepGuard, HealthyRunIsBitIdenticalToUnguarded) {
  ArraySolver<1> Plain(sodProblem(64), SchemeConfig::figureScheme(), Exec);
  ArraySolver<1> Wrapped(sodProblem(64), SchemeConfig::figureScheme(),
                         Exec);
  StepGuard<1> Guard(Wrapped);

  Plain.advanceTo(0.1);
  EXPECT_TRUE(Guard.advanceTo(0.1));

  EXPECT_EQ(maxFieldDifference(Plain, Wrapped), 0.0);
  EXPECT_EQ(Plain.stepCount(), Wrapped.stepCount());
  EXPECT_EQ(Plain.time(), Wrapped.time());
  EXPECT_EQ(Guard.retriesTotal(), 0u);
  EXPECT_EQ(Guard.floorsTotal(), 0u);
  EXPECT_EQ(Guard.dtScale(), 1.0);
  EXPECT_TRUE(Guard.reports().empty());
}

TEST(StepGuard, GuardEveryCadenceAdvancesWholeWindows) {
  ArraySolver<1> S(sodProblem(32), SchemeConfig::benchmarkScheme(), Exec);
  StepGuard<1> Guard(S, [] {
    GuardConfig C;
    C.Every = 3;
    return C;
  }());
  EXPECT_TRUE(Guard.advanceSteps(4));
  // advanceSteps runs whole windows; target 4 with Every=3 lands on 6.
  EXPECT_EQ(S.stepCount(), 6u);
}

//===----------------------------------------------------------------------===//
// Fault injection and recovery
//===----------------------------------------------------------------------===//

TEST(StepGuard, RecoversFromTransientFault) {
  ArraySolver<1> S(sodProblem(64), SchemeConfig::figureScheme(), Exec);
  StepGuard<1> Guard(S);
  // One-shot fault after step 3: the scan fails once, the replay is
  // clean, and the run continues at half dt.
  Guard.injectFault(/*AfterStep=*/3, {11}, /*Persistent=*/false);

  EXPECT_TRUE(Guard.advanceSteps(6));
  EXPECT_FALSE(Guard.failed());
  EXPECT_EQ(Guard.retriesTotal(), 1u);
  EXPECT_EQ(Guard.floorsTotal(), 0u);
  EXPECT_TRUE(Guard.reports().empty()) << "a retry is not a breakdown";
  EXPECT_TRUE(guardScan(S).healthy());
}

TEST(StepGuard, DtScaleRecoversAfterHealthyWindows) {
  ArraySolver<1> S(sodProblem(64), SchemeConfig::figureScheme(), Exec);
  StepGuard<1> Guard(S);
  Guard.injectFault(/*AfterStep=*/1, {5}, /*Persistent=*/false);
  EXPECT_TRUE(Guard.advanceSteps(1)); // retried window: scale 0.5 -> 1.0
  EXPECT_EQ(Guard.retriesTotal(), 1u);
  EXPECT_EQ(Guard.dtScale(), 1.0) << "scale recovers on the healthy pass";
}

TEST(StepGuard, PersistentFaultFloorsAndContinues) {
  ArraySolver<1> S(sodProblem(64), SchemeConfig::figureScheme(), Exec);
  GuardConfig Cfg;
  Cfg.MaxRetries = 2;
  StepGuard<1> Guard(S, Cfg);
  // Persistent fault: re-fires on every rollback replay, so backoff can
  // never help and the floor stage must resolve the window.
  Guard.injectFault(/*AfterStep=*/2, {20, 21}, /*Persistent=*/true);

  EXPECT_TRUE(Guard.advanceSteps(4));
  EXPECT_FALSE(Guard.failed());
  EXPECT_GE(Guard.floorsTotal(), 1u);
  EXPECT_GE(Guard.flooredCellsTotal(), 2u);
  ASSERT_GE(Guard.reports().size(), 1u);

  const BreakdownReport &R = Guard.reports().front();
  EXPECT_EQ(R.Resolution, BreakdownResolution::FloorRecovered);
  EXPECT_EQ(R.Step, 1u) << "window-start snapshot is after step 1";
  EXPECT_GE(R.BadCells, 2u);
  EXPECT_FALSE(R.OffendingCells.empty());
  // Attempts: MaxRetries + 1 initial tries, plus the floor replay.
  ASSERT_EQ(R.DtHistory.size(), Cfg.MaxRetries + 2u);
  for (size_t I = 0; I + 1 < R.DtHistory.size(); ++I)
    EXPECT_EQ(R.DtHistory[I + 1], 0.5 * R.DtHistory[I])
        << "backoff must halve dt exactly (attempt " << I << ")";
  EXPECT_FALSE(R.str().empty());
}

TEST(StepGuard, PersistentFaultFailsCleanlyWithoutFloor) {
  ArraySolver<1> S(sodProblem(64), SchemeConfig::figureScheme(), Exec);
  std::vector<Cons<1>> InitialField(S.field().size());
  S.field().exportTo(InitialField.data());
  GuardConfig Cfg;
  Cfg.MaxRetries = 2;
  Cfg.AllowFloor = false;
  StepGuard<1> Guard(S, Cfg);
  Guard.injectFault(/*AfterStep=*/1, {30}, /*Persistent=*/true);

  GuardStepResult Res = Guard.advanceWindow();
  EXPECT_EQ(Res.Action, GuardAction::Failed);
  EXPECT_TRUE(Guard.failed());

  // The solver must sit at the last healthy state: the initial condition.
  EXPECT_EQ(S.stepCount(), 0u);
  EXPECT_EQ(S.time(), 0.0);
  ASSERT_EQ(S.field().size(), InitialField.size());
  for (size_t I = 0; I < InitialField.size(); ++I)
    EXPECT_EQ(S.field().load(I), InitialField[I]);

  ASSERT_EQ(Guard.reports().size(), 1u);
  const BreakdownReport &R = Guard.reports().front();
  EXPECT_EQ(R.Resolution, BreakdownResolution::Failed);
  EXPECT_EQ(R.Step, 0u);
  EXPECT_EQ(R.Time, 0.0);
  EXPECT_GE(R.BadCells, 1u);
  EXPECT_EQ(R.OffendingCells.front(), 30u);
  ASSERT_EQ(R.DtHistory.size(), Cfg.MaxRetries + 1u);
  for (size_t I = 0; I + 1 < R.DtHistory.size(); ++I)
    EXPECT_EQ(R.DtHistory[I + 1], 0.5 * R.DtHistory[I]);
  EXPECT_FALSE(R.CheckpointWritten);

  // A failed guard refuses further work.
  EXPECT_EQ(Guard.advanceWindow().Action, GuardAction::Failed);
  EXPECT_EQ(S.stepCount(), 0u);
  EXPECT_EQ(Guard.reports().size(), 1u) << "no duplicate reports";
}

TEST(StepGuard, EmergencyCheckpointSavesLastHealthyState) {
  std::string Path = tempPath("emergency.ckpt");
  ArraySolver<1> S(sodProblem(48), SchemeConfig::figureScheme(), Exec);
  GuardConfig Cfg;
  Cfg.MaxRetries = 1;
  Cfg.AllowFloor = false;
  StepGuard<1> Guard(S, Cfg);
  Guard.setEmergencyCheckpoint(Path, [&S](const std::string &P) {
    CheckpointStatus St = saveCheckpoint(P, S);
    return St.ok() ? std::string() : St.str();
  });
  // Let two windows succeed so the snapshot is mid-run, then break.
  EXPECT_EQ(Guard.advanceWindow().Action, GuardAction::Accepted);
  EXPECT_EQ(Guard.advanceWindow().Action, GuardAction::Accepted);
  Guard.injectFault(/*AfterStep=*/3, {7}, /*Persistent=*/true);
  EXPECT_EQ(Guard.advanceWindow().Action, GuardAction::Failed);

  ASSERT_EQ(Guard.reports().size(), 1u);
  const BreakdownReport &R = Guard.reports().front();
  EXPECT_TRUE(R.CheckpointWritten);
  EXPECT_EQ(R.CheckpointPath, Path);
  EXPECT_EQ(R.Step, 2u);

  // The checkpoint restores the last healthy state into a fresh solver.
  ArraySolver<1> Restored(sodProblem(48), SchemeConfig::figureScheme(),
                          Exec);
  ASSERT_TRUE(loadCheckpoint(Path, Restored).ok());
  EXPECT_EQ(Restored.stepCount(), R.Step);
  EXPECT_EQ(Restored.time(), R.Time);
  EXPECT_EQ(maxFieldDifference(Restored, S), 0.0);
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// The acceptance scenario: Sod at CFL = 10
//===----------------------------------------------------------------------===//

TEST(StepGuard, CflTenSodBreaksWithoutGuard) {
  // Baseline for the recovery test: the unguarded run loses finiteness
  // and terminates without aborting (the containment clamps hold in
  // Debug builds too).  The dt clamp keeps the loop finite even once
  // EVmax goes NaN.
  ArraySolver<1> S(sodProblem(64), cfl10Scheme(), Exec);
  S.advanceTo(0.1);
  FieldHealth<1> H = fieldHealth(S);
  EXPECT_FALSE(H.AllFinite);
  EXPECT_TRUE(std::isnan(H.MinDensity)) << "no misleading partial minima";
}

template <typename SolverT>
static void runCflTenGuarded() {
  SolverT S(sodProblem(64), cfl10Scheme(), Exec);
  StepGuard<1> Guard(S);
  bool Ok = Guard.advanceTo(0.05);

  if (Ok) {
    EXPECT_GE(S.time(), 0.05);
    EXPECT_TRUE(Guard.retriesTotal() > 0 || Guard.floorsTotal() > 0)
        << "CFL=10 cannot survive without backoff or floors";
    EXPECT_TRUE(fieldHealth(S).AllFinite);
  } else {
    // A clean structured failure is also acceptable: the solver must be
    // healthy (restored) and the report populated.
    ASSERT_FALSE(Guard.reports().empty());
    EXPECT_EQ(Guard.reports().back().Resolution,
              BreakdownResolution::Failed);
    EXPECT_TRUE(fieldHealth(S).AllFinite);
  }
}

TEST(StepGuard, CflTenSodRecoversUnderGuardArrayEngine) {
  runCflTenGuarded<ArraySolver<1>>();
}

TEST(StepGuard, CflTenSodRecoversUnderGuardFusedEngine) {
  runCflTenGuarded<FusedSolver<1>>();
}

TEST(StepGuard, CflTenEnginesStayEquivalentUnderGuard) {
  // The guard must preserve engine bit-equivalence: identical scans,
  // identical rollbacks, identical dt scales.
  ArraySolver<1> A(sodProblem(48), cfl10Scheme(), Exec);
  FusedSolver<1> F(sodProblem(48), cfl10Scheme(), Exec);
  StepGuard<1> Ga(A), Gf(F);
  bool OkA = Ga.advanceTo(0.03);
  bool OkF = Gf.advanceTo(0.03);
  EXPECT_EQ(OkA, OkF);
  EXPECT_EQ(A.stepCount(), F.stepCount());
  EXPECT_EQ(Ga.retriesTotal(), Gf.retriesTotal());
  EXPECT_EQ(maxFieldDifference(A, F), 0.0);
}

//===----------------------------------------------------------------------===//
// dt clamp (satellite: EvMax == 0 division)
//===----------------------------------------------------------------------===//

template <typename SolverT>
static void runQuiescentZeroPressure() {
  // rho = 1, u = 0, p = 0: sound speed 0, EVmax = 0.  computeDt used to
  // return CFL / 0 = inf; the clamp must yield MaxDt and the (flux-free)
  // step must leave the field unchanged.
  Problem<1> P = sodProblem(32);
  P.InitialState = [](const std::array<double, 1> &) {
    Prim<1> W;
    W.Rho = 1.0;
    W.Vel[0] = 0.0;
    W.P = 0.0;
    return W;
  };
  SchemeConfig SC = SchemeConfig::benchmarkScheme();
  SC.MaxDt = 0.25;
  SolverT S(P, SC, Exec);

  double Dt = S.computeDt();
  EXPECT_TRUE(std::isfinite(Dt));
  EXPECT_EQ(Dt, SC.MaxDt);

  std::vector<Cons<1>> Before(S.field().size());
  S.field().exportTo(Before.data());
  S.advance();
  EXPECT_EQ(S.time(), SC.MaxDt);
  for (size_t I = 0; I < Before.size(); ++I)
    EXPECT_EQ(S.field().load(I), Before[I])
        << "quiescent zero-pressure gas must not evolve";
}

TEST(DtClamp, QuiescentZeroSoundSpeedArrayEngine) {
  runQuiescentZeroPressure<ArraySolver<1>>();
}

TEST(DtClamp, QuiescentZeroSoundSpeedFusedEngine) {
  runQuiescentZeroPressure<FusedSolver<1>>();
}

TEST(DtClamp, MaterializedModeClampsToo) {
  Problem<1> P = sodProblem(32);
  P.InitialState = [](const std::array<double, 1> &) {
    Prim<1> W;
    W.Rho = 1.0;
    return W; // u = 0, p = 0
  };
  SchemeConfig SC = SchemeConfig::benchmarkScheme();
  SC.MaxDt = 0.5;
  ArraySolver<1> S(P, SC, Exec, ArrayEvalMode::Materialized);
  EXPECT_EQ(S.computeDt(), 0.5);
}

TEST(DtClamp, PhysicalFieldsAreUnaffected) {
  // MaxDt far above the CFL step: dtFromMaxEigen must be the identity.
  ArraySolver<1> A(sodProblem(64), SchemeConfig::figureScheme(), Exec);
  FusedSolver<1> F(sodProblem(64), SchemeConfig::figureScheme(), Exec);
  double DtA = A.computeDt(), DtF = F.computeDt();
  EXPECT_EQ(DtA, DtF);
  EXPECT_GT(DtA, 0.0);
  EXPECT_LT(DtA, 1.0);
}

