//===- tests/DeterminismTest.cpp - Backend/worker determinism matrix ------===//
//
// The paper's central claim depends on the parallel schedules being pure
// reorderings of the same arithmetic: every backend at every worker count
// must produce bit-identical fields.  This matrix pins that down for both
// engines on 1D Sod and a small 2D shock interaction, across serial,
// fork-join, and spin-pool at 1, 2, 4, and 8 workers — and extends the
// bit-identity to the telemetry stream: counter totals and gauge series
// must match the serial reference exactly (span durations are wall-clock
// and excluded).
//
//===----------------------------------------------------------------------===//

#include "runtime/Runtime.h"
#include "shard/ShardCoordinator.h"
#include "solver/ArraySolver.h"
#include "solver/Diagnostics.h"
#include "solver/FusedSolver.h"
#include "solver/Problems.h"
#include "solver/Scenario.h"
#include "solver/SolverFactory.h"
#include "telemetry/Telemetry.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

using namespace sacfd;

namespace {

constexpr unsigned kWorkerCounts[] = {1, 2, 4, 8};
constexpr BackendKind kParallelKinds[] = {BackendKind::ForkJoin,
                                          BackendKind::SpinPool};

struct TelemetryDigest {
  std::vector<std::pair<std::string, uint64_t>> Counters;
  std::vector<telemetry::GaugeSeries> Gauges;
};

TelemetryDigest digest(const telemetry::MetricsReport &R) {
  TelemetryDigest D;
  for (const telemetry::CounterTotal &C : R.Counters)
    D.Counters.emplace_back(C.Name, C.Total);
  D.Gauges = R.Gauges;
  return D;
}

/// Bitwise double comparison: distinguishes 0.0 from -0.0 and treats any
/// NaN payload difference as a mismatch, which is the determinism
/// contract ("bit-identical", not "numerically close").
bool sameBits(double A, double B) {
  return std::memcmp(&A, &B, sizeof(double)) == 0;
}

void expectSameGauges(const TelemetryDigest &Ref, const TelemetryDigest &Got,
                      const std::string &Label) {
  ASSERT_EQ(Ref.Gauges.size(), Got.Gauges.size()) << Label;
  for (size_t I = 0; I < Ref.Gauges.size(); ++I) {
    const telemetry::GaugeSeries &RG = Ref.Gauges[I];
    const telemetry::GaugeSeries &GG = Got.Gauges[I];
    EXPECT_EQ(RG.Name, GG.Name) << Label;
    ASSERT_EQ(RG.Samples.size(), GG.Samples.size())
        << Label << " gauge " << RG.Name;
    for (size_t S = 0; S < RG.Samples.size(); ++S) {
      EXPECT_EQ(RG.Samples[S].Step, GG.Samples[S].Step)
          << Label << " gauge " << RG.Name;
      EXPECT_TRUE(sameBits(RG.Samples[S].Value, GG.Samples[S].Value))
          << Label << " gauge " << RG.Name << " sample " << S << ": "
          << RG.Samples[S].Value << " vs " << GG.Samples[S].Value;
    }
  }
}

void expectSameTelemetry(const TelemetryDigest &Ref,
                         const TelemetryDigest &Got,
                         const std::string &Label) {
  ASSERT_EQ(Ref.Counters.size(), Got.Counters.size()) << Label;
  for (size_t I = 0; I < Ref.Counters.size(); ++I) {
    EXPECT_EQ(Ref.Counters[I].first, Got.Counters[I].first) << Label;
    EXPECT_EQ(Ref.Counters[I].second, Got.Counters[I].second)
        << Label << " counter " << Ref.Counters[I].first;
  }
  expectSameGauges(Ref, Got, Label);
}

/// Runs \p Steps of a fresh solver on \p Exec with telemetry recording,
/// returning the telemetry digest.  The solver itself is returned through
/// \p Out so fields can be compared while both runs are alive.
template <typename SolverT, unsigned Dim>
TelemetryDigest runInstrumented(const Problem<Dim> &Prob,
                                const SchemeConfig &Scheme, Backend &Exec,
                                unsigned Steps,
                                std::unique_ptr<SolverT> &Out) {
  telemetry::reset();
  telemetry::setGaugeStride(1);
  telemetry::setEnabled(true);
  Out = std::make_unique<SolverT>(Prob, Scheme, Exec);
  Out->advanceSteps(Steps);
  TelemetryDigest D = digest(telemetry::snapshot());
  telemetry::setEnabled(false);
  return D;
}

template <typename SolverT, unsigned Dim>
void checkMatrix(const Problem<Dim> &Prob, const SchemeConfig &Scheme,
                 unsigned Steps, const Tile &TileCfg = Tile::off(),
                 const Schedule &Sched = Schedule::staticBlock()) {
  // The reference stays untiled: tiled execution must be bit-identical
  // to the legacy row-flattened serial run, not merely self-consistent.
  auto RefExec = createBackend(BackendKind::Serial, 1);
  std::unique_ptr<SolverT> Ref;
  TelemetryDigest RefTelem =
      runInstrumented<SolverT>(Prob, Scheme, *RefExec, Steps, Ref);
  EXPECT_FALSE(RefTelem.Counters.empty());
  EXPECT_FALSE(RefTelem.Gauges.empty());

  for (BackendKind Kind : kParallelKinds)
    for (unsigned Workers : kWorkerCounts) {
      auto Exec = createBackend(Kind, Workers, Sched, TileCfg);
      ASSERT_NE(Exec, nullptr);
      std::string Label = std::string(Exec->name()) + "(" +
                          std::to_string(Workers) + ") tile=" +
                          TileCfg.str() + " schedule=" + Sched.str();
      std::unique_ptr<SolverT> S;
      TelemetryDigest Telem =
          runInstrumented<SolverT>(Prob, Scheme, *Exec, Steps, S);
      EXPECT_DOUBLE_EQ(Ref->time(), S->time()) << Label;
      EXPECT_EQ(maxFieldDifference(*Ref, *S), 0.0) << Label;
      expectSameTelemetry(RefTelem, Telem, Label);
    }
}

/// Builds a solver with an explicit kernel build, papering over the
/// engines' differing constructor shapes.
template <typename SolverT, unsigned Dim>
std::unique_ptr<SolverT> makeSimdSolver(const Problem<Dim> &Prob,
                                        const SchemeConfig &Scheme,
                                        Backend &Exec, bool Simd) {
  if constexpr (std::is_same_v<SolverT, ArraySolver<Dim>>)
    return std::make_unique<SolverT>(Prob, Scheme, Exec, ArrayEvalMode::Fused,
                                     Simd);
  else
    return std::make_unique<SolverT>(Prob, Scheme, Exec, Simd);
}

/// The SIMD bit-identity matrix over the SoA field: both kernel builds,
/// on every backend at every worker count, must reproduce the serial
/// *scalar* reference bitwise, gauge series included.  Vectorization is
/// a pure reorganization of the same arithmetic.
template <typename SolverT, unsigned Dim>
void checkSimdMatrix(const Problem<Dim> &Prob, const SchemeConfig &Scheme,
                     unsigned Steps, const Tile &TileCfg = Tile::off()) {
  auto RefExec = createBackend(BackendKind::Serial, 1);
  telemetry::reset();
  telemetry::setGaugeStride(1);
  telemetry::setEnabled(true);
  std::unique_ptr<SolverT> Ref =
      makeSimdSolver<SolverT>(Prob, Scheme, *RefExec, false);
  Ref->advanceSteps(Steps);
  TelemetryDigest RefTelem = digest(telemetry::snapshot());
  telemetry::setEnabled(false);
  EXPECT_FALSE(RefTelem.Gauges.empty());

  // Self-comparison can't tell a working engine from a uniformly broken
  // one (a frozen or NaN-poisoned field is "bit-identical" to itself, and
  // maxFieldDifference collapses NaN comparisons to zero).  Require the
  // reference to have moved off the initial condition before trusting
  // the matrix.
  std::unique_ptr<SolverT> Init =
      makeSimdSolver<SolverT>(Prob, Scheme, *RefExec, false);
  EXPECT_GT(maxFieldDifference(*Init, *Ref), 0.0)
      << "scalar reference did not evolve";

  std::vector<std::pair<BackendKind, unsigned>> Arms = {
      {BackendKind::Serial, 1}};
  for (BackendKind Kind : kParallelKinds)
    for (unsigned Workers : kWorkerCounts)
      Arms.emplace_back(Kind, Workers);
  for (bool Simd : {false, true})
    for (auto [Kind, Workers] : Arms) {
      auto Exec =
          createBackend(Kind, Workers, Schedule::staticBlock(), TileCfg);
      ASSERT_NE(Exec, nullptr);
      std::string Label = std::string(Exec->name()) + "(" +
                          std::to_string(Workers) + ")" +
                          (Simd ? " simd" : " scalar") +
                          " tile=" + TileCfg.str();
      telemetry::reset();
      telemetry::setGaugeStride(1);
      telemetry::setEnabled(true);
      std::unique_ptr<SolverT> S =
          makeSimdSolver<SolverT>(Prob, Scheme, *Exec, Simd);
      S->advanceSteps(Steps);
      TelemetryDigest Telem = digest(telemetry::snapshot());
      telemetry::setEnabled(false);
      EXPECT_EQ(S->simdEnabled(), Simd) << Label;
      EXPECT_DOUBLE_EQ(Ref->time(), S->time()) << Label;
      EXPECT_EQ(maxFieldDifference(*Ref, *S), 0.0) << Label;
      expectSameGauges(RefTelem, Telem, Label);
    }
}

/// The step gauges a fold must reproduce: the dt each step took and the
/// GetDT maximum it came from.
TelemetryDigest dtGauges() {
  TelemetryDigest D;
  telemetry::MetricsReport R = telemetry::snapshot();
  for (const char *Name : {"step.dt", "step.max_eigen"}) {
    const telemetry::GaugeSeries *G = R.findGauge(Name);
    EXPECT_NE(G, nullptr) << Name;
    if (G)
      D.Gauges.push_back(*G);
  }
  return D;
}

/// How a fold arm runs: engine mode plus backend.
enum class FoldEngine { ArrayFused, Fused };

struct FoldArm {
  FoldEngine Engine;
  BackendKind Kind;
  unsigned Workers;
  Tile TileCfg;
};

/// The folds (the RK snapshot, the residual and GetDT inside each stage's
/// update sweep) against the array engine's materialized mode, which
/// keeps every pass separate.  For every integrator — rk1, where the
/// first stage is also the last, rk2 and rk3 — the array engine's fused
/// mode and the fused engine must reproduce the reference fields and the
/// step.dt / step.max_eigen gauges bit for bit: serial, on a spin pool
/// of 3 and on fork-join with 5x7 tiles.
template <unsigned Dim>
void checkFoldsMatchMaterialized(const Problem<Dim> &Prob, SchemeConfig Scheme,
                                 unsigned Steps) {
  std::vector<FoldArm> Arms;
  for (FoldEngine E : {FoldEngine::ArrayFused, FoldEngine::Fused}) {
    Arms.push_back({E, BackendKind::Serial, 1, Tile::off()});
    Arms.push_back({E, BackendKind::SpinPool, 3, Tile::off()});
    Arms.push_back({E, BackendKind::ForkJoin, 3, Tile::sized(5, 7)});
  }

  for (TimeIntegratorKind K :
       {TimeIntegratorKind::ForwardEuler, TimeIntegratorKind::SspRk2,
        TimeIntegratorKind::SspRk3}) {
    Scheme.Integrator = K;
    SCOPED_TRACE(timeIntegratorKindName(K));
    auto RefExec = createBackend(BackendKind::Serial, 1);
    telemetry::reset();
    telemetry::setGaugeStride(1);
    telemetry::setEnabled(true);
    ArraySolver<Dim> Ref(Prob, Scheme, *RefExec, ArrayEvalMode::Materialized);
    Ref.advanceSteps(Steps);
    const TelemetryDigest RefGauges = dtGauges();
    telemetry::setEnabled(false);
    ArraySolver<Dim> Init(Prob, Scheme, *RefExec, ArrayEvalMode::Materialized);
    EXPECT_GT(maxFieldDifference(Init, Ref), 0.0)
        << "materialized reference did not evolve";

    for (const FoldArm &A : Arms) {
      auto Exec =
          createBackend(A.Kind, A.Workers, Schedule::staticBlock(), A.TileCfg);
      ASSERT_NE(Exec, nullptr);
      const char *Mode = A.Engine == FoldEngine::ArrayFused ? "array" : "fused";
      std::string Label = std::string(Mode) + " " + Exec->name() + "(" +
                          std::to_string(A.Workers) +
                          ") tile=" + A.TileCfg.str();
      std::unique_ptr<EulerSolver<Dim>> S;
      if (A.Engine == FoldEngine::ArrayFused)
        S = std::make_unique<ArraySolver<Dim>>(Prob, Scheme, *Exec);
      else
        S = std::make_unique<FusedSolver<Dim>>(Prob, Scheme, *Exec);
      telemetry::reset();
      telemetry::setGaugeStride(1);
      telemetry::setEnabled(true);
      S->advanceSteps(Steps);
      const TelemetryDigest Gauges = dtGauges();
      telemetry::setEnabled(false);
      EXPECT_TRUE(sameBits(Ref.time(), S->time())) << Label;
      EXPECT_EQ(fieldStateHash(Ref), fieldStateHash(*S)) << Label;
      EXPECT_EQ(maxFieldDifference(Ref, *S), 0.0) << Label;
      expectSameGauges(RefGauges, Gauges, Label);
    }
  }
}

class DeterminismTest : public ::testing::Test {
protected:
  void TearDown() override {
    telemetry::setEnabled(false);
    telemetry::reset();
  }
};

} // namespace

TEST_F(DeterminismTest, Sod1DArraySolver) {
  checkMatrix<ArraySolver<1>>(sodProblem(128),
                              SchemeConfig::benchmarkScheme(), 20);
}

TEST_F(DeterminismTest, Sod1DFusedSolver) {
  checkMatrix<FusedSolver<1>>(sodProblem(128),
                              SchemeConfig::benchmarkScheme(), 20);
}

TEST_F(DeterminismTest, Interaction2DArraySolver) {
  checkMatrix<ArraySolver<2>>(shockInteraction2D(24, 2.2, 12.0),
                              SchemeConfig::benchmarkScheme(), 6);
}

TEST_F(DeterminismTest, Interaction2DFusedSolver) {
  checkMatrix<FusedSolver<2>>(shockInteraction2D(24, 2.2, 12.0),
                              SchemeConfig::benchmarkScheme(), 6);
}

TEST_F(DeterminismTest, FigureSchemeInteraction2DArraySolver) {
  // Second-order reconstruction exercises the wider stencils and the
  // limiter; the determinism contract must hold there too.
  checkMatrix<ArraySolver<2>>(shockInteraction2D(20, 2.2, 10.0),
                              SchemeConfig::figureScheme(), 5);
}

TEST_F(DeterminismTest, FigureSchemeInteraction2DFusedSolver) {
  checkMatrix<FusedSolver<2>>(shockInteraction2D(20, 2.2, 10.0),
                              SchemeConfig::figureScheme(), 5);
}

TEST_F(DeterminismTest, TiledInteraction2DArraySolver) {
  // Tiled parallel execution vs the untiled serial reference: the 2D
  // runtime must be a pure reordering of the same arithmetic.
  checkMatrix<ArraySolver<2>>(shockInteraction2D(24, 2.2, 12.0),
                              SchemeConfig::benchmarkScheme(), 6,
                              Tile::sized(5, 7));
}

TEST_F(DeterminismTest, TiledInteraction2DFusedSolver) {
  checkMatrix<FusedSolver<2>>(shockInteraction2D(24, 2.2, 12.0),
                              SchemeConfig::benchmarkScheme(), 6,
                              Tile::sized(5, 7));
}

namespace {

/// Sedov wants the blast CFL the gallery recommends; a handful of steps
/// keeps the strong point blast finite on the coarse matrix grid.
SchemeConfig sedovScheme() {
  SchemeConfig C = SchemeConfig::figureScheme();
  C.Cfl = 0.3;
  return C;
}

} // namespace

TEST_F(DeterminismTest, Sedov2DArraySolver) {
  // The gallery's strong point blast: near-vacuum ambient state and a
  // steep pressure spike stress the positivity path of every backend.
  checkMatrix<ArraySolver<2>>(sedovBlast2D(24), sedovScheme(), 5);
}

TEST_F(DeterminismTest, Sedov2DFusedSolver) {
  checkMatrix<FusedSolver<2>>(sedovBlast2D(24), sedovScheme(), 5);
}

TEST_F(DeterminismTest, TiledSedov2DFusedSolver) {
  checkMatrix<FusedSolver<2>>(sedovBlast2D(24), sedovScheme(), 5,
                              Tile::sized(5, 7));
}

TEST_F(DeterminismTest, Riemann2DConfig3ArraySolver) {
  // Four-quadrant Riemann problem: contacts and shocks meet at the
  // center, so every quadrant seam crosses worker partitions.
  checkMatrix<ArraySolver<2>>(riemann2D(24, 2, 3),
                              SchemeConfig::figureScheme(), 5);
}

TEST_F(DeterminismTest, Riemann2DConfig3FusedSolver) {
  checkMatrix<FusedSolver<2>>(riemann2D(24, 2, 3),
                              SchemeConfig::figureScheme(), 5);
}

TEST_F(DeterminismTest, TiledRiemann2DConfig3ArraySolver) {
  checkMatrix<ArraySolver<2>>(riemann2D(24, 2, 3),
                              SchemeConfig::figureScheme(), 5,
                              Tile::sized(5, 7));
}

TEST_F(DeterminismTest, TiledRiemann2DConfig3FusedSolver) {
  checkMatrix<FusedSolver<2>>(riemann2D(24, 2, 3),
                              SchemeConfig::figureScheme(), 5,
                              Tile::sized(5, 7));
}

// LayoutSimd rows: the SoA field layout under both kernel builds.
TEST_F(DeterminismTest, LayoutSimdSod1DArraySolver) {
  // Odd cell count: the vectorized kernels run a ragged tail every line.
  checkSimdMatrix<ArraySolver<1>>(sodProblem(67),
                                  SchemeConfig::benchmarkScheme(), 12);
}

TEST_F(DeterminismTest, LayoutSimdSod1DFusedSolver) {
  checkSimdMatrix<FusedSolver<1>>(sodProblem(67),
                                  SchemeConfig::benchmarkScheme(), 12);
}

TEST_F(DeterminismTest, LayoutSimdTinySod1DArraySolver) {
  // Nx below the vector width: every kernel call is pure tail.
  checkSimdMatrix<ArraySolver<1>>(sodProblem(5),
                                  SchemeConfig::benchmarkScheme(), 6);
}

TEST_F(DeterminismTest, LayoutSimdTinySod1DFusedSolver) {
  checkSimdMatrix<FusedSolver<1>>(sodProblem(5),
                                  SchemeConfig::benchmarkScheme(), 6);
}

TEST_F(DeterminismTest, LayoutSimdInteraction2DArraySolver) {
  // Odd Nx: ragged rows in both the axis-1 line runs and the axis-0
  // transposed row runs.
  checkSimdMatrix<ArraySolver<2>>(shockInteraction2D(19, 2.2, 9.5),
                                  SchemeConfig::benchmarkScheme(), 4);
}

TEST_F(DeterminismTest, LayoutSimdInteraction2DFusedSolver) {
  checkSimdMatrix<FusedSolver<2>>(shockInteraction2D(19, 2.2, 9.5),
                                  SchemeConfig::benchmarkScheme(), 4);
}

TEST_F(DeterminismTest, LayoutSimdFigureSchemeInteraction2DArraySolver) {
  // WENO3 runs the staged-window face path: reconstructFaces feeding
  // fluxFaces, both on the kernel build under test, from every block and
  // tile run the backends deal.
  checkSimdMatrix<ArraySolver<2>>(shockInteraction2D(20, 2.2, 10.0),
                                  SchemeConfig::figureScheme(), 4);
}

// The higher-order SIMD arm end to end on the fused engine: the Mach 10
// double-Mach shock with its time-dependent Prescribed top boundary,
// on 20x5 and 32x8 grids (ragged kernel tails along both axes), for the
// figure scheme, WENO5 and a compressive TVD3 limiter.  (Characteristic
// WENO5 turns the 20x5 shock into NaNs in its first step, under either
// kernel build, so its row runs the finer grid.)
namespace {
SchemeConfig doubleMachScheme(ReconstructionKind Recon, LimiterKind Limiter) {
  SchemeConfig C = SchemeConfig::figureScheme();
  C.Recon = Recon;
  C.Limiter = Limiter;
  C.Cfl = 0.3;
  return C;
}
} // namespace

TEST_F(DeterminismTest, LayoutSimdFigureSchemeDoubleMachFusedSolver) {
  checkSimdMatrix<FusedSolver<2>>(
      doubleMachReflection(5),
      doubleMachScheme(ReconstructionKind::Weno3, LimiterKind::MinMod), 4);
}

TEST_F(DeterminismTest, LayoutSimdWeno5DoubleMachFusedSolver) {
  checkSimdMatrix<FusedSolver<2>>(
      doubleMachReflection(8, 3),
      doubleMachScheme(ReconstructionKind::Weno5, LimiterKind::MinMod), 4);
}

TEST_F(DeterminismTest, LayoutSimdTvd3SuperbeeDoubleMachFusedSolver) {
  checkSimdMatrix<FusedSolver<2>>(
      doubleMachReflection(5),
      doubleMachScheme(ReconstructionKind::Tvd3, LimiterKind::Superbee), 4);
}

TEST_F(DeterminismTest, LayoutSimdTiledInteraction2DArraySolver) {
  // Odd tiles put kernel-run seams mid-row: sub-range faces are
  // recomputed, never communicated, so seams cannot shift bits.
  checkSimdMatrix<ArraySolver<2>>(shockInteraction2D(19, 2.2, 9.5),
                                  SchemeConfig::benchmarkScheme(), 4,
                                  Tile::sized(5, 7));
}

TEST_F(DeterminismTest, LayoutSimdTiledInteraction2DFusedSolver) {
  checkSimdMatrix<FusedSolver<2>>(shockInteraction2D(19, 2.2, 9.5),
                                  SchemeConfig::benchmarkScheme(), 4,
                                  Tile::sized(5, 7));
}

// PC1 with the other two mirrored solvers: the per-cell split feeds
// Rusanov's and HLL's face arithmetic on both engines, untiled and on
// the 5x7 ragged tiles.
namespace {
SchemeConfig pc1Scheme(RiemannKind Riemann) {
  SchemeConfig C = SchemeConfig::benchmarkScheme();
  C.Riemann = Riemann;
  return C;
}
} // namespace

TEST_F(DeterminismTest, LayoutSimdRusanovHllInteraction2DArraySolver) {
  for (RiemannKind K : {RiemannKind::Rusanov, RiemannKind::Hll})
    checkSimdMatrix<ArraySolver<2>>(shockInteraction2D(19, 2.2, 9.5),
                                    pc1Scheme(K), 4);
}

TEST_F(DeterminismTest, LayoutSimdRusanovHllInteraction2DFusedSolver) {
  for (RiemannKind K : {RiemannKind::Rusanov, RiemannKind::Hll})
    checkSimdMatrix<FusedSolver<2>>(shockInteraction2D(19, 2.2, 9.5),
                                    pc1Scheme(K), 4);
}

TEST_F(DeterminismTest, LayoutSimdTiledRusanovHllInteraction2DArraySolver) {
  for (RiemannKind K : {RiemannKind::Rusanov, RiemannKind::Hll})
    checkSimdMatrix<ArraySolver<2>>(shockInteraction2D(19, 2.2, 9.5),
                                    pc1Scheme(K), 4, Tile::sized(5, 7));
}

TEST_F(DeterminismTest, LayoutSimdTiledRusanovHllInteraction2DFusedSolver) {
  for (RiemannKind K : {RiemannKind::Rusanov, RiemannKind::Hll})
    checkSimdMatrix<FusedSolver<2>>(shockInteraction2D(19, 2.2, 9.5),
                                    pc1Scheme(K), 4, Tile::sized(5, 7));
}

TEST_F(DeterminismTest, HigherOrderStagedGatherFusedMatchesArray) {
  // The array engine stages each run of faces' clamped stencil window
  // once and slides the 6-cell stencil over it; the serial array run
  // stages whole lines (and the pinned scenario hashes tie it to the
  // historical per-face gather).  The fused row pass reads the same
  // stencils straight from the stage field's rows, unclamped.  WENO3
  // (characteristic variables) and MUSCL on fused loops, serial and on
  // ragged tiles on a persistent pool, must both reproduce it bitwise.
  // Every arm has block edges at the domain boundary, where the array
  // window clamps and the row pass reads ghost rows and columns, and the
  // 5x7 tiles of the 19-cell grid add interior seams where the row pass
  // reads its neighbours' cells.
  Problem<2> Prob = shockInteraction2D(19, 2.2, 9.5);
  SchemeConfig Muscl = SchemeConfig::figureScheme();
  Muscl.Recon = ReconstructionKind::Tvd2;
  constexpr unsigned Steps = 4;
  struct Arm {
    BackendKind Kind;
    unsigned Workers;
    Tile TileCfg;
  };
  const Arm Arms[] = {{BackendKind::Serial, 1, Tile::off()},
                      {BackendKind::SpinPool, 4, Tile::sized(5, 7)}};
  for (const SchemeConfig &Scheme : {SchemeConfig::figureScheme(), Muscl}) {
    auto RefExec = createBackend(BackendKind::Serial, 1);
    ArraySolver<2> Ref(Prob, Scheme, *RefExec);
    Ref.advanceSteps(Steps);
    ArraySolver<2> Init(Prob, Scheme, *RefExec);
    EXPECT_GT(maxFieldDifference(Init, Ref), 0.0)
        << Scheme.str() << ": array reference did not evolve";
    for (const Arm &A : Arms) {
      auto Exec = createBackend(A.Kind, A.Workers, Schedule::staticBlock(),
                                A.TileCfg);
      ASSERT_NE(Exec, nullptr);
      std::string Label =
          Scheme.str() + " " + Exec->name() + " tile=" + A.TileCfg.str();
      FusedSolver<2> S(Prob, Scheme, *Exec);
      S.advanceSteps(Steps);
      EXPECT_DOUBLE_EQ(Ref.time(), S.time()) << Label;
      EXPECT_EQ(maxFieldDifference(Ref, S), 0.0) << Label;
    }
  }
}

TEST_F(DeterminismTest, TiledDynamicDealingInteraction2DArraySolver) {
  // Dynamic tile dealing (`--tile 5x7 --schedule dynamic,1`: fork-join
  // hands out one tile at a time) changes which worker runs which tile
  // run to run; per-tile reduction partials merged in tile order must
  // make the result identical anyway.
  checkMatrix<ArraySolver<2>>(shockInteraction2D(20, 2.2, 10.0),
                              SchemeConfig::figureScheme(), 5,
                              Tile::sized(5, 7), Schedule::dynamic(1));
}

TEST_F(DeterminismTest, ShardedInteraction2D) {
  // Multi-process row-block decomposition extends the reordering
  // argument across address spaces: the max-eigenvalue dt reduction is
  // grouping-invariant and halo fills reproduce the interior stencil
  // inputs bitwise, so every shard count must hash identically to the
  // single-process run.
  Problem<2> Prob = shockInteraction2D(24, 2.2, 12.0);
  SchemeConfig Scheme = SchemeConfig::benchmarkScheme();
  constexpr unsigned Steps = 6;

  RunConfig Ref;
  Ref.Scheme = Scheme;
  Ref.Engine = EngineKind::Fused;
  Ref.Backend = BackendKind::Serial;
  Ref.Threads = 1;
  SolverRun<2> Serial(Prob, Ref);
  Serial.solver().advanceSteps(Steps);
  const uint64_t RefHash = fieldStateHash(Serial.solver());

  for (unsigned Shards : {1u, 2u, 4u}) {
    SCOPED_TRACE("shards=" + std::to_string(Shards));
    ShardOptions Opt;
    Opt.Shards = Shards;
    Opt.Scheme = Scheme;
    ShardCoordinator Coord(Prob, Opt);
    ASSERT_TRUE(Coord.start());
    ASSERT_TRUE(Coord.advanceSteps(Steps));
    EXPECT_EQ(Coord.stepCount(), Serial.solver().stepCount());
    EXPECT_EQ(Coord.stateHash(), RefHash);
    Coord.shutdown();
  }
}

TEST_F(DeterminismTest, FoldsMatchMaterializedSod1D) {
  // Odd cell count: the fused kernel runs end in a ragged tail.
  checkFoldsMatchMaterialized<1>(sodProblem(67),
                                 SchemeConfig::benchmarkScheme(), 8);
}

TEST_F(DeterminismTest, FoldsMatchMaterializedInteraction2D) {
  checkFoldsMatchMaterialized<2>(shockInteraction2D(19, 2.2, 9.5),
                                 SchemeConfig::benchmarkScheme(), 4);
}

TEST_F(DeterminismTest, FoldsMatchMaterializedFigureSchemeInteraction2D) {
  // WENO3 through the staged-window face path on every fold arm.
  checkFoldsMatchMaterialized<2>(shockInteraction2D(20, 2.2, 10.0),
                                 SchemeConfig::figureScheme(), 3);
}

TEST_F(DeterminismTest, FoldsMatchMaterializedBlast3D) {
  checkFoldsMatchMaterialized<3>(sphericalBlast3D(9),
                                 SchemeConfig::benchmarkScheme(), 3);
}

// Row-pass seam rows: the fused engine's 2D stage, for every scheme, is
// one pass down the rows serving both axes and writing the stage output
// out of place.  Piecewise constant converts the row above each block at
// its seam; a reconstructed scheme reads its stencils straight from the
// stage input, 3 rows and columns past the block.  A ragged 23x17
// interaction with unequal dx puts block and tile seams mid-field
// (spin-pool and fork-join blocks of 3, 5x7 tiles).  Each row runs its
// Riemann solver under PC1, TVD2 MinMod, TVD3 Superbee, WENO3 and WENO5,
// on a grid with the scheme's ghost layers (3 for WENO5; PC1 keeps 2):
// the fused field must equal the array engine's serial scalar field bit
// for bit on every arm, SIMD on and off, and so must its full storage,
// ghosts included.  Roe is off the kernel mirror, so it runs the
// reference loops.
namespace {
void checkRowPassSeams(RiemannKind Riemann) {
  const std::pair<ReconstructionKind, LimiterKind> Schemes[] = {
      {ReconstructionKind::PiecewiseConstant, LimiterKind::MinMod},
      {ReconstructionKind::Tvd2, LimiterKind::MinMod},
      {ReconstructionKind::Tvd3, LimiterKind::Superbee},
      {ReconstructionKind::Weno3, LimiterKind::MinMod},
      {ReconstructionKind::Weno5, LimiterKind::MinMod}};
  constexpr unsigned Steps = 16;
  const std::pair<BackendKind, unsigned> Arms[] = {{BackendKind::Serial, 1},
                                                   {BackendKind::SpinPool, 3},
                                                   {BackendKind::ForkJoin, 3}};
  for (auto [Recon, Limiter] : Schemes) {
    SchemeConfig Scheme = pc1Scheme(Riemann);
    Scheme.Recon = Recon;
    Scheme.Limiter = Limiter;
    Problem<2> Prob = shockInteraction2D(23, 2.2, 11.5);
    Prob.Domain = Grid<2>({23, 17}, {0.0, 0.0}, {23.0, 23.0},
                          std::max(2u, ghostCells(Recon)));

    auto RefExec = createBackend(BackendKind::Serial, 1);
    ArraySolver<2> Ref(Prob, Scheme, *RefExec, ArrayEvalMode::Fused,
                       /*Simd=*/false);
    Ref.advanceSteps(Steps);
    ArraySolver<2> Init(Prob, Scheme, *RefExec, ArrayEvalMode::Fused,
                        /*Simd=*/false);
    EXPECT_GT(maxFieldDifference(Init, Ref), 0.0)
        << Scheme.str() << ": array reference did not evolve";
    EXPECT_TRUE(fieldHealth(Ref).AllFinite)
        << Scheme.str() << ": array reference broke down";
    std::vector<Cons<2>> RefStorage(Ref.field().size());
    Ref.field().exportTo(RefStorage.data());

    for (const Tile &TileCfg : {Tile::off(), Tile::sized(5, 7)})
      for (auto [Kind, Workers] : Arms)
        for (bool Simd : {false, true}) {
          auto Exec =
              createBackend(Kind, Workers, Schedule::staticBlock(), TileCfg);
          ASSERT_NE(Exec, nullptr);
          std::string Label = Scheme.str() + " " + Exec->name() + "(" +
                              std::to_string(Workers) + ")" +
                              (Simd ? " simd" : " scalar") +
                              " tile=" + TileCfg.str();
          FusedSolver<2> S(Prob, Scheme, *Exec, Simd);
          S.advanceSteps(Steps);
          EXPECT_TRUE(sameBits(Ref.time(), S.time())) << Label;
          EXPECT_EQ(fieldStateHash(Ref), fieldStateHash(S)) << Label;
          EXPECT_EQ(maxFieldDifference(Ref, S), 0.0) << Label;

          // Full storage, ghosts included: U must never end a step
          // holding a stage scratch field's ghost cells.
          std::vector<Cons<2>> Storage(S.field().size());
          S.field().exportTo(Storage.data());
          ASSERT_EQ(Storage.size(), RefStorage.size()) << Label;
          EXPECT_EQ(std::memcmp(Storage.data(), RefStorage.data(),
                                Storage.size() * sizeof(Cons<2>)),
                    0)
              << Label;
        }
  }
}
} // namespace

TEST_F(DeterminismTest, RowPassSeamsRaggedInteraction2DRusanov) {
  checkRowPassSeams(RiemannKind::Rusanov);
}

TEST_F(DeterminismTest, RowPassSeamsRaggedInteraction2DHll) {
  checkRowPassSeams(RiemannKind::Hll);
}

TEST_F(DeterminismTest, RowPassSeamsRaggedInteraction2DHllc) {
  checkRowPassSeams(RiemannKind::Hllc);
}

TEST_F(DeterminismTest, RowPassSeamsRaggedInteraction2DRoe) {
  checkRowPassSeams(RiemannKind::Roe);
}

// The array engine's 2D flux with-loop: one region per stage yields both
// axes' flux fields, piecewise constant converting each cell row once
// into two rolling primitive rows (the row above each block converted
// again at its seam).  On the ragged 23x17 interaction with unequal dx,
// the fused mode must reproduce the materialized mode (every
// intermediate explicit, one staged-window flux with-loop per axis) bit
// for bit: serial, spin-pool(3) and fork-join(3), flat and on 5x7 tiles,
// SIMD on and off.  Forward Euler leaves one fill of Q^n in both modes'
// ghosts, so it compares full storage; SSP-RK3 compares the fields (the
// materialized mode's ghosts hold its last stage's fill).
namespace {
void checkOneFluxWithLoop(RiemannKind Riemann) {
  constexpr unsigned Steps = 16;
  const std::pair<BackendKind, unsigned> Arms[] = {{BackendKind::Serial, 1},
                                                   {BackendKind::SpinPool, 3},
                                                   {BackendKind::ForkJoin, 3}};
  Problem<2> Prob = shockInteraction2D(23, 2.2, 11.5);
  Prob.Domain = Grid<2>({23, 17}, {0.0, 0.0}, {23.0, 23.0}, 2);
  for (TimeIntegratorKind K :
       {TimeIntegratorKind::ForwardEuler, TimeIntegratorKind::SspRk3}) {
    SchemeConfig Scheme = pc1Scheme(Riemann);
    Scheme.Integrator = K;
    auto RefExec = createBackend(BackendKind::Serial, 1);
    ArraySolver<2> Ref(Prob, Scheme, *RefExec, ArrayEvalMode::Materialized,
                       /*Simd=*/false);
    Ref.advanceSteps(Steps);
    ArraySolver<2> Init(Prob, Scheme, *RefExec, ArrayEvalMode::Materialized,
                        /*Simd=*/false);
    EXPECT_GT(maxFieldDifference(Init, Ref), 0.0)
        << Scheme.str() << ": materialized reference did not evolve";
    EXPECT_TRUE(fieldHealth(Ref).AllFinite)
        << Scheme.str() << ": materialized reference broke down";
    std::vector<Cons<2>> RefStorage(Ref.field().size());
    Ref.field().exportTo(RefStorage.data());

    for (const Tile &TileCfg : {Tile::off(), Tile::sized(5, 7)})
      for (auto [Kind, Workers] : Arms)
        for (bool Simd : {false, true}) {
          auto Exec =
              createBackend(Kind, Workers, Schedule::staticBlock(), TileCfg);
          ASSERT_NE(Exec, nullptr);
          std::string Label = Scheme.str() + " " + Exec->name() + "(" +
                              std::to_string(Workers) + ")" +
                              (Simd ? " simd" : " scalar") +
                              " tile=" + TileCfg.str();
          ArraySolver<2> S(Prob, Scheme, *Exec, ArrayEvalMode::Fused, Simd);
          S.advanceSteps(Steps);
          EXPECT_TRUE(sameBits(Ref.time(), S.time())) << Label;
          EXPECT_EQ(fieldStateHash(Ref), fieldStateHash(S)) << Label;
          EXPECT_EQ(maxFieldDifference(Ref, S), 0.0) << Label;
          if (K != TimeIntegratorKind::ForwardEuler)
            continue;
          std::vector<Cons<2>> Storage(S.field().size());
          S.field().exportTo(Storage.data());
          ASSERT_EQ(Storage.size(), RefStorage.size()) << Label;
          EXPECT_EQ(std::memcmp(Storage.data(), RefStorage.data(),
                                Storage.size() * sizeof(Cons<2>)),
                    0)
              << Label;
        }
  }
}
} // namespace

TEST_F(DeterminismTest, OneFluxWithLoopRaggedInteraction2DRusanov) {
  checkOneFluxWithLoop(RiemannKind::Rusanov);
}

TEST_F(DeterminismTest, OneFluxWithLoopRaggedInteraction2DHll) {
  checkOneFluxWithLoop(RiemannKind::Hll);
}

TEST_F(DeterminismTest, OneFluxWithLoopRaggedInteraction2DHllc) {
  checkOneFluxWithLoop(RiemannKind::Hllc);
}

TEST_F(DeterminismTest, OneFluxWithLoopRaggedInteraction2DRoe) {
  checkOneFluxWithLoop(RiemannKind::Roe);
}
