//===- tests/Backend2DTest.cpp - parallelFor2D conformance tests ----------===//
//
// The 2D iteration-space contract: every backend must visit each (row,
// col) cell exactly once — tiled or flattened, at any worker count and
// under every schedule the backend deals the tile range with — count
// exactly one region per non-empty call, and produce bit-identical
// solver fields and telemetry whether the hot loops run tiled or
// row-flattened.  The field/telemetry
// half is the acceptance gate of the tiling work: tiling may only
// reorder the arithmetic, never change it.
//
//===----------------------------------------------------------------------===//

#include "runtime/BlockReduce.h"
#include "runtime/Runtime.h"
#include "solver/ArraySolver.h"
#include "solver/Diagnostics.h"
#include "solver/FusedSolver.h"
#include "solver/Problems.h"
#include "telemetry/Telemetry.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

using namespace sacfd;

namespace {

constexpr unsigned kWorkerCounts[] = {1, 2, 4, 8};
constexpr BackendKind kAllKinds[] = {BackendKind::Serial,
                                     BackendKind::ForkJoin,
                                     BackendKind::SpinPool};

struct Backend2DCase {
  BackendKind Kind;
  unsigned Threads;
  Tile TileCfg;
  /// The backend's 1D schedule, which also deals the tile range.
  Schedule Sched;

  std::string label() const {
    std::string S = backendKindName(Kind);
    S += "_t" + std::to_string(Threads) + "_" + TileCfg.str();
    if (TileCfg.Enabled)
      S += "_" + Sched.str();
    for (char &C : S)
      if (C == '-' || C == ',')
        C = '_';
    return S;
  }
};

/// The conformance matrix.
std::vector<Backend2DCase> allCases() {
  std::vector<Backend2DCase> Cases;
  const std::pair<Tile, Schedule> Tilings[] = {
      {Tile::off(), Schedule::staticBlock()},
      {Tile::automatic(), Schedule::staticBlock()},
      // Deliberately ragged vs the test extents.
      {Tile::sized(3, 5), Schedule::staticBlock()},
      {Tile::sized(4, 16), Schedule::staticChunk(2)},
      {Tile::sized(4, 16), Schedule::dynamic(1)},
  };
  for (BackendKind Kind :
       {BackendKind::Serial, BackendKind::ForkJoin, BackendKind::SpinPool})
    for (unsigned Threads : kWorkerCounts) {
      if (Kind == BackendKind::Serial && Threads != 1)
        continue;
      for (const auto &[T, Sched] : Tilings) {
        // gtest lists a parameter without a PrintTo as its raw bytes (the
        // "# GetParam()" dump), so each case is zeroed, padding inside
        // Tile and Schedule included, and its members are set in place:
        // otherwise the listing differs from run to run.
        Backend2DCase &C = Cases.emplace_back();
        std::memset(static_cast<void *>(&C), 0, sizeof(C));
        C.Kind = Kind;
        C.Threads = Threads;
        C.TileCfg.Enabled = T.Enabled;
        C.TileCfg.Rows = T.Rows;
        C.TileCfg.Cols = T.Cols;
        C.Sched.K = Sched.K;
        C.Sched.ChunkSize = Sched.ChunkSize;
      }
    }
  return Cases;
}

class ParallelFor2DTest : public ::testing::TestWithParam<Backend2DCase> {
protected:
  std::unique_ptr<Backend> makeBackend() const {
    const Backend2DCase &C = GetParam();
    return createBackend(C.Kind, C.Threads, C.Sched, C.TileCfg);
  }
};

} // namespace

TEST_P(ParallelFor2DTest, EachCellRunsExactlyOnce) {
  auto B = makeBackend();
  constexpr size_t Rows = 43, Cols = 67; // primes: ragged edge tiles
  std::vector<std::atomic<int>> Hits(Rows * Cols);
  for (auto &H : Hits)
    H.store(0);

  B->parallelFor2D(Rows, Cols,
                   [&Hits](size_t RB, size_t RE, size_t CB, size_t CE) {
                     for (size_t R = RB; R < RE; ++R)
                       for (size_t C = CB; C < CE; ++C)
                         Hits[R * Cols + C].fetch_add(
                             1, std::memory_order_relaxed);
                   });

  for (size_t I = 0; I < Rows * Cols; ++I)
    ASSERT_EQ(Hits[I].load(), 1) << "cell " << I;
}

TEST_P(ParallelFor2DTest, RectsStayInBounds) {
  auto B = makeBackend();
  constexpr size_t Rows = 19, Cols = 31;
  std::atomic<bool> Ok{true};
  B->parallelFor2D(Rows, Cols,
                   [&Ok](size_t RB, size_t RE, size_t CB, size_t CE) {
                     if (RB >= RE || CB >= CE || RE > Rows || CE > Cols)
                       Ok.store(false);
                   });
  EXPECT_TRUE(Ok.load());
}

TEST_P(ParallelFor2DTest, CountsExactlyOneRegionPerCall) {
  auto B = makeBackend();
  uint64_t Before = B->regionsDispatched();
  B->parallelFor2D(16, 16, [](size_t, size_t, size_t, size_t) {});
  EXPECT_EQ(B->regionsDispatched(), Before + 1);

  // Empty spaces dispatch nothing.
  B->parallelFor2D(0, 16, [](size_t, size_t, size_t, size_t) {});
  B->parallelFor2D(16, 0, [](size_t, size_t, size_t, size_t) {});
  EXPECT_EQ(B->regionsDispatched(), Before + 1);
}

TEST_P(ParallelFor2DTest, NestedCallsFallBackInline) {
  auto B = makeBackend();
  constexpr size_t Rows = 8, Cols = 8;
  std::vector<std::atomic<int>> Hits(Rows * Cols);
  for (auto &H : Hits)
    H.store(0);
  B->parallelFor(0, 2, [&](size_t Begin, size_t End) {
    for (size_t I = Begin; I < End; ++I)
      B->parallelFor2D(Rows, Cols,
                       [&](size_t RB, size_t RE, size_t CB, size_t CE) {
                         for (size_t R = RB; R < RE; ++R)
                           for (size_t C = CB; C < CE; ++C)
                             Hits[R * Cols + C].fetch_add(
                                 1, std::memory_order_relaxed);
                       });
  });
  for (size_t I = 0; I < Rows * Cols; ++I)
    ASSERT_EQ(Hits[I].load(), 2) << "cell " << I;
}

TEST_P(ParallelFor2DTest, BlockReduce2DMatchesSerialSum) {
  auto B = makeBackend();
  constexpr size_t Rows = 37, Cols = 53;
  // Max of a cell-unique function: exact under any grouping, so the
  // result must be identical no matter how the space is carved.
  double Got = blockReduce2D<double>(
      Rows, Cols, *B, -1.0,
      [](size_t RB, size_t RE, size_t CB, size_t CE) {
        double M = -1.0;
        for (size_t R = RB; R < RE; ++R)
          for (size_t C = CB; C < CE; ++C)
            M = std::max(M, static_cast<double>(R * 1000 + C));
        return M;
      },
      [](double A, double Bv) { return std::max(A, Bv); });
  EXPECT_EQ(Got, static_cast<double>((Rows - 1) * 1000 + (Cols - 1)));
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, ParallelFor2DTest, ::testing::ValuesIn(allCases()),
    [](const ::testing::TestParamInfo<Backend2DCase> &Info) {
      return Info.param.label();
    });

//===----------------------------------------------------------------------===//
// Tiled vs flattened bit-identity on the real solvers
//===----------------------------------------------------------------------===//

namespace {

bool sameBits(double A, double B) {
  return std::memcmp(&A, &B, sizeof(double)) == 0;
}

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

void expectSameTelemetry(const TelemetryDigest &Ref,
                         const TelemetryDigest &Got,
                         const std::string &Label) {
  ASSERT_EQ(Ref.Counters.size(), Got.Counters.size()) << Label;
  for (size_t I = 0; I < Ref.Counters.size(); ++I) {
    EXPECT_EQ(Ref.Counters[I].first, Got.Counters[I].first) << Label;
    EXPECT_EQ(Ref.Counters[I].second, Got.Counters[I].second)
        << Label << " counter " << Ref.Counters[I].first;
  }
  ASSERT_EQ(Ref.Gauges.size(), Got.Gauges.size()) << Label;
  for (size_t I = 0; I < Ref.Gauges.size(); ++I) {
    const telemetry::GaugeSeries &RG = Ref.Gauges[I];
    const telemetry::GaugeSeries &GG = Got.Gauges[I];
    EXPECT_EQ(RG.Name, GG.Name) << Label;
    ASSERT_EQ(RG.Samples.size(), GG.Samples.size())
        << Label << " gauge " << RG.Name;
    for (size_t S = 0; S < RG.Samples.size(); ++S)
      EXPECT_TRUE(sameBits(RG.Samples[S].Value, GG.Samples[S].Value))
          << Label << " gauge " << RG.Name << " sample " << S;
  }
}

/// Runs \p Steps of a fresh solver on a (Kind, Workers, Schedule, Tile)
/// backend with full telemetry, returning the digest and the live solver.
template <typename SolverT>
TelemetryDigest runTiled(const Problem<2> &Prob, const SchemeConfig &Scheme,
                         BackendKind Kind, unsigned Workers,
                         const Schedule &Sched, const Tile &TileCfg,
                         unsigned Steps, std::unique_ptr<Backend> &Exec,
                         std::unique_ptr<SolverT> &Out) {
  Exec = createBackend(Kind, Workers, Sched, TileCfg);
  telemetry::reset();
  telemetry::setGaugeStride(1);
  telemetry::setEnabled(true);
  Out = std::make_unique<SolverT>(Prob, Scheme, *Exec);
  Out->advanceSteps(Steps);
  TelemetryDigest D = digest(telemetry::snapshot());
  telemetry::setEnabled(false);
  return D;
}

template <typename SolverT>
void checkTiledIdentity(const Problem<2> &Prob, const SchemeConfig &Scheme,
                        unsigned Steps) {
  // Reference: serial, tiling off (the legacy row-flattened execution).
  std::unique_ptr<Backend> RefExec;
  std::unique_ptr<SolverT> Ref;
  TelemetryDigest RefTelem = runTiled<SolverT>(
      Prob, Scheme, BackendKind::Serial, 1, Schedule::staticBlock(),
      Tile::off(), Steps, RefExec, Ref);
  ASSERT_FALSE(RefTelem.Counters.empty());

  const std::pair<Tile, Schedule> Tilings[] = {
      {Tile::automatic(), Schedule::staticBlock()},
      {Tile::sized(3, 7), Schedule::staticBlock()},
      {Tile::sized(8, 16), Schedule::dynamic(1)},
  };

  for (BackendKind Kind : kAllKinds)
    for (unsigned Workers : kWorkerCounts) {
      if (Kind == BackendKind::Serial && Workers != 1)
        continue;
      for (const auto &[T, Sched] : Tilings) {
        std::unique_ptr<Backend> Exec;
        std::unique_ptr<SolverT> S;
        TelemetryDigest Telem = runTiled<SolverT>(
            Prob, Scheme, Kind, Workers, Sched, T, Steps, Exec, S);
        std::string Label = std::string(Exec->name()) + "(" +
                            std::to_string(Workers) + ") tile=" + T.str() +
                            "/" + Sched.str();
        EXPECT_DOUBLE_EQ(Ref->time(), S->time()) << Label;
        EXPECT_EQ(maxFieldDifference(*Ref, *S), 0.0) << Label;
        // The telemetry stream — including the region counters — must
        // not notice tiling: one counted region per converted loop.
        expectSameTelemetry(RefTelem, Telem, Label);
      }
    }
}

class Tiled2DIdentityTest : public ::testing::Test {
protected:
  void TearDown() override {
    telemetry::setEnabled(false);
    telemetry::reset();
  }
};

} // namespace

TEST_F(Tiled2DIdentityTest, ArraySolverBenchmarkScheme) {
  checkTiledIdentity<ArraySolver<2>>(shockInteraction2D(24, 2.2, 12.0),
                                     SchemeConfig::benchmarkScheme(), 6);
}

TEST_F(Tiled2DIdentityTest, FusedSolverBenchmarkScheme) {
  checkTiledIdentity<FusedSolver<2>>(shockInteraction2D(24, 2.2, 12.0),
                                     SchemeConfig::benchmarkScheme(), 6);
}

TEST_F(Tiled2DIdentityTest, ArraySolverFigureScheme) {
  // WENO3 + the limiter exercise the widest stencils across tile seams.
  checkTiledIdentity<ArraySolver<2>>(shockInteraction2D(20, 2.2, 10.0),
                                     SchemeConfig::figureScheme(), 5);
}
