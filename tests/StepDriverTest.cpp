//===- tests/StepDriverTest.cpp - One step rule under every driver --------===//
//
// Every stepping loop asks nextStep() what to do and executes the entry
// through EulerSolver::apply().  The table runs each end-time case —
// an ordinary clamp, an end time one ulp past the clock, and one
// 2 eps * t past it (both below the snap threshold) — through every
// driver: the bare solver, SolverRun plain, guarded (windows of 3),
// periodic-checkpointed, guarded and periodic together, and a 2-shard
// fleet.  All must land on the same clock bits, step count and field
// hash; the snap cases must take no step.
//
//===----------------------------------------------------------------------===//

#include "io/RunIo.h"
#include "shard/ShardCoordinator.h"
#include "solver/Problems.h"
#include "solver/Scenario.h"
#include "solver/SolverFactory.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <limits>
#include <string>
#include <tuple>

using namespace sacfd;

namespace {

/// Every driver first advances to this time (about ten steps on the
/// 32x32 interaction, the last one clamped), then to the case's end time.
constexpr double WarmEnd = 20.0;

uint64_t bitsOf(double V) {
  uint64_t B;
  std::memcpy(&B, &V, sizeof(B));
  return B;
}

/// Where a driver landed: clock bits, step count, field hash.
using Landing = std::tuple<uint64_t, unsigned, uint64_t>;

enum Driver { Solver, Run, Guarded, Periodic, GuardedPeriodic, Shards };
const char *const DriverNames[] = {"solver",   "run",      "guarded",
                                   "periodic", "guarded_periodic",
                                   "shards2"};

/// One end-time case: the end time as a function of the clock after the
/// warm-up and the CFL dt there, and whether it must snap.
struct StepCase {
  const char *Name;
  double (*End)(double Now, double CflDt);
  bool Snaps;
};

const StepCase Cases[] = {
    {"clamp", [](double Now, double CflDt) { return Now + 2.5 * CflDt; },
     false},
    {"one_ulp",
     [](double Now, double) {
       return std::nextafter(Now, std::numeric_limits<double>::infinity());
     },
     true},
    {"two_eps",
     [](double Now, double) {
       return Now + 2.0 * std::numeric_limits<double>::epsilon() * Now;
     },
     true},
};

Problem<2> problem() { return shockInteraction2D(32); }

/// The shard workers' configuration: fused engine, serial backend.
RunConfig serialConfig() {
  RunConfig Cfg;
  Cfg.Scheme = SchemeConfig::figureScheme();
  Cfg.Engine = EngineKind::Fused;
  Cfg.Backend = BackendKind::Serial;
  Cfg.Threads = 1;
  return Cfg;
}

/// Lands with driver \p D on \p End.  A checkpointed driver writes to a
/// directory of its own per case (\p CaseName), so rows run in parallel
/// never clear each other's generations.
Landing landWith(const char *CaseName, Driver D, double End) {
  if (D == Shards) {
    ShardOptions Opt;
    Opt.Shards = 2;
    Opt.Scheme = SchemeConfig::figureScheme();
    Opt.Engine = EngineKind::Fused;
    ShardCoordinator Coord(problem(), Opt);
    EXPECT_TRUE(Coord.start());
    EXPECT_TRUE(Coord.advanceTo(WarmEnd));
    EXPECT_TRUE(Coord.advanceTo(End));
    return {bitsOf(Coord.time()), Coord.stepCount(), Coord.stateHash()};
  }
  RunConfig Cfg = serialConfig();
  Cfg.Guard.Enabled = D == Guarded || D == GuardedPeriodic;
  Cfg.Guard.Every = 3;
  const bool Checkpointed = D == Periodic || D == GuardedPeriodic;
  if (Checkpointed) {
    Cfg.Checkpoint.Dir = std::string(::testing::TempDir()) +
                         "/step-driver-" + CaseName + "_" + DriverNames[D];
    std::filesystem::remove_all(Cfg.Checkpoint.Dir);
    Cfg.Checkpoint.Every = 2;
  }
  SolverRun<2> Run(problem(), Cfg);
  DurabilitySetup Durable = setupDurableRun(Run);
  if (D == Solver) {
    Run.solver().advanceTo(WarmEnd);
    Run.solver().advanceTo(End);
  } else {
    EXPECT_TRUE(Run.advanceTo(WarmEnd));
    EXPECT_TRUE(Run.advanceTo(End));
  }
  if (Checkpointed) {
    EXPECT_FALSE(Durable.Store->generations().empty())
        << "the periodic hook never fired";
  }
  return {bitsOf(Run.solver().time()), Run.solver().stepCount(),
          fieldStateHash(Run.solver())};
}

class StepDriverTest
    : public ::testing::TestWithParam<std::tuple<size_t, Driver>> {};

} // namespace

TEST(StepRule, SnapRunsNoGetDtAndClampIsExact) {
  unsigned Calls = 0;
  auto Cfl = [&Calls] {
    ++Calls;
    return 0.25;
  };
  const double OneUlp = std::nextafter(1.0, 2.0);
  StepEntry Snap = nextStep(1.0, OneUlp, Cfl);
  EXPECT_TRUE(Snap.isSnap());
  EXPECT_EQ(bitsOf(Snap.Value), bitsOf(OneUlp));
  EXPECT_EQ(Calls, 0u);

  StepEntry Clamp = nextStep(1.0, 1.1, Cfl);
  EXPECT_FALSE(Clamp.isSnap());
  EXPECT_EQ(bitsOf(Clamp.Value), bitsOf(1.1 - 1.0));
  StepEntry Free =
      nextStep(1.0, std::numeric_limits<double>::infinity(), Cfl);
  EXPECT_FALSE(Free.isSnap());
  EXPECT_EQ(Free.Value, 0.25);
  EXPECT_EQ(Calls, 2u);
}

TEST_P(StepDriverTest, LandsOnTheSolverAdvanceToState) {
  const StepCase &Case = Cases[std::get<0>(GetParam())];
  const Driver D = std::get<1>(GetParam());

  SolverRun<2> Ref(problem(), serialConfig());
  Ref.solver().advanceTo(WarmEnd);
  const unsigned WarmSteps = Ref.solver().stepCount();
  const double End = Case.End(Ref.solver().time(), Ref.solver().computeDt());
  Ref.solver().advanceTo(End);
  const Landing Want = {bitsOf(Ref.solver().time()), Ref.solver().stepCount(),
                        fieldStateHash(Ref.solver())};
  ASSERT_EQ(std::get<0>(Want), bitsOf(End));
  if (Case.Snaps) {
    ASSERT_EQ(std::get<1>(Want), WarmSteps);
  } else {
    ASSERT_GT(std::get<1>(Want), WarmSteps);
  }
  EXPECT_EQ(landWith(Case.Name, D, End), Want);
}

INSTANTIATE_TEST_SUITE_P(
    AllDrivers, StepDriverTest,
    ::testing::Combine(::testing::Range<size_t>(0, std::size(Cases)),
                       ::testing::Values(Solver, Run, Guarded, Periodic,
                                         GuardedPeriodic, Shards)),
    [](const ::testing::TestParamInfo<std::tuple<size_t, Driver>> &Info) {
      return std::string(Cases[std::get<0>(Info.param)].Name) + "_" +
             DriverNames[std::get<1>(Info.param)];
    });
