//===- bench/guard_overhead.cpp - Step-guard cost measurement -------------===//
//
// Quantifies what the breakdown guard costs on a healthy run and what a
// recovery cycle costs when the solver does break.  Three measurements
// on the 2D interaction workload:
//
//   unguarded        plain advanceSteps, the baseline
//   guarded every=K  health scan after each K-step window (K = 1,2,4,8)
//   recovery         guarded run with a persistent mid-run fault that
//                    forces the full retry + floor cycle
//
// The scan is a single parallel reduction over the interior, so the
// healthy-path overhead should shrink roughly like 1/K with cadence.
//
// One untimed warm-up solve runs first, then the --iters repetitions
// are interleaved round-robin across every configuration (median per
// configuration wins), so warm-up and drift over the run hit every row
// alike instead of inflating whichever configuration runs first.
//
//===----------------------------------------------------------------------===//

#include "solver/Problems.h"
#include "solver/SolverFactory.h"
#include "support/CommandLine.h"
#include "support/Timer.h"

#include <cstdio>
#include <string>
#include <vector>

using namespace sacfd;

namespace {

struct Configuration {
  std::string Label;
  RunConfig Cfg;
};

} // namespace

int main(int Argc, const char **Argv) {
  int Cells = 160;
  unsigned Steps = 60;
  unsigned Iters = 3;
  bool Full = false;
  RunConfig Cfg;
  Cfg.Scheme = SchemeConfig::benchmarkScheme();

  CommandLine CL("guard_overhead",
                 "cost of the step guard: healthy-path scan overhead "
                 "per cadence and the price of a recovery cycle");
  CL.addInt("cells", Cells, "2D grid cells per axis");
  CL.addUnsigned("steps", Steps, "solver steps per measurement");
  CL.addUnsigned("iters", Iters,
                 "timing repetitions per configuration (median wins)");
  CL.addFlag("full", Full, "larger grid and more steps");
  // The guard configurations are what this bench sweeps, so only the
  // non-guard RunConfig groups are exposed.
  Cfg.registerSchemeFlags(CL);
  Cfg.registerEngineFlag(CL);
  Cfg.registerBackendFlags(CL);
  Cfg.registerScheduleFlags(CL);
  if (!CL.parse(Argc, Argv))
    return CL.helpRequested() ? 0 : 1;
  if (Full) {
    Cells = 320;
    Steps = 120;
  }
  if (Iters == 0)
    Iters = 1;
  Cfg.resolveOrExit();

  Problem<2> Prob = shockInteraction2D(static_cast<size_t>(Cells), 2.2,
                                       static_cast<double>(Cells) / 2.0);

  std::printf("# guard_overhead: %dx%d, %u steps, %s, median of %u "
              "interleaved\n",
              Cells, Cells, Steps, Cfg.executionStr().c_str(), Iters);
  std::printf("%-24s %12s %12s %10s\n", "configuration", "step[ms]",
              "steps/s", "vs base");

  // The baseline has no guard at all.  Cost is compared per step
  // actually taken, because guarded runs round the step count up to
  // whole windows.
  std::vector<Configuration> Configs = {{"unguarded", Cfg}};
  // Healthy-path overhead at several scan cadences.
  for (unsigned Every : {1u, 2u, 4u, 8u}) {
    RunConfig GuardedCfg = Cfg;
    GuardedCfg.Guard.Enabled = true;
    GuardedCfg.Guard.Every = Every;
    Configs.push_back({"guarded every=" + std::to_string(Every), GuardedCfg});
  }
  // Recovery: a persistent fault halfway through forces the guard all
  // the way down the retry ladder and into the floor stage.
  RunConfig RecoveryCfg = Cfg;
  RecoveryCfg.Guard.Enabled = true;
  RecoveryCfg.Guard.PoisonStep = Steps / 2;
  RecoveryCfg.Guard.PoisonCells = 4;
  Configs.push_back({"recovery (1 breakdown)", RecoveryCfg});

  // Seconds per step of one fresh solve; a guarded solve leaves its
  // guard's summary in Detail.
  std::string Detail;
  auto RunOnce = [&](const RunConfig &C) {
    WallTimer T;
    SolverRun<2> Run = makeSolverRun(Prob, C);
    Run.advanceSteps(Steps);
    double PerStep = T.seconds() / Run.solver().stepCount();
    if (Run.guard())
      Detail = Run.guard()->summary();
    return PerStep;
  };

  RunOnce(Cfg); // untimed warm-up
  std::vector<TimingSamples> PerStep(Configs.size());
  for (unsigned I = 0; I < Iters; ++I)
    for (size_t C = 0; C < Configs.size(); ++C)
      PerStep[C].add(RunOnce(Configs[C].Cfg));

  const double BasePerStep = PerStep[0].median();
  for (size_t C = 0; C < Configs.size(); ++C) {
    double Med = PerStep[C].median();
    std::printf("%-24s %12.4f %12.1f %9.2fx\n", Configs[C].Label.c_str(),
                Med * 1e3, 1.0 / Med, Med / BasePerStep);
  }
  // The recovery configuration runs last in every round.
  std::printf("# recovery detail: %s\n", Detail.c_str());
  return 0;
}
