//===- bench/fig4_scaling.cpp - Paper Fig. 4 reproduction -----------------===//
//
// FIG4: "Wall clock time of a 1000 time step simulation on a 400x400
// grid" — SaC (persistent spin pool) vs Fortran (per-loop fork-join)
// across thread counts, third-order TVD Runge-Kutta + first-order
// piecewise-constant reconstruction (Section 5).
//
// The default run is scaled down so the whole bench suite completes in
// minutes on one core; pass --full for the paper-scale parameters.
// Expected shape (paper): the fortran model is fastest at 1 thread and
// its wall clock GROWS with the thread count at this grain size (per-loop
// thread management overhead), while the sac model starts slower but
// stays flat/scales — crossing below fortran as threads increase.
//
//===----------------------------------------------------------------------===//

#include "ScalingHarness.h"

#include "support/CommandLine.h"
#include "support/StrUtil.h"

using namespace sacfd;

int main(int Argc, const char **Argv) {
  bool Full = false;
  int Cells = 192;
  unsigned Steps = 60;
  unsigned Repeats = 3;
  std::string Threads = "1,2,4";

  ScalingOptions Opt;
  Opt.Base.Scheme = SchemeConfig::benchmarkScheme();
  CommandLine CL("fig4_scaling",
                 "FIG4: 1000-step 400x400 wall-clock, sac vs fortran "
                 "execution model, thread sweep");
  CL.addFlag("full", Full, "run the paper-scale 400x400 x 1000 steps");
  CL.addInt("cells", Cells, "grid cells per axis (scaled default)");
  CL.addUnsigned("steps", Steps, "time steps (scaled default)");
  CL.addUnsigned("repeats", Repeats, "repetitions per config (min wins)");
  CL.addString("threads", Threads, "comma-separated thread counts");
  CL.addString("model", Opt.Model,
               "restrict the sweep to one model: sac or fortran");
  // Engine/backend/threads are what the sweep varies, so only the other
  // RunConfig groups are exposed.
  Opt.Base.registerScenarioFlag(CL);
  Opt.Base.registerScheduleFlags(CL);
  Opt.Base.registerGuardFlags(CL);
  Opt.Base.registerTelemetryFlags(CL);
  if (!CL.parse(Argc, Argv))
    return CL.helpRequested() ? 0 : 1;
  Opt.Base.resolveOrExit();

  Opt.ExperimentId = "FIG4";
  Opt.Cells = Full ? 400 : static_cast<size_t>(Cells);
  Opt.Steps = Full ? 1000 : Steps;
  Opt.Repeats = Repeats;
  if (Full)
    Threads = "1,2,4,8,16";
  for (const std::string &Part : split(Threads, ','))
    if (auto N = parseInt(Part); N && *N > 0)
      Opt.ThreadCounts.push_back(static_cast<unsigned>(*N));
  if (Opt.ThreadCounts.empty())
    Opt.ThreadCounts = {1, 2, 4};

  return runScalingExperiment(Opt);
}
