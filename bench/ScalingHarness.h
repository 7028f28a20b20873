//===- bench/ScalingHarness.h - Fig. 4 measurement harness -----*- C++ -*-===//
//
// Part of SacFD, a reproduction of "Numerical Simulations of Unsteady Shock
// Wave Interactions Using SaC and Fortran-90" (PaCT 2009).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared driver for the thread-scaling experiments (paper Fig. 4 and the
/// Section 5 2000x2000 sweep): runs the 2D shock-interaction workload for
/// a fixed number of time steps on each (engine, backend, threads)
/// configuration and prints one row per run.
///
/// Engine/backend pairing follows the paper's comparison:
///   sac      ArraySolver  on SpinBarrierPool (persistent pool, spin sync)
///   fortran  FusedSolver  on ForkJoinBackend (thread team per loop)
/// plus the serial single-core reference for both engines.
///
/// Every leg is built through the RunConfig/SolverFactory surface: the
/// harness overrides engine/backend/threads per leg and inherits the
/// rest — scheme, schedule/tile, guard, telemetry — from Opt.Base, so
/// the sweep honors --tile/--schedule/--guard exactly like the tools.
///
//===----------------------------------------------------------------------===//

#ifndef SACFD_BENCH_SCALINGHARNESS_H
#define SACFD_BENCH_SCALINGHARNESS_H

#include "io/TelemetryExport.h"
#include "solver/Diagnostics.h"
#include "solver/Problems.h"
#include "solver/SolverFactory.h"
#include "support/Env.h"
#include "support/Timer.h"

#include <cstdio>
#include <string>
#include <vector>

namespace sacfd {

struct ScalingOptions {
  const char *ExperimentId;
  size_t Cells;        ///< grid cells per axis
  unsigned Steps;      ///< fixed time steps (paper: 1000)
  unsigned Repeats;    ///< timing repetitions, min is reported
  std::vector<unsigned> ThreadCounts;
  /// Restrict the sweep to one model ("sac" or "fortran"; empty = both).
  /// With --telemetry this keeps the solver-stage spans single-engine.
  std::string Model;
  /// Everything else a run is shaped by — scheme, schedule/tile, guard,
  /// telemetry.  The sweep overrides Engine/Backend/Threads per leg.
  RunConfig Base;
};

/// One configuration's measurement.
struct ScalingRow {
  std::string Model; ///< "sac" or "fortran"
  unsigned Threads;
  double Seconds;
};

inline double runOneScalingConfig(const ScalingOptions &Opt, bool SacModel,
                                  unsigned Threads,
                                  double *RegionsPerStep = nullptr) {
  TimingSamples Samples;
  for (unsigned Rep = 0; Rep < Opt.Repeats; ++Rep) {
    // dx = 1 at every size, like the paper's 400x400 reference grid.
    // --scenario (when the bench registered it) swaps in any 2D gallery
    // workload at the sweep resolution instead.
    Problem<2> Prob = resolveProblem(
        shockInteraction2D(Opt.Cells, 2.2,
                           static_cast<double>(Opt.Cells) / 2.0),
        Opt.Base);

    RunConfig Cfg = Opt.Base;
    Cfg.Engine = SacModel ? EngineKind::Array : EngineKind::Fused;
    Cfg.Backend = Threads <= 1 ? BackendKind::Serial
                               : (SacModel ? BackendKind::SpinPool
                                           : BackendKind::ForkJoin);
    Cfg.Threads = Threads <= 1 ? 1 : Threads;
    SolverRun<2> Run = makeSolverRun(Prob, Cfg);

    WallTimer Timer;
    Run.advanceSteps(Opt.Steps);
    Samples.add(Timer.seconds());

    if (RegionsPerStep)
      *RegionsPerStep =
          static_cast<double>(Run.backend().regionsDispatched()) /
          static_cast<double>(Opt.Steps);

    FieldHealth<2> H = fieldHealth(Run.solver());
    if (!H.AllFinite)
      std::fprintf(stderr, "warning: %s run lost finiteness\n",
                   SacModel ? "sac" : "fortran");
  }
  return Samples.min();
}

/// Runs the full sweep and prints the Fig. 4 table.
inline int runScalingExperiment(const ScalingOptions &Opt) {
  bool Guarded = Opt.Base.Guard.Enabled;
  std::printf("# %s: wall clock of a %u-step simulation on a %zux%zu "
              "grid (RK3 + piecewise-constant reconstruction)%s\n",
              Opt.ExperimentId, Opt.Steps, Opt.Cells, Opt.Cells,
              Guarded ? ", step-guarded" : "");
  std::printf("# models: sac = array solver on persistent spin pool; "
              "fortran = fused solver on per-loop fork-join\n");
  if (Opt.Base.TileCfg.Enabled)
    std::printf("# 2D tiling: %s\n", Opt.Base.TileCfg.str().c_str());
  std::printf("# host hardware threads: %u (thread counts beyond this "
              "measure oversubscribed dispatch overhead only)\n",
              hardwareThreadCount());
  std::printf("%-8s %8s %12s %14s\n", "model", "threads", "wall[s]",
              "vs fortran@1");

  double FortranBase = 0.0;
  std::vector<ScalingRow> Rows;
  double RegionsPerStep[2] = {0.0, 0.0};
  if (!Opt.Model.empty() && Opt.Model != "sac" && Opt.Model != "fortran") {
    std::fprintf(stderr, "error: unknown model '%s' (sac or fortran)\n",
                 Opt.Model.c_str());
    return 1;
  }
  for (bool SacModel : {false, true}) {
    if (!Opt.Model.empty() && Opt.Model != (SacModel ? "sac" : "fortran"))
      continue;
    for (unsigned T : Opt.ThreadCounts) {
      double Seconds = runOneScalingConfig(Opt, SacModel, T,
                                           &RegionsPerStep[SacModel]);
      Rows.push_back({SacModel ? "sac" : "fortran", T, Seconds});
      if (!SacModel && T == Opt.ThreadCounts.front())
        FortranBase = Seconds;
    }
  }
  std::printf("# parallel regions per time step: fortran %.1f, sac %.1f "
              "(each pays one dispatch; the models differ in its cost)\n",
              RegionsPerStep[0], RegionsPerStep[1]);

  for (const ScalingRow &Row : Rows)
    std::printf("%-8s %8u %12.3f %14.2f\n", Row.Model.c_str(), Row.Threads,
                Row.Seconds,
                FortranBase > 0.0 ? Row.Seconds / FortranBase : 0.0);

  if (Opt.Base.Telemetry.enabled()) {
    // One report for the whole sweep: a T=1 entry contributes the
    // region.serial spans, the sac legs region.spin_pool, the fortran
    // legs region.fork_join.
    std::string ThreadList;
    for (unsigned T : Opt.ThreadCounts)
      ThreadList += (ThreadList.empty() ? "" : ",") + std::to_string(T);
    TelemetryMeta Meta = {
        {"program", Opt.ExperimentId},
        {"cells", std::to_string(Opt.Cells)},
        {"steps", std::to_string(Opt.Steps)},
        {"threads", ThreadList},
        {"schedule", Opt.Base.Sched.str()},
        {"tile", Opt.Base.TileCfg.str()},
        {"guard", Guarded ? "on" : "off"},
    };
    if (!writeTelemetryJson(Opt.Base.Telemetry.Path, telemetry::snapshot(),
                            Meta)) {
      std::fprintf(stderr, "error: cannot write telemetry JSON to %s\n",
                   Opt.Base.Telemetry.Path.c_str());
      return 1;
    }
    std::printf("# telemetry written to %s\n",
                Opt.Base.Telemetry.Path.c_str());
  }
  return 0;
}

} // namespace sacfd

#endif // SACFD_BENCH_SCALINGHARNESS_H
