//===- bench/ablation_tasks.cpp - A7: task backend vs pool backends -------===//
//
// A7: prices the work-stealing task backend against the spin-pool and
// fork-join backends on the Fig. 4 shock-interaction workload at two
// grains: the FIG4 default grid and an EXT5-style larger grid, all on
// the fused engine.  Determinism makes this a pure performance
// knob — every row computes bit-identical fields — so the acceptance
// question is whether tasks reach parity or better with fork-join at
// the highest worker count.
//
// --json writes the table as a machine-readable artifact
// (artifacts/BENCH_tasks.json in CI).
//
//===----------------------------------------------------------------------===//

#include "solver/Problems.h"
#include "solver/SolverFactory.h"
#include "support/CommandLine.h"
#include "support/StrUtil.h"
#include "support/Timer.h"

#include <cstdio>
#include <string>
#include <vector>

using namespace sacfd;

namespace {

struct TasksRow {
  std::string Grid; ///< "fig4" or "ext5"
  size_t Cells;
  unsigned Threads;
  std::string Backend;
  double Seconds;
  double VsForkJoin; ///< Seconds / fork-join's seconds at same grid+threads
};

double runOnce(const RunConfig &Cfg, size_t Cells, unsigned Steps,
               unsigned Repeats) {
  TimingSamples Samples;
  for (unsigned Rep = 0; Rep < Repeats; ++Rep) {
    Problem<2> Prob = shockInteraction2D(Cells, 2.2,
                                         static_cast<double>(Cells) / 2.0);
    SolverRun<2> Run = makeSolverRun(Prob, Cfg);
    WallTimer Timer;
    Run.advanceSteps(Steps);
    Samples.add(Timer.seconds());
  }
  return Samples.min();
}

bool writeJson(const std::string &Path, unsigned Steps,
               const std::vector<TasksRow> &Rows) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fprintf(F,
               "{\n  \"experiment\": \"tasks_ablation\",\n"
               "  \"steps\": %u,\n  \"rows\": [\n",
               Steps);
  for (size_t I = 0; I < Rows.size(); ++I) {
    const TasksRow &R = Rows[I];
    std::fprintf(F,
                 "    {\"grid\": \"%s\", \"cells\": %zu, \"threads\": %u, "
                 "\"backend\": \"%s\", "
                 "\"seconds\": %.6f, \"vs_forkjoin\": %.4f}%s\n",
                 R.Grid.c_str(), R.Cells, R.Threads, R.Backend.c_str(),
                 R.Seconds, R.VsForkJoin,
                 I + 1 < Rows.size() ? "," : "");
  }
  std::fprintf(F, "  ]\n}\n");
  std::fclose(F);
  return true;
}

} // namespace

int main(int Argc, const char **Argv) {
  bool Full = false;
  int Fig4Cells = 96;
  int Ext5Cells = 192;
  unsigned Steps = 20;
  unsigned Repeats = 1;
  std::string Threads = "1,2,4,8";
  std::string JsonPath;
  RunConfig Cfg;
  Cfg.Scheme = SchemeConfig::benchmarkScheme();
  Cfg.Engine = EngineKind::Fused;

  CommandLine CL("ablation_tasks",
                 "A7: task backend vs the "
                 "spin-pool and fork-join backends on FIG4/EXT5 grids");
  CL.addFlag("full", Full, "larger grids and more steps");
  CL.addInt("cells", Fig4Cells, "FIG4 grid cells per axis");
  CL.addInt("ext5-cells", Ext5Cells, "EXT5 grid cells per axis");
  CL.addUnsigned("steps", Steps, "time steps per run");
  CL.addUnsigned("repeats", Repeats, "repetitions per config (min wins)");
  CL.addString("threads", Threads, "comma-separated worker counts");
  CL.addString("json", JsonPath, "write the table to this JSON file");
  // The sweep varies backend and threads itself; the scheme
  // and schedule knobs come from the shared surface.
  Cfg.registerSchemeFlags(CL);
  Cfg.registerScheduleFlags(CL);
  if (!CL.parse(Argc, Argv))
    return CL.helpRequested() ? 0 : 1;
  if (Full) {
    Fig4Cells = 160;
    Ext5Cells = 384;
    Steps = 60;
  }
  if (Repeats == 0)
    Repeats = 1;
  Cfg.resolveOrExit();

  std::vector<unsigned> ThreadCounts;
  for (const std::string &Part : split(Threads, ','))
    if (auto N = parseInt(Part); N && *N > 0)
      ThreadCounts.push_back(static_cast<unsigned>(*N));
  if (ThreadCounts.empty())
    ThreadCounts = {1, 2, 4, 8};

  struct GridSpec {
    const char *Name;
    size_t Cells;
  };
  const GridSpec Grids[] = {{"fig4", static_cast<size_t>(Fig4Cells)},
                            {"ext5", static_cast<size_t>(Ext5Cells)}};
  const BackendKind Backends[] = {BackendKind::ForkJoin,
                                  BackendKind::SpinPool, BackendKind::Tasks};

  std::printf("# A7: fused engine, %u steps, min of %u\n", Steps, Repeats);
  std::printf("%-6s %6s %8s %-10s %10s %12s\n", "grid", "cells",
              "threads", "backend", "wall[s]", "vs forkjoin");

  std::vector<TasksRow> Rows;
  bool TasksReachParity = true;
  for (const GridSpec &G : Grids)
    for (unsigned T : ThreadCounts) {
      double ForkJoinSeconds = 0.0;
      for (BackendKind B : Backends) {
        RunConfig Leg = Cfg;
        Leg.Backend = B;
        Leg.Threads = T;
        double Seconds = runOnce(Leg, G.Cells, Steps, Repeats);
        if (B == BackendKind::ForkJoin)
          ForkJoinSeconds = Seconds;
        double Ratio =
            ForkJoinSeconds > 0.0 ? Seconds / ForkJoinSeconds : 1.0;
        Rows.push_back(
            {G.Name, G.Cells, T, backendKindName(B), Seconds, Ratio});
        std::printf("%-6s %6zu %8u %-10s %10.3f %12.2f\n", G.Name, G.Cells,
                    T, backendKindName(B), Seconds, Ratio);
        // Acceptance: at the top worker count, tasks must not lose to
        // fork-join (its per-dispatch thread spawns are pure overhead).
        if (B == BackendKind::Tasks && T == ThreadCounts.back() &&
            Ratio > 1.10)
          TasksReachParity = false;
      }
    }
  std::printf("# tasks vs fork-join at %u workers: %s\n", ThreadCounts.back(),
              TasksReachParity ? "parity or better" : "slower");

  if (!JsonPath.empty()) {
    if (!writeJson(JsonPath, Steps, Rows)) {
      std::fprintf(stderr, "error: cannot write %s\n", JsonPath.c_str());
      return 1;
    }
    std::printf("# wrote %s\n", JsonPath.c_str());
  }
  return 0;
}
