//===- bench/checkpoint_overhead.cpp - Durable-run cost measurement -------===//
//
// Quantifies what periodic checkpointing costs on the Fig. 4 interaction
// workload.  Three cadences, median-of-N per-step seconds each:
//
//   every=0     plain advanceSteps, the baseline (durability off)
//   every=100   the default production cadence — the acceptance target
//               is < 5% overhead here
//   every=10    an aggressively short cadence, to show the scaling
//
// Each checkpoint is a full atomic header+payload write through the
// CheckpointStore (both fsyncs included; the manifest is stamped once,
// by the untimed set-up's claim), so the measured overhead is the real
// durability price, not just the serialization.  --json writes the
// table as a machine-readable artifact (artifacts/BENCH_checkpoint.json
// in CI).
//
//===----------------------------------------------------------------------===//

#include "io/RunIo.h"
#include "solver/Problems.h"
#include "support/CommandLine.h"
#include "support/Timer.h"

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

using namespace sacfd;

namespace {

struct CadenceRow {
  unsigned Every;         ///< --checkpoint-every value (0 = durability off)
  double PerStepSeconds;  ///< median-of-iters per-step wall time
  double VsBase;          ///< PerStepSeconds / the every=0 baseline
  unsigned Generations;   ///< checkpoints on disk after one run
};

/// Median-of-Iters per-step seconds of one cadence.  Fresh solver and a
/// wiped checkpoint directory per iteration so every run pays the same
/// write pattern.
double measurePerStep(unsigned Iters, const Problem<2> &Prob,
                      const RunConfig &Cfg, unsigned Steps,
                      unsigned *GenerationsOut) {
  TimingSamples PerStep;
  for (unsigned I = 0; I < Iters; ++I) {
    if (!Cfg.Checkpoint.Dir.empty())
      std::filesystem::remove_all(Cfg.Checkpoint.Dir);
    SolverRun<2> Run(Prob, Cfg);
    setupDurableRun(Run);
    WallTimer T;
    Run.advanceSteps(Steps);
    PerStep.add(T.seconds() / Run.solver().stepCount());
  }
  if (GenerationsOut)
    *GenerationsOut =
        Cfg.Checkpoint.Dir.empty()
            ? 0
            : static_cast<unsigned>(
                  CheckpointStore(Cfg.Checkpoint.Dir).generations().size());
  return PerStep.median();
}

bool writeJson(const std::string &Path, int Cells, unsigned Steps,
               unsigned Threads, const std::vector<CadenceRow> &Rows) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fprintf(F,
               "{\n  \"experiment\": \"checkpoint_overhead\",\n"
               "  \"cells\": %d,\n  \"steps\": %u,\n"
               "  \"threads\": %u,\n  \"rows\": [\n",
               Cells, Steps, Threads);
  for (size_t I = 0; I < Rows.size(); ++I) {
    const CadenceRow &R = Rows[I];
    std::fprintf(F,
                 "    {\"every\": %u, \"seconds_per_step\": %.6e, "
                 "\"vs_base\": %.4f, \"generations\": %u}%s\n",
                 R.Every, R.PerStepSeconds, R.VsBase, R.Generations,
                 I + 1 < Rows.size() ? "," : "");
  }
  std::fprintf(F, "  ]\n}\n");
  std::fclose(F);
  return true;
}

} // namespace

int main(int Argc, const char **Argv) {
  int Cells = 128;
  unsigned Steps = 200;
  unsigned Iters = 3;
  std::string Dir = "checkpoint_overhead.ckpt";
  std::string JsonPath;
  RunConfig Cfg;
  Cfg.Scheme = SchemeConfig::benchmarkScheme();

  CommandLine CL("checkpoint_overhead",
                 "cost of periodic durable checkpoints on the Fig. 4 "
                 "interaction workload, per cadence");
  CL.addInt("cells", Cells, "2D grid cells per axis");
  CL.addUnsigned("steps", Steps, "solver steps per measurement");
  CL.addUnsigned("iters", Iters,
                 "timing repetitions per cadence (median wins)");
  CL.addString("dir", Dir, "scratch checkpoint directory (wiped per run)");
  CL.addString("json", JsonPath, "write the table to this JSON file");
  // The checkpoint cadences are what this bench sweeps, so only the
  // non-durability RunConfig groups are exposed.
  Cfg.registerSchemeFlags(CL);
  Cfg.registerEngineFlag(CL);
  Cfg.registerBackendFlags(CL);
  Cfg.registerScheduleFlags(CL);
  if (!CL.parse(Argc, Argv))
    return CL.helpRequested() ? 0 : 1;
  if (Iters == 0)
    Iters = 1;
  Cfg.resolveOrExit();

  Problem<2> Prob = shockInteraction2D(static_cast<size_t>(Cells), 2.2,
                                       static_cast<double>(Cells) / 2.0);

  std::printf("# checkpoint_overhead: %dx%d, %u steps, %s, median of %u\n",
              Cells, Cells, Steps, Cfg.executionStr().c_str(), Iters);
  std::printf("%-24s %12s %12s %10s %8s\n", "configuration", "step[ms]",
              "steps/s", "vs base", "ckpts");

  std::vector<CadenceRow> Rows;
  double BasePerStep = 0.0;
  for (unsigned Every : {0u, 100u, 10u}) {
    RunConfig RunCfg = Cfg;
    RunCfg.Checkpoint.Dir = Every == 0 ? std::string() : Dir;
    RunCfg.Checkpoint.Every = Every;
    unsigned Generations = 0;
    double PerStep =
        measurePerStep(Iters, Prob, RunCfg, Steps, &Generations);
    if (Every == 0)
      BasePerStep = PerStep;
    CadenceRow Row{Every, PerStep, PerStep / BasePerStep, Generations};
    Rows.push_back(Row);
    char Label[32];
    if (Every == 0)
      std::snprintf(Label, sizeof(Label), "no checkpoints");
    else
      std::snprintf(Label, sizeof(Label), "checkpoint every=%u", Every);
    std::printf("%-24s %12.4f %12.1f %9.2fx %8u\n", Label, PerStep * 1e3,
                1.0 / PerStep, Row.VsBase, Generations);
  }
  std::filesystem::remove_all(Dir);

  if (!JsonPath.empty()) {
    if (!writeJson(JsonPath, Cells, Steps, Cfg.Threads, Rows)) {
      std::fprintf(stderr, "error: cannot write %s\n", JsonPath.c_str());
      return 1;
    }
    std::printf("# wrote %s\n", JsonPath.c_str());
  }
  return 0;
}
