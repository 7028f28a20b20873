//===- bench/ablation_tiling.cpp - A5: 2D tiling vs row flattening --------===//
//
// A5: prices the tiled 2D runtime against the legacy row-flattened
// execution on the Fig. 4 hot loops.  For each backend the sweep runs
// the 2D shock-interaction workload with tiling off (the row-flattening
// baseline), with `--tile auto`, and at a few fixed tile sizes, and
// reports every configuration's wall clock relative to that backend's
// flattened baseline.  Determinism makes this a pure performance knob —
// every row computes bit-identical fields.
//
// The verdict compares `auto` alone against flat: picking the best of
// several tiled configurations after the fact would credit tiling with
// whichever configuration the noise favoured.  Repeats are interleaved
// across the configurations (min per configuration wins), so drift over
// the run hits every row alike.  Tiles are dealt by each backend's own
// partitioner under its default static schedule.
//
// --json writes the table as a machine-readable artifact
// (artifacts/BENCH_tiling.json in CI).
//
//===----------------------------------------------------------------------===//

#include "solver/Problems.h"
#include "solver/SolverFactory.h"
#include "support/CommandLine.h"
#include "support/Timer.h"

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <string>
#include <vector>

using namespace sacfd;

namespace {

struct TilingRow {
  std::string Backend;
  std::string TileSpec;
  double Seconds;
  double VsFlat; ///< Seconds / the same backend's tile-off seconds
};

double runOnce(const RunConfig &Cfg, size_t Cells, unsigned Steps) {
  Problem<2> Prob =
      shockInteraction2D(Cells, 2.2, static_cast<double>(Cells) / 2.0);
  SolverRun<2> Run = makeSolverRun(Prob, Cfg);
  WallTimer Timer;
  Run.advanceSteps(Steps);
  return Timer.seconds();
}

bool writeJson(const std::string &Path, size_t Cells, unsigned Steps,
               unsigned Threads, const std::vector<TilingRow> &Rows) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fprintf(F,
               "{\n  \"experiment\": \"tiling_ablation\",\n"
               "  \"cells\": %zu,\n  \"steps\": %u,\n"
               "  \"threads\": %u,\n  \"rows\": [\n",
               Cells, Steps, Threads);
  for (size_t I = 0; I < Rows.size(); ++I) {
    const TilingRow &R = Rows[I];
    std::fprintf(F,
                 "    {\"backend\": \"%s\", \"tile\": \"%s\", "
                 "\"seconds\": %.6f, \"vs_flat\": %.4f}%s\n",
                 R.Backend.c_str(), R.TileSpec.c_str(), R.Seconds, R.VsFlat,
                 I + 1 < Rows.size() ? "," : "");
  }
  std::fprintf(F, "  ]\n}\n");
  std::fclose(F);
  return true;
}

} // namespace

int main(int Argc, const char **Argv) {
  bool Full = false;
  int Cells = 160;
  unsigned Steps = 30;
  unsigned Repeats = 3;
  std::string JsonPath;
  RunConfig Cfg;
  Cfg.Scheme = SchemeConfig::benchmarkScheme();

  CommandLine CL("ablation_tiling",
                 "A5: tile size x backend sweep of the 2D runtime vs "
                 "row-flattened execution");
  CL.addFlag("full", Full, "larger grid and more steps");
  CL.addInt("cells", Cells, "grid cells per axis");
  CL.addUnsigned("steps", Steps, "time steps per run");
  CL.addUnsigned("repeats", Repeats,
                 "interleaved repetitions per config (min wins)");
  CL.addString("json", JsonPath, "write the table to this JSON file");
  // The sweep varies backend and tile itself; engine/threads/scheme come
  // from the shared surface.
  Cfg.registerSchemeFlags(CL);
  Cfg.registerEngineFlag(CL);
  CL.addUnsigned("threads", Cfg.Threads, "worker threads");
  if (!CL.parse(Argc, Argv))
    return CL.helpRequested() ? 0 : 1;
  if (Full) {
    Cells = 400;
    Steps = 100;
  }
  if (Repeats == 0)
    Repeats = 1;
  Cfg.resolveOrExit();

  const BackendKind Backends[] = {BackendKind::Serial, BackendKind::SpinPool,
                                  BackendKind::ForkJoin};
  // Index 0 is the flat baseline, index 1 the verdict row.
  const char *TileSpecs[] = {"off",    "auto",  "16x64",
                             "32x128", "64x256", "8x512"};
  constexpr size_t NumSpecs = std::size(TileSpecs);

  std::printf("# A5: %s engine, %dx%d grid, %u steps, %u threads, "
              "min of %u interleaved\n",
              engineKindName(Cfg.Engine), Cells, Cells, Steps, Cfg.Threads,
              Repeats);
  std::printf("%-10s %-8s %10s %9s\n", "backend", "tile", "wall[s]",
              "vs flat");

  std::vector<TilingRow> Rows;
  for (BackendKind Kind : Backends) {
    RunConfig Leg = Cfg;
    Leg.Backend = Kind;
    if (Kind == BackendKind::Serial)
      Leg.Threads = 1;

    std::vector<double> Best(NumSpecs, 1e300);
    for (unsigned Rep = 0; Rep < Repeats; ++Rep)
      for (size_t I = 0; I < NumSpecs; ++I) {
        Leg.TileCfg = Tile::parseSpec(TileSpecs[I]).Value.value();
        Best[I] = std::min(
            Best[I], runOnce(Leg, static_cast<size_t>(Cells), Steps));
      }

    auto VsFlat = [&](size_t I) {
      return Best[0] > 0.0 ? Best[I] / Best[0] : 0.0;
    };
    for (size_t I = 0; I < NumSpecs; ++I) {
      Rows.push_back({backendKindName(Kind), TileSpecs[I], Best[I],
                      VsFlat(I)});
      std::printf("%-10s %-8s %10.3f %9.2f\n", backendKindName(Kind),
                  TileSpecs[I], Best[I], VsFlat(I));
    }
    double Auto = VsFlat(1);
    std::printf("# %s auto vs flat: %.2f (%s)\n", backendKindName(Kind), Auto,
                Auto <= 1.05 ? "parity or better" : "slower");
  }

  if (!JsonPath.empty()) {
    if (!writeJson(JsonPath, static_cast<size_t>(Cells), Steps, Cfg.Threads,
                   Rows)) {
      std::fprintf(stderr, "error: cannot write %s\n", JsonPath.c_str());
      return 1;
    }
    std::printf("# wrote %s\n", JsonPath.c_str());
  }
  return 0;
}
