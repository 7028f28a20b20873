//===- examples/shock_interaction_2d.cpp - The paper's 2D experiment ------===//
//
// Runs the two-channel unsteady shock interaction of Section 3.2 / Fig. 2
// and writes Fig. 3-style snapshots: density and numerical-schlieren PGM
// images plus a VTK file for ParaView.  A terminal density map shows the
// structure directly (primary circular shocks, Mach stem between them).
//
// Examples:
//   ./examples/shock_interaction_2d                       # 200x200 demo
//   ./examples/shock_interaction_2d --cells 400 --frames 4
//   ./examples/shock_interaction_2d --ms 3.0 --prefix strong
//   ./examples/shock_interaction_2d --tile 32x128 --backend fork-join
//   ./examples/shock_interaction_2d --telemetry run.json --telemetry-every 5
//                                  # per-step history as step.* gauges
//
//===----------------------------------------------------------------------===//

#include "io/AsciiPlot.h"
#include "io/FieldExport.h"
#include "io/PgmWriter.h"
#include "io/RunIo.h"
#include "io/VtkWriter.h"
#include "solver/Diagnostics.h"
#include "solver/Problems.h"
#include "solver/SolverFactory.h"
#include "support/CommandLine.h"
#include "support/Error.h"
#include "support/Timer.h"

#include <cstdio>
#include <string>

using namespace sacfd;

int main(int Argc, const char **Argv) {
  int Cells = 200;
  double Ms = 2.2;
  double TimeFraction = 1.0;
  int Frames = 1;
  std::string Prefix = "interaction";
  bool NoFiles = false;
  RunConfig Cfg;

  CommandLine CL("shock_interaction_2d",
                 "two-channel unsteady shock interaction (paper Fig. 2/3)");
  CL.addInt("cells", Cells, "grid cells per axis (paper: 400)");
  CL.addDouble("ms", Ms, "shock Mach number (paper: 2.2)");
  CL.addDouble("time-fraction", TimeFraction,
               "fraction of the nominal end time to simulate");
  CL.addInt("frames", Frames, "number of evenly spaced output frames");
  CL.addString("prefix", Prefix, "output file prefix");
  CL.addFlag("no-files", NoFiles, "skip PGM/VTK output");
  Cfg.registerAll(CL);
  if (!CL.parse(Argc, Argv))
    return CL.helpRequested() ? 0 : 1;
  if (Cells < 8 || Frames < 1)
    reportFatalError("need --cells >= 8 and --frames >= 1");
  Cfg.resolveOrExit();

  // Keep the paper's geometry (h = half the domain side) at any
  // resolution by scaling the channel width with the cell count so
  // dx = 1 as in the 400x400 reference setup.
  double ChannelWidth = static_cast<double>(Cells) / 2.0;
  // --scenario swaps in any registered 2D workload (e.g. sedov,
  // double-mach, riemann2d:config=3) in place of the default setup.
  Problem<2> Prob = resolveProblem(
      shockInteraction2D(static_cast<size_t>(Cells), Ms, ChannelWidth),
      Cfg);
  SolverRun<2> Run = makeSolverRun(Prob, Cfg);
  DurabilitySetup Durable = setupDurableRun(Run);
  if (!Durable.Ok)
    reportFatalError("--resume: no loadable checkpoint generation");
  EulerSolver<2> &Solver = Run.solver();
  if (Durable.Resumed)
    std::printf("resumed from %s at t=%.3f (%u steps)\n",
                Durable.ResumePath.c_str(), Solver.time(),
                Solver.stepCount());

  double EndTime = Prob.EndTime * TimeFraction;
  std::printf("%s: %zux%zu, t_end=%.2f, scheme %s, %s\n",
              Prob.Name.c_str(), Prob.Domain.cells(0), Prob.Domain.cells(1),
              EndTime, Cfg.Scheme.str().c_str(),
              Cfg.executionStr().c_str());

  WallTimer Timer;
  bool GuardFailed = false;
  for (int Frame = 1; Frame <= Frames; ++Frame) {
    GuardFailed = !Run.advanceTo(EndTime * Frame / Frames);
    if (GuardFailed)
      break;

    FieldHealth<2> H = fieldHealth(Solver);
    if (!H.AllFinite)
      reportFatalError("solution lost finiteness");
    std::printf("\nframe %d: t=%.3f steps=%u min(rho)=%.4f "
                "min(p)=%.4f\n",
                Frame, Solver.time(), Solver.stepCount(), H.MinDensity,
                H.MinPressure);

    if (!NoFiles) {
      std::string Tag = Prefix + "_f" + std::to_string(Frame);
      NDArray<double> Rho = scalarField(Solver, FieldQuantity::Density);
      if (!writePgm(Tag + "_density.pgm", Rho))
        reportFatalError("cannot write density PGM");
      if (!writePgm(Tag + "_schlieren.pgm", schlierenField(Solver)))
        reportFatalError("cannot write schlieren PGM");
      if (!writeVtk(Tag + ".vtk", Solver))
        reportFatalError("cannot write VTK file");
      std::printf("wrote %s_density.pgm, %s_schlieren.pgm, %s.vtk\n",
                  Tag.c_str(), Tag.c_str(), Tag.c_str());
    }
  }

  if (Run.guarded()) {
    std::printf("\n");
    Run.printGuardReport();
  }

  std::printf("\nfinal density field (Fig. 3 analogue):\n%s",
              asciiFieldMap(scalarField(Solver, FieldQuantity::Density))
                  .c_str());
  std::printf("\nwall time %.2fs for %u steps\n", Timer.seconds(),
              Solver.stepCount());

  std::string TelemetryError;
  if (!writeRunTelemetry(Run, "shock_interaction_2d",
                         {{"cells", std::to_string(Cells)},
                          {"ms", std::to_string(Ms)}},
                         &TelemetryError))
    reportFatalError(TelemetryError.c_str());
  return GuardFailed ? 1 : 0;
}
