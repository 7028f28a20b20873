//===- bench/ablation_reconstruction.cpp - A3: scheme cost/accuracy -------===//
//
// A3: the paper uses WENO3 for its flow figures but drops to 1st-order
// piecewise-constant reconstruction for the Fig. 4 speed measurement.
// This ablation quantifies that trade: wall time and exact-solution
// error of every reconstruction on the Sod tube at fixed resolution,
// plus the work ratio that justifies benchmarking with PC1.  A second
// table prices the trade where the paper's figures run: a whole 2D step
// of the Fig. 4 shock interaction (min(--cells, 400) cells per axis) on
// the fused engine, PC1 against WENO3, serial.
//
//===----------------------------------------------------------------------===//

#include "runtime/Runtime.h"
#include "solver/ArraySolver.h"
#include "solver/Diagnostics.h"
#include "solver/FusedSolver.h"
#include "solver/Problems.h"
#include "support/CommandLine.h"
#include "support/Timer.h"

#include <algorithm>
#include <cstdio>

using namespace sacfd;

int main(int Argc, const char **Argv) {
  bool Full = false;
  int Cells = 400;

  CommandLine CL("ablation_reconstruction",
                 "A3: reconstruction scheme cost vs accuracy on Sod");
  CL.addFlag("full", Full, "run at 2000 cells");
  CL.addInt("cells", Cells, "grid cells");
  if (!CL.parse(Argc, Argv))
    return CL.helpRequested() ? 0 : 1;
  if (Full)
    Cells = 2000;

  Prim<1> L, R;
  L.Rho = 1.0;
  L.Vel = {0.0};
  L.P = 1.0;
  R.Rho = 0.125;
  R.Vel = {0.0};
  R.P = 0.1;

  std::printf("# A3: Sod tube N=%d to t=0.2, HLLC + RK3, serial\n", Cells);
  std::printf("%-8s %10s %8s %12s %14s\n", "recon", "wall[s]", "steps",
              "L1(rho)", "cost/accuracy");

  auto Exec = createBackend(BackendKind::Serial, 1);
  double Pc1Time = 0.0;
  for (ReconstructionKind K :
       {ReconstructionKind::PiecewiseConstant, ReconstructionKind::Tvd2,
        ReconstructionKind::Tvd3, ReconstructionKind::Weno3}) {
    SchemeConfig C = SchemeConfig::figureScheme();
    C.Recon = K;
    ArraySolver<1> S(sodProblem(static_cast<size_t>(Cells)), C, *Exec);
    WallTimer T;
    S.advanceTo(0.2);
    double Seconds = T.seconds();
    if (K == ReconstructionKind::PiecewiseConstant)
      Pc1Time = Seconds;
    RiemannErrors E = riemannL1Error(S, L, R, 0.5);
    std::printf("%-8s %10.3f %8u %12.5f %11.2fx\n",
                reconstructionKindName(K), Seconds, S.stepCount(), E.Rho,
                Pc1Time > 0.0 ? Seconds / Pc1Time : 1.0);
  }

  // Whole 2D steps on the fused engine: one warm-up step fills the field
  // pool, then the best of 3 batches of Steps2D steps is timed.
  const size_t Cells2D = std::min<size_t>(static_cast<size_t>(Cells), 400);
  constexpr unsigned Steps2D = 10;
  std::printf("\n# A3 fused 2D: shock interaction %zux%zu, HLLC + RK3, "
              "fused engine, serial, %u steps\n",
              Cells2D, Cells2D, Steps2D);
  std::printf("%-8s %12s %16s %14s\n", "recon", "step[ms]", "ns/cell/step",
              "cost vs pc1");
  double Pc1Step = 0.0;
  for (ReconstructionKind K :
       {ReconstructionKind::PiecewiseConstant, ReconstructionKind::Weno3}) {
    SchemeConfig C = SchemeConfig::figureScheme();
    C.Recon = K;
    FusedSolver<2> S(shockInteraction2D(Cells2D), C, *Exec);
    S.advance();
    double Best = 0.0;
    for (int Batch = 0; Batch < 3; ++Batch) {
      WallTimer T;
      S.advanceSteps(Steps2D);
      double Seconds = T.seconds();
      Best = Batch == 0 ? Seconds : std::min(Best, Seconds);
    }
    double StepMs = 1e3 * Best / Steps2D;
    if (K == ReconstructionKind::PiecewiseConstant)
      Pc1Step = StepMs;
    std::printf("%-8s %12.2f %16.1f %13.2fx\n", reconstructionKindName(K),
                StepMs, 1e6 * StepMs / static_cast<double>(Cells2D * Cells2D),
                Pc1Step > 0.0 ? StepMs / Pc1Step : 1.0);
  }
  return 0;
}
