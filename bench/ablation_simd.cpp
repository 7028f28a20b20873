//===- bench/ablation_simd.cpp - A8: SoA + SIMD ablation ------------------===//
//
// A8: prices the vectorized kernel layer over the SoA field planes.
//
// Two levels:
//   1. per-kernel: each kernels:: primitive timed scalar (the
//      -fno-tree-vectorize TU) vs SIMD (the host-ISA TU) over the same
//      unit-stride SoA buffers — the per-kernel vectorization speedup;
//   2. end-to-end: the Fig. 4 workload (2D shock interaction, benchmark
//      scheme) scalar vs SIMD on both engines, each priced against the
//      engine's scalar run, plus the fused engine on the figure scheme
//      (WENO3), whose face path is reconstructFaces + fluxFaces.
//
// Determinism makes the whole sweep a pure performance knob: every
// configuration must produce bit-identical fields — both engines under
// the benchmark and the figure scheme — and the bench checks that before
// it prints a single timing row.
//
// --json writes artifacts/BENCH_simd.json; --gate makes the process fail
// when the acceptance floor is missed (>= 1.3x on >= 2 kernels and
// SIMD no slower than scalar end-to-end) — the Release-matrix CI
// leg runs with --gate.  Both checks auto-skip when the toolchain could
// not build an accelerated simdimpl TU (kernels::simdAccelerated() is
// false), because then "SIMD" is a dispatch formality, not a claim.
//
//===----------------------------------------------------------------------===//

#include "kernels/Kernels.h"
#include "solver/Diagnostics.h"
#include "solver/Problems.h"
#include "solver/SolverFactory.h"
#include "support/CommandLine.h"
#include "support/Timer.h"

#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

using namespace sacfd;

namespace {

//===----------------------------------------------------------------------===//
// Per-kernel timing
//===----------------------------------------------------------------------===//

/// Aligned SoA planes over \p Cells cells holding a smooth positive state.
struct SoaField2 {
  NDArray<double> Buf;
  size_t Plane;
  explicit SoaField2(size_t Cells)
      : Buf(Shape{static_cast<size_t>(NumVars<2>), paddedCount(Cells)}),
        Plane(paddedCount(Cells)) {
    Gas G;
    kernels::Run<2> R = run();
    for (size_t I = 0; I < Cells; ++I) {
      Prim<2> W;
      W.Rho = 1.0 + 0.2 * std::sin(0.01 * static_cast<double>(I));
      W.Vel = {0.4 * std::cos(0.02 * static_cast<double>(I)), 0.1};
      W.P = 1.0 + 0.1 * std::sin(0.03 * static_cast<double>(I) + 1.0);
      kernels::storeCons(R, I, toCons(W, G));
    }
  }
  kernels::Run<2> run() { return kernels::soaRun<2>(Buf.data(), Plane, 0); }
  kernels::ConstRun<2> crun() const {
    return kernels::soaRun<2>(Buf.data(), Plane, 0);
  }
};

struct KernelRow {
  std::string Name;
  double ScalarSec = 0.0;
  double SimdSec = 0.0;
  double speedup() const {
    return SimdSec > 0.0 ? ScalarSec / SimdSec : 0.0;
  }
};

/// Times \p Body (called once per inner reputation) and returns the best
/// of \p Repeats batched samples.
template <typename Fn>
double timeKernel(unsigned Reps, unsigned Repeats, Fn &&Body) {
  TimingSamples Samples;
  for (unsigned S = 0; S < Repeats; ++S) {
    WallTimer Timer;
    for (unsigned R = 0; R < Reps; ++R)
      Body();
    Samples.add(Timer.seconds());
  }
  return Samples.min();
}

std::vector<KernelRow> benchKernels(size_t Cells, unsigned Reps,
                                    unsigned Repeats) {
  Gas G;
  std::vector<KernelRow> Rows;

  SoaField2 U(Cells + 1), F(Cells + 1), Un(Cells), Res(Cells);
  kernels::ConstRun<2> L = U.crun();
  kernels::ConstRun<2> R = kernels::advance(U.crun(), 1);
  kernels::ConstRun<2> Lo = F.crun();
  kernels::ConstRun<2> Hi = kernels::advance(F.crun(), 1);
  const double InvDx[2] = {128.0, 128.0};
  volatile double Sink = 0.0;

  for (bool Simd : {false, true}) {
    double Sec = timeKernel(Reps, Repeats, [&] {
      kernels::fluxFaces<2>(L, R, F.run(), G, 0, RiemannKind::Hllc, Cells,
                            Simd);
    });
    if (!Simd)
      Rows.push_back({"fluxFaces", Sec, 0.0});
    else
      Rows.back().SimdSec = Sec;
  }
  for (bool Simd : {false, true}) {
    double Sec = timeKernel(Reps, Repeats, [&] {
      Sink = kernels::maxEigen<2>(U.crun(), G, InvDx, 0.0, Cells, Simd);
    });
    if (!Simd)
      Rows.push_back({"maxEigen", Sec, 0.0});
    else
      Rows.back().SimdSec = Sec;
  }
  for (bool Simd : {false, true}) {
    double Sec = timeKernel(Reps, Repeats, [&] {
      kernels::sspUpdate<2>(U.run(), Un.crun(), Res.crun(), 0.5, 0.5, 1e-3,
                            Cells, Simd);
    });
    if (!Simd)
      Rows.push_back({"sspUpdate", Sec, 0.0});
    else
      Rows.back().SimdSec = Sec;
  }
  for (bool Simd : {false, true}) {
    double Sec = timeKernel(Reps, Repeats, [&] {
      kernels::accumDivergence<2>(Res.run(), Lo, Hi, 128.0, Cells, Simd);
    });
    if (!Simd)
      Rows.push_back({"accumDivergence", Sec, 0.0});
    else
      Rows.back().SimdSec = Sec;
  }
  // The one-pass stage tail both engines' 2D stages end in: both axes'
  // divergences folded into the in-place SSP update.
  SoaField2 F0(Cells);
  const kernels::ConstRun<2> StageLo[2] = {Res.crun(), Lo};
  const kernels::ConstRun<2> StageHi[2] = {F0.crun(), Hi};
  for (bool Simd : {false, true}) {
    double Sec = timeKernel(Reps, Repeats, [&] {
      kernels::stageUpdate<2>(U.run(), Un.crun(), U.crun(), StageLo, StageHi,
                              InvDx, 0.5, 0.5, 1e-3, Cells, Simd);
    });
    if (!Simd)
      Rows.push_back({"stageUpdate", Sec, 0.0});
    else
      Rows.back().SimdSec = Sec;
  }
  // WENO3 characteristic face states from a staged window of Cells + 5,
  // its face neighbours' plane pass included (the window form runs it).
  SoaField2 Win(Cells + 5);
  NDArray<double> PrimBuf(Shape{static_cast<size_t>(kernels::NumPrimVars<2>),
                                paddedCount(Cells + 1)});
  kernels::PrimRun<2> P =
      kernels::primRun<2>(PrimBuf.data(), paddedCount(Cells + 1), 0);
  for (bool Simd : {false, true}) {
    double Sec = timeKernel(Reps, Repeats, [&] {
      kernels::reconstructFaces<2>(Win.crun(), P, F.run(), Un.run(), G, 0,
                                   ReconstructionKind::Weno3,
                                   LimiterKind::MinMod,
                                   ReconstructVariables::Characteristic,
                                   Cells, Simd);
    });
    if (!Simd)
      Rows.push_back({"reconstructFaces", Sec, 0.0});
    else
      Rows.back().SimdSec = Sec;
  }
  (void)Sink;
  return Rows;
}

//===----------------------------------------------------------------------===//
// End-to-end Fig. 4 workload
//===----------------------------------------------------------------------===//

struct E2eRow {
  std::string Engine;
  std::string Scheme;
  bool Simd = false;
  double Seconds = 0.0;
  double VsScalar = 1.0; ///< ScalarSeconds / Seconds (>1 = faster)
};

Problem<2> fig4Problem(size_t Cells) {
  return shockInteraction2D(Cells, 2.2, static_cast<double>(Cells) / 2.0);
}

double runE2eOnce(const RunConfig &Cfg, size_t Cells, unsigned Steps,
                  unsigned Repeats) {
  TimingSamples Samples;
  for (unsigned Rep = 0; Rep < Repeats; ++Rep) {
    SolverRun<2> Run = makeSolverRun(fig4Problem(Cells), Cfg);
    Run.advanceSteps(2); // warm the pool and flux scratch
    WallTimer Timer;
    Run.advanceSteps(Steps);
    Samples.add(Timer.seconds());
  }
  return Samples.min();
}

/// The SIMD run of each engine must reproduce its scalar fields bit for
/// bit, under \p Base's scheme and the figure scheme.  \returns false
/// (and prints the offender) on any divergence.
bool checkBitIdentity(const RunConfig &Base, size_t Cells, unsigned Steps) {
  bool Ok = true;
  for (const SchemeConfig &Scheme :
       {Base.Scheme, SchemeConfig::figureScheme()}) {
    for (EngineKind Engine : {EngineKind::Array, EngineKind::Fused}) {
      RunConfig Ref = Base;
      Ref.Scheme = Scheme;
      Ref.Engine = Engine;
      Ref.Simd = false;
      SolverRun<2> RefRun = makeSolverRun(fig4Problem(Cells), Ref);
      RefRun.advanceSteps(Steps);
      RunConfig Cfg = Ref;
      Cfg.Simd = true;
      SolverRun<2> Run = makeSolverRun(fig4Problem(Cells), Cfg);
      Run.advanceSteps(Steps);
      double Diff = maxFieldDifference(RefRun.solver(), Run.solver());
      if (Diff != 0.0) {
        std::fprintf(stderr,
                     "BIT-IDENTITY VIOLATION: %s %s simd differs from scalar "
                     "by %g\n",
                     engineKindName(Engine), Scheme.str().c_str(), Diff);
        Ok = false;
      }
    }
  }
  return Ok;
}

bool writeJson(const std::string &Path, size_t KernelCells, size_t Cells,
               unsigned Steps, const std::vector<KernelRow> &Kernels,
               const std::vector<E2eRow> &E2e, bool BitIdentical) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fprintf(F,
               "{\n  \"experiment\": \"simd_ablation\",\n"
               "  \"simd_accelerated\": %s,\n"
               "  \"bit_identical\": %s,\n"
               "  \"kernel_cells\": %zu,\n"
               "  \"cells\": %zu,\n  \"steps\": %u,\n"
               "  \"kernels\": [\n",
               kernels::simdAccelerated() ? "true" : "false",
               BitIdentical ? "true" : "false", KernelCells, Cells, Steps);
  for (size_t I = 0; I < Kernels.size(); ++I) {
    const KernelRow &R = Kernels[I];
    std::fprintf(F,
                 "    {\"kernel\": \"%s\", \"scalar_s\": %.6e, "
                 "\"simd_s\": %.6e, \"speedup\": %.3f}%s\n",
                 R.Name.c_str(), R.ScalarSec, R.SimdSec, R.speedup(),
                 I + 1 < Kernels.size() ? "," : "");
  }
  std::fprintf(F, "  ],\n  \"end_to_end\": [\n");
  for (size_t I = 0; I < E2e.size(); ++I) {
    const E2eRow &R = E2e[I];
    std::fprintf(F,
                 "    {\"engine\": \"%s\", \"scheme\": \"%s\", "
                 "\"simd\": %s, \"seconds\": %.6f, \"vs_scalar\": %.4f}%s\n",
                 R.Engine.c_str(), R.Scheme.c_str(), R.Simd ? "true" : "false",
                 R.Seconds, R.VsScalar, I + 1 < E2e.size() ? "," : "");
  }
  std::fprintf(F, "  ]\n}\n");
  std::fclose(F);
  return true;
}

} // namespace

int main(int Argc, const char **Argv) {
  bool Full = false;
  bool Gate = false;
  // One thread on a 200^2 grid: end-to-end walls long enough to compare
  // across changes (4 threads on 96^2 timed 8-40 ms walls whose SIMD
  // speedups spread 2x between runs of one binary).
  int Cells = 200;
  unsigned Steps = 20;
  unsigned Repeats = 3;
  unsigned KernelReps = 200;
  std::string JsonPath;
  RunConfig Cfg;
  Cfg.Scheme = SchemeConfig::benchmarkScheme();
  Cfg.Threads = 1;

  CommandLine CL("ablation_simd",
                 "A8: per-kernel scalar-vs-SIMD speedups plus the "
                 "end-to-end scalar-vs-SIMD runs on the Fig. 4 workload");
  CL.addFlag("full", Full, "larger grid and more steps");
  CL.addFlag("gate", Gate,
             "fail the process when the acceptance floor is missed "
             "(>=1.3x on >=2 kernels, SIMD >= scalar end-to-end)");
  CL.addInt("cells", Cells, "grid cells per axis (end-to-end)");
  CL.addUnsigned("steps", Steps, "time steps per end-to-end run");
  CL.addUnsigned("repeats", Repeats, "repetitions per config (min wins)");
  CL.addUnsigned("kernel-reps", KernelReps,
                 "inner repetitions per kernel timing batch");
  CL.addString("json", JsonPath, "write the table to this JSON file");
  CL.addUnsigned("threads", Cfg.Threads, "worker threads");
  if (!CL.parse(Argc, Argv))
    return CL.helpRequested() ? 0 : 1;
  if (Full) {
    Cells = 256;
    Steps = 60;
    KernelReps = 1000;
  }
  if (Repeats == 0)
    Repeats = 1;
  Cfg.resolveOrExit();

  const size_t KernelCells = 1 << 14;
  std::printf("# A8: simd ablation (accelerated simd TU: %s)\n",
              kernels::simdAccelerated() ? "yes" : "no");

  // Bit-identity first: a timing table for diverging runs is meaningless.
  bool BitIdentical =
      checkBitIdentity(Cfg, static_cast<size_t>(Cells) / 2, 6);
  std::printf("# bit-identity across {scalar,simd} x {array,fused} x "
              "{%s,%s}: %s\n",
              Cfg.Scheme.str().c_str(),
              SchemeConfig::figureScheme().str().c_str(),
              BitIdentical ? "ok" : "VIOLATED");

  std::printf("## per-kernel (%zu cells, unit-stride runs)\n", KernelCells);
  std::printf("%-16s %12s %12s %9s\n", "kernel", "scalar[s]", "simd[s]",
              "speedup");
  std::vector<KernelRow> Kernels =
      benchKernels(KernelCells, KernelReps, Repeats + 1);
  unsigned FastKernels = 0;
  for (const KernelRow &R : Kernels) {
    if (R.speedup() >= 1.3)
      ++FastKernels;
    std::printf("%-16s %12.6f %12.6f %8.2fx\n", R.Name.c_str(), R.ScalarSec,
                R.SimdSec, R.speedup());
  }

  std::printf("## end-to-end: fig4 interaction %dx%d, %u steps, "
              "%u threads\n",
              Cells, Cells, Steps, Cfg.Threads);
  std::printf("%-10s %-22s %-7s %10s %9s\n", "engine", "scheme", "simd",
              "wall[s]", "speedup");
  std::vector<E2eRow> E2e;
  double SimdVsScalar = 0.0;
  struct E2eArm {
    EngineKind Engine;
    SchemeConfig Scheme;
    bool Gated; ///< the --gate end-to-end term
  };
  const E2eArm Arms[] = {
      {EngineKind::Array, Cfg.Scheme, false},
      {EngineKind::Fused, Cfg.Scheme, true},
      {EngineKind::Fused, SchemeConfig::figureScheme(), false}};
  for (const E2eArm &Arm : Arms) {
    double Scalar = 0.0;
    std::string Scheme = Arm.Scheme.str();
    for (bool Simd : {false, true}) {
      RunConfig Run = Cfg;
      Run.Scheme = Arm.Scheme;
      Run.Engine = Arm.Engine;
      Run.Simd = Simd;
      double Sec = runE2eOnce(Run, static_cast<size_t>(Cells), Steps, Repeats);
      if (!Simd)
        Scalar = Sec;
      double Speedup = Sec > 0.0 ? Scalar / Sec : 0.0;
      E2e.push_back({engineKindName(Arm.Engine), Scheme, Simd, Sec, Speedup});
      if (Arm.Gated && Simd)
        SimdVsScalar = Speedup;
      std::printf("%-10s %-22s %-7s %10.3f %8.2fx\n",
                  engineKindName(Arm.Engine), Scheme.c_str(),
                  Simd ? "on" : "off", Sec, Speedup);
    }
  }

  if (!JsonPath.empty()) {
    if (!writeJson(JsonPath, KernelCells, static_cast<size_t>(Cells), Steps,
                   Kernels, E2e, BitIdentical)) {
      std::fprintf(stderr, "error: cannot write %s\n", JsonPath.c_str());
      return 1;
    }
    std::printf("# wrote %s\n", JsonPath.c_str());
  }

  if (!BitIdentical)
    return 1; // a correctness failure gates unconditionally

  if (Gate) {
    if (!kernels::simdAccelerated()) {
      std::printf("# gate: skipped (no accelerated simd TU in this "
                  "build)\n");
      return 0;
    }
    bool Pass = true;
    if (FastKernels < 2) {
      std::fprintf(stderr,
                   "GATE: only %u kernels reached 1.3x (need >= 2)\n",
                   FastKernels);
      Pass = false;
    }
    if (SimdVsScalar < 1.0) {
      std::fprintf(stderr,
                   "GATE: fused SIMD is slower than scalar on fig4 "
                   "(%.2fx)\n",
                   SimdVsScalar);
      Pass = false;
    }
    std::printf("# gate: %s (%u/%zu kernels >= 1.3x, fused simd %.2fx vs "
                "scalar)\n",
                Pass ? "pass" : "FAIL", FastKernels, Kernels.size(),
                SimdVsScalar);
    return Pass ? 0 : 1;
  }
  return 0;
}
