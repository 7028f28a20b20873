//===- bench/micro_kernels.cpp - K1: kernel microbenchmarks ---------------===//
//
// K1 (methodology support): google-benchmark microbenchmarks of the
// primitives whose costs explain the Fig. 4 curves:
//
//   - parallel-region dispatch latency per backend (the fork-join vs
//     spin-pool gap IS the paper's "overhead of communication between
//     the threads");
//   - with-loop elementwise throughput (fused vs materialized);
//   - the getDt reduction;
//   - per-face reconstruction + Riemann solve for each scheme;
//   - the kernels:: face path (reconstructFaces, fluxFaces, and the PC1
//     split cellPrims + fluxFaces) and stage kernels, scalar vs SIMD;
//   - the fused engine's whole 2D stage (the row pass) per interior
//     cell: PC1 at the paper's two grid sizes, WENO3 on the double Mach
//     reflection (320x80) and the 400x400 interaction.
//
//===----------------------------------------------------------------------===//

#include "array/Layout.h"
#include "array/Reductions.h"
#include "array/WithLoop.h"
#include "kernels/Kernels.h"
#include "numerics/Reconstruction.h"
#include "numerics/RiemannSolvers.h"
#include "runtime/ForkJoinBackend.h"
#include "runtime/SerialBackend.h"
#include "runtime/SpinBarrierPool.h"
#include "solver/FusedSolver.h"
#include "solver/Problems.h"
#include "telemetry/Telemetry.h"

#include <benchmark/benchmark.h>

#include <cmath>

using namespace sacfd;

//===----------------------------------------------------------------------===//
// Dispatch latency
//===----------------------------------------------------------------------===//

static void BM_DispatchSerial(benchmark::State &State) {
  SerialBackend Exec;
  for (auto _ : State)
    Exec.parallelFor(0, 1, [](size_t, size_t) {});
}
BENCHMARK(BM_DispatchSerial);

static void BM_DispatchSpinPool(benchmark::State &State) {
  SpinBarrierPool Exec(static_cast<unsigned>(State.range(0)));
  for (auto _ : State)
    Exec.parallelFor(0, 64, [](size_t, size_t) {});
}
BENCHMARK(BM_DispatchSpinPool)->Arg(2)->Arg(4);

static void BM_DispatchForkJoin(benchmark::State &State) {
  ForkJoinBackend Exec(static_cast<unsigned>(State.range(0)));
  for (auto _ : State)
    Exec.parallelFor(0, 64, [](size_t, size_t) {});
}
BENCHMARK(BM_DispatchForkJoin)->Arg(2)->Arg(4);

//===----------------------------------------------------------------------===//
// With-loop throughput
//===----------------------------------------------------------------------===//

static void BM_WithLoopElementwiseFused(benchmark::State &State) {
  SerialBackend Exec;
  size_t N = static_cast<size_t>(State.range(0));
  NDArray<double> A(Shape{N}, 1.5), B(Shape{N}, 2.5), Out(Shape{N});
  for (auto _ : State) {
    assignInto(Out, (toExpr(A) + toExpr(B)) * 0.5 - toExpr(A) / 4.0, Exec);
    benchmark::DoNotOptimize(Out.data());
  }
  State.SetItemsProcessed(State.iterations() * static_cast<int64_t>(N));
}
BENCHMARK(BM_WithLoopElementwiseFused)->Arg(1 << 14)->Arg(1 << 18);

static void BM_WithLoopElementwiseMaterialized(benchmark::State &State) {
  SerialBackend Exec;
  size_t N = static_cast<size_t>(State.range(0));
  NDArray<double> A(Shape{N}, 1.5), B(Shape{N}, 2.5), Out(Shape{N});
  for (auto _ : State) {
    NDArray<double> T1 = materialize(toExpr(A) + toExpr(B), Exec);
    NDArray<double> T2 = materialize(toExpr(T1) * 0.5, Exec);
    NDArray<double> T3 = materialize(toExpr(A) / 4.0, Exec);
    assignInto(Out, toExpr(T2) - toExpr(T3), Exec);
    benchmark::DoNotOptimize(Out.data());
  }
  State.SetItemsProcessed(State.iterations() * static_cast<int64_t>(N));
}
BENCHMARK(BM_WithLoopElementwiseMaterialized)->Arg(1 << 14)->Arg(1 << 18);

static void BM_MaxvalReduction(benchmark::State &State) {
  SerialBackend Exec;
  size_t N = static_cast<size_t>(State.range(0));
  NDArray<double> A(Shape{N});
  for (size_t I = 0; I < N; ++I)
    A[I] = static_cast<double>((I * 2654435761u) % 1000);
  for (auto _ : State) {
    double M = maxval(fabsE(A) * 0.5 + 1.0, Exec);
    benchmark::DoNotOptimize(M);
  }
  State.SetItemsProcessed(State.iterations() * static_cast<int64_t>(N));
}
BENCHMARK(BM_MaxvalReduction)->Arg(1 << 14)->Arg(1 << 18);

//===----------------------------------------------------------------------===//
// Face kernels
//===----------------------------------------------------------------------===//

namespace {

std::array<Cons<2>, 6> faceStencil() {
  Gas G;
  std::array<Cons<2>, 6> S;
  for (int I = 0; I < 6; ++I) {
    Prim<2> W;
    W.Rho = 1.0 + 0.1 * I;
    W.Vel = {0.3 - 0.05 * I, 0.1};
    W.P = 1.0 + 0.05 * I * I;
    S[I] = toCons(W, G);
  }
  return S;
}

} // namespace

template <ReconstructionKind K>
static void BM_FaceReconstruct(benchmark::State &State) {
  Gas G;
  auto Stencil = faceStencil();
  for (auto _ : State) {
    FaceStates<2> F = reconstructFaceStates(
        K, LimiterKind::MinMod, ReconstructVariables::Characteristic,
        Stencil, G, 0);
    benchmark::DoNotOptimize(F);
  }
}
BENCHMARK(BM_FaceReconstruct<ReconstructionKind::PiecewiseConstant>)
    ->Name("BM_FaceReconstruct/pc1");
BENCHMARK(BM_FaceReconstruct<ReconstructionKind::Tvd2>)
    ->Name("BM_FaceReconstruct/tvd2");
BENCHMARK(BM_FaceReconstruct<ReconstructionKind::Weno3>)
    ->Name("BM_FaceReconstruct/weno3");

template <RiemannKind K>
static void BM_RiemannFlux(benchmark::State &State) {
  Gas G;
  auto Stencil = faceStencil();
  for (auto _ : State) {
    Cons<2> F = numericalFlux(K, Stencil[2], Stencil[3], G, 0);
    benchmark::DoNotOptimize(F);
  }
}
BENCHMARK(BM_RiemannFlux<RiemannKind::Rusanov>)
    ->Name("BM_RiemannFlux/rusanov");
BENCHMARK(BM_RiemannFlux<RiemannKind::Hll>)->Name("BM_RiemannFlux/hll");
BENCHMARK(BM_RiemannFlux<RiemannKind::Hllc>)->Name("BM_RiemannFlux/hllc");
BENCHMARK(BM_RiemannFlux<RiemannKind::Roe>)->Name("BM_RiemannFlux/roe");

//===----------------------------------------------------------------------===//
// kernels:: scalar vs SIMD (per-kernel speedup rows)
//===----------------------------------------------------------------------===//
//
// Paired rows over the same SoA (unit-stride) buffers: .../scalar runs the
// -fno-tree-vectorize TU, .../simd the host-ISA TU.  The ratio per pair is
// the per-kernel vectorization speedup A8 reports; ablation_simd re-measures
// the same pairs and writes them to artifacts/BENCH_simd.json.

namespace {

/// Aligned SoA planes over \p Cells cells filled with a smooth positive
/// state (so maxEigen's sqrt sees valid pressures).
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

} // namespace

static void BM_KernelFluxFaces(benchmark::State &State) {
  const size_t N = static_cast<size_t>(State.range(0));
  const bool Simd = State.range(1) != 0;
  Gas G;
  SoaField2 U(N + 1), F(N);
  kernels::ConstRun<2> L = U.crun();
  kernels::ConstRun<2> R = kernels::advance(U.crun(), 1);
  for (auto _ : State) {
    kernels::fluxFaces<2>(L, R, F.run(), G, 0, RiemannKind::Hllc, N, Simd);
    benchmark::DoNotOptimize(F.Buf.data());
  }
  State.SetItemsProcessed(State.iterations() * static_cast<int64_t>(N));
}
BENCHMARK(BM_KernelFluxFaces)
    ->Args({1 << 14, 0})
    ->Args({1 << 14, 1})
    ->Name("BM_Kernel/fluxFaces");

// The PC1 sweeps' split of the same N HLLC faces: cellPrims over the
// line's N + 1 cells, then the faces from two shifted views of the cells
// and their primitive planes.  Items are faces, as in the row above.
static void BM_KernelFluxFacesLine(benchmark::State &State) {
  const size_t N = static_cast<size_t>(State.range(0));
  const bool Simd = State.range(1) != 0;
  Gas G;
  SoaField2 U(N + 1), F(N);
  NDArray<double> PrimBuf(
      Shape{static_cast<size_t>(kernels::NumPrimVars<2>), paddedCount(N + 1)});
  kernels::PrimRun<2> P =
      kernels::primRun<2>(PrimBuf.data(), paddedCount(N + 1), 0);
  kernels::ConstRun<2> Cells = U.crun();
  for (auto _ : State) {
    kernels::cellPrims<2>(Cells, P, G, RiemannKind::Hllc, N + 1, Simd);
    kernels::fluxFaces<2>(Cells, P, kernels::advance(Cells, 1),
                          kernels::advance(P, 1), F.run(), G, 0,
                          RiemannKind::Hllc, N, Simd);
    benchmark::DoNotOptimize(F.Buf.data());
  }
  State.SetItemsProcessed(State.iterations() * static_cast<int64_t>(N));
}
BENCHMARK(BM_KernelFluxFacesLine)
    ->Args({1 << 14, 0})
    ->Args({1 << 14, 1})
    ->Name("BM_Kernel/fluxFacesLine");

static void BM_KernelMaxEigen(benchmark::State &State) {
  const size_t N = static_cast<size_t>(State.range(0));
  const bool Simd = State.range(1) != 0;
  Gas G;
  SoaField2 U(N);
  const double InvDx[2] = {128.0, 128.0};
  for (auto _ : State) {
    double Ev = kernels::maxEigen<2>(U.crun(), G, InvDx, 0.0, N, Simd);
    benchmark::DoNotOptimize(Ev);
  }
  State.SetItemsProcessed(State.iterations() * static_cast<int64_t>(N));
}
BENCHMARK(BM_KernelMaxEigen)
    ->Args({1 << 14, 0})
    ->Args({1 << 14, 1})
    ->Name("BM_Kernel/maxEigen");

static void BM_KernelSspUpdate(benchmark::State &State) {
  const size_t N = static_cast<size_t>(State.range(0));
  const bool Simd = State.range(1) != 0;
  SoaField2 U(N), Un(N), Res(N);
  for (auto _ : State) {
    kernels::sspUpdate<2>(U.run(), Un.crun(), Res.crun(), 0.5, 0.5, 1e-3, N,
                          Simd);
    benchmark::DoNotOptimize(U.Buf.data());
  }
  State.SetItemsProcessed(State.iterations() * static_cast<int64_t>(N));
}
BENCHMARK(BM_KernelSspUpdate)
    ->Args({1 << 14, 0})
    ->Args({1 << 14, 1})
    ->Name("BM_Kernel/sspUpdate");

static void BM_KernelAccumDivergence(benchmark::State &State) {
  const size_t N = static_cast<size_t>(State.range(0));
  const bool Simd = State.range(1) != 0;
  SoaField2 Res(N), F(N + 1);
  kernels::ConstRun<2> Lo = F.crun();
  kernels::ConstRun<2> Hi = kernels::advance(F.crun(), 1);
  for (auto _ : State) {
    kernels::accumDivergence<2>(Res.run(), Lo, Hi, 128.0, N, Simd);
    benchmark::DoNotOptimize(Res.Buf.data());
  }
  State.SetItemsProcessed(State.iterations() * static_cast<int64_t>(N));
}
BENCHMARK(BM_KernelAccumDivergence)
    ->Args({1 << 14, 0})
    ->Args({1 << 14, 1})
    ->Name("BM_Kernel/accumDivergence");

// The 2D stage tail on one 400-cell row (L1-hot), the fused row pass's
// unit: .../stageUpdate is the one-pass kernel, .../stageUpdateSequence
// the four kernels it replaces (zeroState, accumDivergence per axis,
// sspUpdate) over a scratch RHS row.  The axis-1 faces are two shifted
// views of one face row, as in the engines.
namespace {
struct StageTailRow {
  size_t N;
  SoaField2 Out, Un, X, F0Lo, F0Hi, F1, Res;
  kernels::ConstRun<2> Lo[2], Hi[2];
  const double InvDx[2] = {400.0, 400.0};
  explicit StageTailRow(size_t N)
      : N(N), Out(N), Un(N), X(N), F0Lo(N), F0Hi(N), F1(N + 1), Res(N) {
    Lo[0] = F0Lo.crun();
    Hi[0] = F0Hi.crun();
    Lo[1] = F1.crun();
    Hi[1] = kernels::advance(F1.crun(), 1);
  }
};
} // namespace

static void BM_KernelStageUpdate(benchmark::State &State) {
  const bool Simd = State.range(1) != 0;
  StageTailRow T(static_cast<size_t>(State.range(0)));
  for (auto _ : State) {
    kernels::stageUpdate<2>(T.Out.run(), T.Un.crun(), T.X.crun(), T.Lo, T.Hi,
                            T.InvDx, 0.5, 0.5, 1e-3, T.N, Simd);
    benchmark::DoNotOptimize(T.Out.Buf.data());
    benchmark::ClobberMemory();
  }
  State.SetItemsProcessed(State.iterations() * static_cast<int64_t>(T.N));
}
BENCHMARK(BM_KernelStageUpdate)
    ->Args({400, 0})
    ->Args({400, 1})
    ->Name("BM_Kernel/stageUpdate");

static void BM_KernelStageUpdateSequence(benchmark::State &State) {
  const bool Simd = State.range(1) != 0;
  StageTailRow T(static_cast<size_t>(State.range(0)));
  for (auto _ : State) {
    kernels::zeroState<2>(T.Res.run(), T.N, Simd);
    for (unsigned Ax = 0; Ax < 2; ++Ax)
      kernels::accumDivergence<2>(T.Res.run(), T.Lo[Ax], T.Hi[Ax],
                                  T.InvDx[Ax], T.N, Simd);
    kernels::sspUpdate<2>(T.Out.run(), T.Un.crun(), T.X.crun(), T.Res.crun(),
                          0.5, 0.5, 1e-3, T.N, Simd);
    benchmark::DoNotOptimize(T.Out.Buf.data());
    benchmark::ClobberMemory();
  }
  State.SetItemsProcessed(State.iterations() * static_cast<int64_t>(T.N));
}
BENCHMARK(BM_KernelStageUpdateSequence)
    ->Args({400, 0})
    ->Args({400, 1})
    ->Name("BM_Kernel/stageUpdateSequence");

// The higher-order face path's first kernel: WENO3 characteristic face
// states from a staged window (N faces read N + 5 cells), with the pass
// that converts the window's N + 1 face neighbours into planes.
static void BM_KernelReconstructFaces(benchmark::State &State) {
  const size_t N = static_cast<size_t>(State.range(0));
  const bool Simd = State.range(1) != 0;
  Gas G;
  SoaField2 Win(N + 5), L(N), R(N);
  NDArray<double> PrimBuf(
      Shape{static_cast<size_t>(kernels::NumPrimVars<2>), paddedCount(N + 1)});
  kernels::PrimRun<2> P =
      kernels::primRun<2>(PrimBuf.data(), paddedCount(N + 1), 0);
  for (auto _ : State) {
    kernels::reconstructFaces<2>(Win.crun(), P, L.run(), R.run(), G, 0,
                                 ReconstructionKind::Weno3,
                                 LimiterKind::MinMod,
                                 ReconstructVariables::Characteristic, N,
                                 Simd);
    benchmark::DoNotOptimize(L.Buf.data());
    benchmark::DoNotOptimize(R.Buf.data());
  }
  State.SetItemsProcessed(State.iterations() * static_cast<int64_t>(N));
}
BENCHMARK(BM_KernelReconstructFaces)
    ->Args({1 << 14, 0})
    ->Args({1 << 14, 1})
    ->Name("BM_Kernel/reconstructFaces/weno3");

// The reconstruction plane pass alone: the face-neighbour primitives of
// N cells (velocities, sqrt(rho), h).  Items are cells; off the SIMD
// dispatch the pass writes nothing, so only the SIMD row is timed;
// s_per_cell prints as a time per cell (4.1ns = 4.1 ns/cell).
static void BM_KernelReconPrims(benchmark::State &State) {
  const size_t N = static_cast<size_t>(State.range(0));
  Gas G;
  SoaField2 U(N);
  NDArray<double> PrimBuf(
      Shape{static_cast<size_t>(kernels::NumPrimVars<2>), paddedCount(N)});
  kernels::PrimRun<2> P = kernels::primRun<2>(PrimBuf.data(), paddedCount(N), 0);
  for (auto _ : State) {
    kernels::cellPrims<2>(U.crun(), P, G, ReconstructVariables::Characteristic,
                          N, /*Simd=*/true);
    benchmark::DoNotOptimize(PrimBuf.data());
    benchmark::ClobberMemory();
  }
  State.SetItemsProcessed(State.iterations() * static_cast<int64_t>(N));
  State.counters["s_per_cell"] = benchmark::Counter(
      static_cast<double>(State.iterations()) * static_cast<double>(N),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert,
      benchmark::Counter::kIs1000);
}
BENCHMARK(BM_KernelReconPrims)->Arg(1 << 14)->Name("BM_Kernel/reconPrims");

//===----------------------------------------------------------------------===//
// Fused engine flux phase
//===----------------------------------------------------------------------===//

// One whole RK stage of a serial fused run: the 2D row pass that solves
// both axes' faces of a row and writes its SSP update out of place in one
// stageUpdate run (plus GetDT on the last stage).  Timed by the engine's own
// solver.flux span over the three stages of a step, so only the boundary
// fill is excluded; ns_per_cell is that time per interior cell.
static void fusedSweep2D(benchmark::State &State, Problem<2> Prob,
                         const SchemeConfig &Scheme) {
  const double Interior =
      static_cast<double>(Prob.Domain.cells(0) * Prob.Domain.cells(1));
  SerialBackend Exec;
  FusedSolver<2> S(std::move(Prob), Scheme, Exec);
  S.advance(); // leases the step buffers and touches every page
  const bool WasEnabled = telemetry::enabled();
  const unsigned WasStride = telemetry::gaugeStride();
  telemetry::setEnabled(true);
  telemetry::setGaugeStride(0);
  double StageNs = 0.0;
  for (auto _ : State) {
    telemetry::reset();
    S.advance();
    const telemetry::MetricsReport R = telemetry::snapshot();
    const telemetry::SpanStats *Flux = R.findSpan("solver.flux");
    const double Ns = Flux ? Flux->meanNs() : 0.0;
    State.SetIterationTime(Ns * 1e-9);
    StageNs += Ns;
  }
  telemetry::reset();
  telemetry::setGaugeStride(WasStride);
  telemetry::setEnabled(WasEnabled);
  State.SetItemsProcessed(State.iterations() *
                          static_cast<int64_t>(Interior));
  State.counters["ns_per_cell"] =
      StageNs / static_cast<double>(State.iterations()) / Interior;
}

// The benchmark scheme (PC1 + HLLC) on the shock interaction: the row
// pass converts each cell row once into rolling primitive rows.  Those
// rows are about 110 KB at 400 columns and 540 KB at 2000, which is what
// the tiling question turns on.
static void BM_FusedSweep2D(benchmark::State &State) {
  fusedSweep2D(State, shockInteraction2D(static_cast<size_t>(State.range(0))),
               SchemeConfig::benchmarkScheme());
}
BENCHMARK(BM_FusedSweep2D)
    ->Arg(400)
    ->Arg(2000)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

// The figure scheme (WENO3 characteristic + HLLC): the row pass reads
// each face row's stencils straight from the stage field.  320x80 is
// the double Mach reflection at CFL 0.3 (perfbench's dmr-durable grid),
// 400x400 the shock interaction.
static void BM_FusedSweep2DWeno3(benchmark::State &State, bool DoubleMach) {
  SchemeConfig Scheme = SchemeConfig::figureScheme();
  if (DoubleMach)
    Scheme.Cfl = 0.3;
  fusedSweep2D(State,
               DoubleMach ? doubleMachReflection(80) : shockInteraction2D(400),
               Scheme);
}
BENCHMARK_CAPTURE(BM_FusedSweep2DWeno3, double_mach_320x80, true)
    ->Name("BM_FusedSweep2D/weno3/double_mach_320x80")
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_FusedSweep2DWeno3, interaction_400, false)
    ->Name("BM_FusedSweep2D/weno3/interaction_400")
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
