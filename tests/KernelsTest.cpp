//===- tests/KernelsTest.cpp - kernels:: scalar/SIMD bit-identity ---------===//
//
// Part of SacFD, a reproduction of "Numerical Simulations of Unsteady Shock
// Wave Interactions Using SaC and Fortran-90" (PaCT 2009).
//
//===----------------------------------------------------------------------===//
//
// The contract of the kernel layer, asserted bit-for-bit:
//   1. simdimpl:: == scalarimpl:: on every kernel, over padded SoA planes
//      and ragged run lengths (tails shorter than any vector width
//      included);
//   2. scalarimpl:: == the reference per-cell arithmetic the engines
//      always ran (Cons operators, numericalFlux, reconstructFaceStates),
//      so routing a stage through kernels:: cannot move a single bit;
//   3. non-finite states (the step-guard's world) keep 1 and 2 true,
//      except that reconstructFaces' NaN results match as NaNs only
//      (expectBitEqualUpToNaN says why).
//
//===----------------------------------------------------------------------===//

#include "kernels/Kernels.h"

#include "array/Layout.h"

#include "gtest/gtest.h"

#include <array>
#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>
#include <random>
#include <string>
#include <utility>
#include <vector>

using namespace sacfd;
using namespace sacfd::kernels;

namespace sacfd::testprobe {
// KernelsSimdProbe.cpp: per element, (A-B)^2, (B-A)^2,
// weno3UpperWeight(A, B) and weno3UpperWeight(B, A).
void squaredJumps(const double *A, const double *B, double *AB, double *BA,
                  double *WAB, double *WBA, size_t N);
}

namespace {

// Ragged lengths: below, at, and astride every plausible vector width.
const size_t kLengths[] = {1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 33, 64, 97};

/// SoA image of a state array: padded planes, the kernels' only input.
template <unsigned Dim> struct Buffers {
  std::vector<double> Soa;
  size_t Plane = 0;

  explicit Buffers(const std::vector<Cons<Dim>> &Cells)
      : Soa(NumVars<Dim> * paddedCount(Cells.size()), 0.0),
        Plane(paddedCount(Cells.size())) {
    for (size_t I = 0; I < Cells.size(); ++I)
      storeCons<Dim>(run(), I, Cells[I]);
  }

  Run<Dim> run() { return soaRun<Dim>(Soa.data(), Plane, 0); }
  ConstRun<Dim> crun() const { return soaRun<Dim>(Soa.data(), Plane, 0); }
  Cons<Dim> at(size_t I) const { return loadCons<Dim>(crun(), I); }
};

// Deterministic state soup: mostly physical states across many decades,
// sprinkled with near-vacuum and a few broken (NaN / negative-density)
// cells so the guard's world is covered too.
template <unsigned Dim>
std::vector<Cons<Dim>> randomStates(size_t N, uint64_t Seed,
                                    bool IncludeBroken) {
  std::mt19937_64 Rng(Seed);
  std::uniform_real_distribution<double> Mag(-3.0, 3.0);
  std::uniform_real_distribution<double> Uni(0.0, 1.0);
  Gas G;
  std::vector<Cons<Dim>> Out(N);
  for (size_t I = 0; I < N; ++I) {
    Prim<Dim> W;
    W.Rho = std::pow(10.0, Mag(Rng));
    W.P = std::pow(10.0, Mag(Rng));
    for (unsigned D = 0; D < Dim; ++D)
      W.Vel[D] = 20.0 * (Uni(Rng) - 0.5);
    Out[I] = toCons(W, G);
    if (IncludeBroken && Uni(Rng) < 0.1) {
      double Bad = Uni(Rng) < 0.5 ? std::numeric_limits<double>::quiet_NaN()
                                  : -W.Rho;
      Out[I].setComp(static_cast<unsigned>(Rng() % NumVars<Dim>), Bad);
    }
  }
  return Out;
}

/// Asserts the first \p N states of \p Got equal \p Want bit for bit.
template <unsigned Dim>
void expectBitEqual(const std::vector<Cons<Dim>> &Want,
                    const Buffers<Dim> &Got, size_t N, const std::string &What) {
  for (size_t I = 0; I < N; ++I)
    for (unsigned K = 0; K < NumVars<Dim>; ++K) {
      double X = Want[I].comp(K), Y = Got.at(I).comp(K);
      ASSERT_EQ(std::memcmp(&X, &Y, sizeof X), 0)
          << What << " N=" << N << " cell " << I << " comp " << K << ": "
          << X << " != " << Y;
    }
}

/// As expectBitEqual, except that any two NaNs match.  IEEE 754 leaves
/// the sign and payload of a NaN result unspecified when NaN operands
/// meet, and the compiler commutes + and * operands in either build, so
/// only NaN-ness is reproducible.  No select in the kernels reads a NaN's
/// sign, so every non-NaN result stays held to its exact bits.
template <unsigned Dim>
void expectBitEqualUpToNaN(const std::vector<Cons<Dim>> &Want,
                           const Buffers<Dim> &Got, size_t N,
                           const std::string &What) {
  for (size_t I = 0; I < N; ++I)
    for (unsigned K = 0; K < NumVars<Dim>; ++K) {
      double X = Want[I].comp(K), Y = Got.at(I).comp(K);
      if (std::isnan(X) && std::isnan(Y))
        continue;
      ASSERT_EQ(std::memcmp(&X, &Y, sizeof X), 0)
          << What << " N=" << N << " cell " << I << " comp " << K << ": "
          << X << " != " << Y;
    }
}

// -------------------------------------------------------------------------
// sspUpdate: scalar == simd == the engines' Cons arithmetic, with the
// output distinct from its inputs, aliasing the stage input X (the
// in-place form) and aliasing the snapshot Un (the fused engine's last
// stage writes U, which is also its Q^n).

template <unsigned Dim> void checkSspUpdate(uint64_t Seed, bool Broken) {
  const double A = 0.75, B = 0.25, Dt = 1.3e-3;
  for (size_t N : kLengths) {
    auto X = randomStates<Dim>(N, Seed, Broken);
    auto Un = randomStates<Dim>(N, Seed + 1, Broken);
    auto Rs = randomStates<Dim>(N, Seed + 2, Broken);
    auto Junk = randomStates<Dim>(N, Seed + 3, Broken);

    // Reference: the ArraySolver update expression.
    std::vector<Cons<Dim>> Ref(N);
    for (size_t I = 0; I < N; ++I)
      Ref[I] = Un[I] * A + (X[I] + Rs[I] * Dt) * B;

    for (bool Simd : {false, true}) {
      const std::string Tag = " simd=" + std::to_string(Simd);
      {
        Buffers<Dim> Bo(Junk), Bn(Un), Bx(X), Br(Rs);
        sspUpdate<Dim>(Bo.run(), Bn.crun(), Bx.crun(), Br.crun(), A, B, Dt, N,
                       Simd);
        expectBitEqual(Ref, Bo, N, "sspUpdate Out distinct" + Tag);
      }
      {
        Buffers<Dim> Bn(Un), Bx(X), Br(Rs);
        sspUpdate<Dim>(Bx.run(), Bn.crun(), Bx.crun(), Br.crun(), A, B, Dt, N,
                       Simd);
        expectBitEqual(Ref, Bx, N, "sspUpdate Out == X" + Tag);
      }
      {
        Buffers<Dim> Bn(Un), Bx(X), Br(Rs);
        sspUpdate<Dim>(Bn.run(), Bn.crun(), Bx.crun(), Br.crun(), A, B, Dt, N,
                       Simd);
        expectBitEqual(Ref, Bn, N, "sspUpdate Out == Un" + Tag);
      }
      {
        // The in-place forward: Out = X.
        Buffers<Dim> Bn(Un), Bx(X), Br(Rs);
        sspUpdate<Dim>(Bx.run(), Bn.crun(), Br.crun(), A, B, Dt, N, Simd);
        expectBitEqual(Ref, Bx, N, "sspUpdate in place" + Tag);
      }
    }
  }
}

TEST(Kernels, SspUpdateBitIdentity1D) { checkSspUpdate<1>(7, false); }
TEST(Kernels, SspUpdateBitIdentity2D) { checkSspUpdate<2>(11, false); }
TEST(Kernels, SspUpdateBitIdentity3D) { checkSspUpdate<3>(13, false); }
TEST(Kernels, SspUpdateBrokenStates) { checkSspUpdate<2>(17, true); }

// -------------------------------------------------------------------------
// maxEigen: scalar == simd == the per-cell max chain.

template <unsigned Dim> void checkMaxEigen(uint64_t Seed, bool Broken) {
  Gas G;
  double InvDx[3] = {10.0, 20.0, 40.0};
  for (size_t N : kLengths) {
    auto U = randomStates<Dim>(N, Seed, Broken);

    // Reference: the engines' sequential chain.
    double Ref = 0.0;
    for (size_t I = 0; I < N; ++I) {
      Prim<Dim> W = toPrim(U[I], G);
      double Ev = 0.0;
      for (unsigned D = 0; D < Dim; ++D)
        Ev += maxWaveSpeed(W, G, D) * InvDx[D];
      Ref = std::max(Ref, Ev);
    }

    for (bool Simd : {false, true}) {
      Buffers<Dim> Bu(U);
      double Got = maxEigen<Dim>(Bu.crun(), G, InvDx, 0.0, N, Simd);
      ASSERT_EQ(std::memcmp(&Got, &Ref, sizeof Ref), 0)
          << "maxEigen simd=" << Simd << " N=" << N << " got " << Got
          << " want " << Ref;
    }
  }
}

TEST(Kernels, MaxEigenBitIdentity1D) { checkMaxEigen<1>(23, false); }
TEST(Kernels, MaxEigenBitIdentity2D) { checkMaxEigen<2>(29, false); }
TEST(Kernels, MaxEigenBitIdentity3D) { checkMaxEigen<3>(31, false); }
TEST(Kernels, MaxEigenBrokenStates) { checkMaxEigen<2>(37, true); }

// -------------------------------------------------------------------------
// fluxFaces: scalar == numericalFlux reference; simd == scalar, per
// solver kind, per axis, ragged lengths, broken states included.

template <unsigned Dim>
void checkFluxFaces(RiemannKind Kind, uint64_t Seed, bool Broken) {
  Gas G;
  for (size_t N : kLengths) {
    auto L = randomStates<Dim>(N, Seed, Broken);
    auto R = randomStates<Dim>(N, Seed + 5, Broken);
    for (unsigned Axis = 0; Axis < Dim; ++Axis) {
      std::vector<Cons<Dim>> Ref(N);
      for (size_t I = 0; I < N; ++I)
        Ref[I] = numericalFlux(Kind, L[I], R[I], G, Axis);

      for (bool Simd : {false, true}) {
        Buffers<Dim> Bl(L), Br(R), Bf{std::vector<Cons<Dim>>(N)};
        fluxFaces<Dim>(Bl.crun(), Br.crun(), Bf.run(), G, Axis, Kind, N,
                       Simd);
        expectBitEqual(Ref, Bf, N,
                       std::string(riemannKindName(Kind)) +
                           " simd=" + std::to_string(Simd) +
                           " axis=" + std::to_string(Axis));
      }
    }
  }
}

TEST(Kernels, FluxRusanov1D) { checkFluxFaces<1>(RiemannKind::Rusanov, 41, false); }
TEST(Kernels, FluxRusanov2D) { checkFluxFaces<2>(RiemannKind::Rusanov, 43, false); }
TEST(Kernels, FluxRusanov3D) { checkFluxFaces<3>(RiemannKind::Rusanov, 44, false); }
TEST(Kernels, FluxHll1D) { checkFluxFaces<1>(RiemannKind::Hll, 47, false); }
TEST(Kernels, FluxHll2D) { checkFluxFaces<2>(RiemannKind::Hll, 53, false); }
TEST(Kernels, FluxHll3D) { checkFluxFaces<3>(RiemannKind::Hll, 54, false); }
TEST(Kernels, FluxHllc1D) { checkFluxFaces<1>(RiemannKind::Hllc, 59, false); }
TEST(Kernels, FluxHllc2D) { checkFluxFaces<2>(RiemannKind::Hllc, 61, false); }
TEST(Kernels, FluxHllc3D) { checkFluxFaces<3>(RiemannKind::Hllc, 67, false); }
TEST(Kernels, FluxRoe2D) { checkFluxFaces<2>(RiemannKind::Roe, 71, false); }
TEST(Kernels, FluxHllcBrokenStates) {
  checkFluxFaces<2>(RiemannKind::Hllc, 73, true);
}
TEST(Kernels, FluxRusanovBrokenStates) {
  checkFluxFaces<2>(RiemannKind::Rusanov, 79, true);
}
TEST(Kernels, FluxHllBrokenStates) {
  checkFluxFaces<2>(RiemannKind::Hll, 80, true);
}

/// Padded primitive planes for \p N cells, filled with a sentinel.
template <unsigned Dim> struct PrimBuffers {
  static constexpr double Sentinel = 12345.5;
  std::vector<double> Data;
  size_t Plane;

  explicit PrimBuffers(size_t N)
      : Data(NumPrimVars<Dim> * paddedCount(N), Sentinel),
        Plane(paddedCount(N)) {}
  PrimRun<Dim> run() { return primRun<Dim>(Data.data(), Plane, 0); }
};

// -------------------------------------------------------------------------
// reconstructFaces: scalar == simd == reconstructFaceStates on each
// face's 6-cell stencil, for every scheme x limiter, every axis, ragged
// run lengths, in both forms: the window form (face f's stencil is window
// cells f..f+5, its face neighbours' planes two shifted views of one
// plane run the form fills itself) and the stencil-run form over rows of
// a 2D SoA buffer, fed the planes of stencil rows 2 and 3 from two
// separate cellPrims runs, which must also equal the window form.  The
// SIMD dispatch reads the face neighbours from those planes only; off
// it, the planes stay unwritten sentinels and are never read.

struct ReconScheme {
  ReconstructionKind Kind;
  LimiterKind Limiter;
};

std::vector<ReconScheme> reconSchemes() {
  std::vector<ReconScheme> Out;
  for (ReconstructionKind K :
       {ReconstructionKind::Tvd2, ReconstructionKind::Tvd3})
    for (LimiterKind L : {LimiterKind::MinMod, LimiterKind::Superbee,
                          LimiterKind::VanLeer, LimiterKind::Mc})
      Out.push_back({K, L});
  Out.push_back({ReconstructionKind::Weno3, LimiterKind::MinMod});
  Out.push_back({ReconstructionKind::Weno5, LimiterKind::MinMod});
  return Out;
}

// States that break the face eigensystem: zero and negative density
// (the roeAverage sqrt clamps, 1/(0+0)) and negative pressure (c^2 < 0
// clamps to c = 0, so B1 = (gamma-1)/c^2 is infinite), mixed with
// physical neighbours.
template <unsigned Dim>
std::vector<Cons<Dim>> brokenFaceStates(size_t N, uint64_t Seed,
                                        bool WithNaN = false) {
  std::vector<Cons<Dim>> Out = randomStates<Dim>(N, Seed, WithNaN);
  std::mt19937_64 Rng(Seed + 99);
  for (size_t I = 0; I < N; ++I) {
    switch (Rng() % 4) {
    case 0:
      Out[I].Rho = 0.0;
      break;
    case 1:
      Out[I].Rho = -Out[I].Rho;
      break;
    case 2:
      Out[I].E = -Out[I].E; // negative pressure
      break;
    default:
      break;
    }
  }
  return Out;
}

/// \returns how many reference face components were NaN and how many
/// were finite, so the broken-state rows can show they cover both.
template <unsigned Dim>
std::pair<size_t, size_t>
checkReconstructFaces(ReconScheme Scheme, ReconstructVariables Vars,
                      const std::vector<Cons<Dim>> &Cells,
                      bool NaNAgnostic = false) {
  size_t NaNs = 0, Finite = 0;
  Gas G;
  std::string Name = std::string(reconstructionKindName(Scheme.Kind)) + "/" +
                     limiterKindName(Scheme.Limiter);
  for (size_t N = 1; N + 5 <= Cells.size(); ++N) {
    std::vector<Cons<Dim>> Win(Cells.begin(), Cells.begin() + N + 5);
    for (unsigned Axis = 0; Axis < Dim; ++Axis) {
      std::vector<Cons<Dim>> RefL(N), RefR(N);
      for (size_t I = 0; I < N; ++I) {
        std::array<Cons<Dim>, 6> Stencil;
        for (unsigned C = 0; C < 6; ++C)
          Stencil[C] = Win[I + C];
        FaceStates<Dim> FS = reconstructFaceStates(
            Scheme.Kind, Scheme.Limiter, Vars, Stencil, G, Axis);
        RefL[I] = FS.L;
        RefR[I] = FS.R;
        for (unsigned K = 0; K < NumVars<Dim>; ++K)
          for (double V : {FS.L.comp(K), FS.R.comp(K)}) {
            NaNs += std::isnan(V);
            Finite += std::isfinite(V);
          }
      }
      // The stencil-run form's buffer: row s holds stencil cell s of every
      // face (window cells s..s+N-1), rows Pitch cells apart, as the
      // fused row pass points runs at field rows.  The gap cells are NaN,
      // so a read outside a face's stencil shows in its output.
      const size_t Pitch = N + 3;
      Cons<Dim> Gap;
      for (unsigned K = 0; K < NumVars<Dim>; ++K)
        Gap.setComp(K, std::numeric_limits<double>::quiet_NaN());
      std::vector<Cons<Dim>> Rows(6 * Pitch, Gap);
      for (unsigned C = 0; C < 6; ++C)
        for (size_t I = 0; I < N; ++I)
          Rows[C * Pitch + I] = Win[I + C];
      for (bool Simd : {false, true}) {
        Buffers<Dim> Bw(Win), Bl{std::vector<Cons<Dim>>(N)},
            Br{std::vector<Cons<Dim>>(N)};
        PrimBuffers<Dim> Pw(N + 1);
        reconstructFaces<Dim>(Bw.crun(), Pw.run(), Bl.run(), Br.run(), G,
                              Axis, Scheme.Kind, Scheme.Limiter, Vars, N,
                              Simd);
        // Only the runs the scheme reads are formed; the others stay
        // empty, so reading one would fault.
        Buffers<Dim> Bs(Rows), Sl{std::vector<Cons<Dim>>(N)},
            Sr{std::vector<Cons<Dim>>(N)};
        StencilRuns<Dim> Stencil;
        const StencilSpan Span = stencilSpan(Scheme.Kind);
        for (unsigned C = Span.First; C <= Span.Last; ++C)
          Stencil[C] = advance(Bs.crun(), static_cast<ptrdiff_t>(C * Pitch));
        PrimBuffers<Dim> PL(N), PR(N);
        cellPrims<Dim>(Stencil[2], PL.run(), G, Vars, N, Simd);
        cellPrims<Dim>(Stencil[3], PR.run(), G, Vars, N, Simd);
        reconstructFaces<Dim>(Stencil, PL.run(), PR.run(), Sl.run(), Sr.run(),
                              G, Axis, Scheme.Kind, Scheme.Limiter, Vars, N,
                              Simd);
        std::vector<Cons<Dim>> WinL(N), WinR(N);
        for (size_t I = 0; I < N; ++I) {
          WinL[I] = Bl.at(I);
          WinR[I] = Br.at(I);
        }
        std::string What = Name + " simd=" + std::to_string(Simd) +
                           " axis=" + std::to_string(Axis);
        auto Expect = NaNAgnostic ? expectBitEqualUpToNaN<Dim>
                                  : expectBitEqual<Dim>;
        Expect(RefL, Bl, N, What + " L");
        Expect(RefR, Br, N, What + " R");
        Expect(RefL, Sl, N, What + " stencil L");
        Expect(RefR, Sr, N, What + " stencil R");
        Expect(WinL, Sl, N, What + " stencil L vs window");
        Expect(WinR, Sr, N, What + " stencil R vs window");
      }
    }
  }
  return {NaNs, Finite};
}

// Ragged run lengths 1..9: windows of 6..14 cells.  Piecewise constant
// rides along: its face states are copies, which read no planes.
template <unsigned Dim> void checkReconstructAllSchemes(uint64_t Seed) {
  std::vector<ReconScheme> Schemes = reconSchemes();
  Schemes.push_back({ReconstructionKind::PiecewiseConstant,
                     LimiterKind::MinMod});
  for (ReconScheme S : Schemes)
    checkReconstructFaces<Dim>(S, ReconstructVariables::Characteristic,
                               randomStates<Dim>(14, Seed, false));
}

TEST(Kernels, ReconstructFaces1D) { checkReconstructAllSchemes<1>(107); }
TEST(Kernels, ReconstructFaces2D) { checkReconstructAllSchemes<2>(109); }
TEST(Kernels, ReconstructFaces3D) { checkReconstructAllSchemes<3>(113); }

TEST(Kernels, ReconstructFacesBrokenStates) {
  // Broken faces yield NaNs that meet other NaNs in the projection sums,
  // so NaN results match as NaNs; every finite result (the clamps' c = 0
  // and infinite B1 included) must still match bit for bit.
  for (ReconScheme S : reconSchemes()) {
    auto [NaNs2, Finite2] = checkReconstructFaces<2>(
        S, ReconstructVariables::Characteristic, brokenFaceStates<2>(14, 127),
        true);
    auto [NaNs3, Finite3] = checkReconstructFaces<3>(
        S, ReconstructVariables::Characteristic, brokenFaceStates<3>(14, 131),
        true);
    EXPECT_GT(NaNs2 + NaNs3, 0u) << "no face broke";
    EXPECT_GT(Finite2 + Finite3, 0u) << "every face broke";
    // NaN cells too (the step guard's world).
    checkReconstructFaces<2>(S, ReconstructVariables::Characteristic,
                             randomStates<2>(14, 137, true), true);
  }
}

TEST(Kernels, ReconstructFacesPrimitiveVariables) {
  // The ablation mode runs the reference loop under both dispatches.
  for (ReconScheme S : reconSchemes())
    checkReconstructFaces<2>(S, ReconstructVariables::Primitive,
                             randomStates<2>(14, 139, false));
}

// -------------------------------------------------------------------------
// cellPrims + the PrimRun fluxFaces: the per-cell split the PC1 sweeps
// run.  Faces come from two shifted views of one cell run and its
// primitive planes, the aliasing the engines use, and must equal both
// numericalFlux and the face-state fluxFaces on the same views.

/// Which arm of hllcFlux face (\p Ql, \p Qr) takes: 0 SL >= 0, 1 SR <= 0,
/// 2 S* >= 0, 3 otherwise (reference expressions).
template <unsigned Dim>
unsigned hllcArm(const Cons<Dim> &Ql, const Cons<Dim> &Qr, const Gas &G,
                 unsigned Axis) {
  Prim<Dim> Wl = toPrim(Ql, G), Wr = toPrim(Qr, G);
  auto [SL, SR] = detail::einfeldtSpeeds(Wl, Wr, G, Axis);
  if (SL >= 0.0)
    return 0;
  if (SR <= 0.0)
    return 1;
  double Ul = Wl.Vel[Axis], Ur = Wr.Vel[Axis];
  double Ml = Wl.Rho * (SL - Ul), Mr = Wr.Rho * (SR - Ur);
  double SStar = (Wr.P - Wl.P + Ml * Ul - Mr * Ur) / (Ml - Mr);
  return SStar >= 0.0 ? 2 : 3;
}

/// Runs every axis and run length over cells drawn by \p States(N + 1);
/// \returns how many faces took each hllcFlux arm (zeros unless Hllc).
/// \p NaNAgnostic as for reconstructFaces: NaN inputs meet other NaNs.
template <unsigned Dim, typename StatesFn>
std::array<size_t, 4> checkFluxSplit(RiemannKind Kind, StatesFn States,
                                     bool NaNAgnostic = false) {
  std::array<size_t, 4> Arms{};
  Gas G;
  for (size_t N : kLengths) {
    std::vector<Cons<Dim>> Cells = States(N + 1);
    Buffers<Dim> Bc(Cells);
    ConstRun<Dim> Lo = Bc.crun(), Hi = advance(Bc.crun(), 1);
    for (unsigned Axis = 0; Axis < Dim; ++Axis) {
      std::vector<Cons<Dim>> Ref(N);
      for (size_t I = 0; I < N; ++I) {
        Ref[I] = numericalFlux(Kind, Cells[I], Cells[I + 1], G, Axis);
        if (Kind == RiemannKind::Hllc)
          ++Arms[hllcArm(Cells[I], Cells[I + 1], G, Axis)];
      }
      for (bool Simd : {false, true}) {
        std::string What = std::string(riemannKindName(Kind)) +
                           " simd=" + std::to_string(Simd) +
                           " axis=" + std::to_string(Axis);
        PrimBuffers<Dim> P(N + 1);
        cellPrims<Dim>(Lo, P.run(), G, Kind, N + 1, Simd);
        Buffers<Dim> Split{std::vector<Cons<Dim>>(N)};
        fluxFaces<Dim>(Lo, P.run(), Hi, advance(P.run(), 1), Split.run(), G,
                       Axis, Kind, N, Simd);
        auto Expect = NaNAgnostic ? expectBitEqualUpToNaN<Dim>
                                  : expectBitEqual<Dim>;
        Expect(Ref, Split, N, What + " split vs numericalFlux");

        Buffers<Dim> Faces{std::vector<Cons<Dim>>(N)};
        fluxFaces<Dim>(Lo, Hi, Faces.run(), G, Axis, Kind, N, Simd);
        std::vector<Cons<Dim>> FaceState(N);
        for (size_t I = 0; I < N; ++I)
          FaceState[I] = Faces.at(I);
        Expect(FaceState, Split, N, What + " split vs face-state");
      }
    }
  }
  return Arms;
}

template <unsigned Dim> void checkFluxSplitMatrix(uint64_t Seed) {
  // Roe rides along: off the mirror the overload is the reference loop.
  for (RiemannKind Kind : {RiemannKind::Rusanov, RiemannKind::Hll,
                           RiemannKind::Hllc, RiemannKind::Roe}) {
    // Physical states, then zero/negative density and negative pressure
    // mixed with physical neighbours, then NaN components on top: there
    // NaNs meet NaNs, so results match as NaNs only (as for
    // reconstructFaces; every non-NaN value still matches exactly).
    auto Arms = checkFluxSplit<Dim>(Kind, [&](size_t N) {
      return randomStates<Dim>(N, Seed, false);
    });
    checkFluxSplit<Dim>(Kind, [&](size_t N) {
      return brokenFaceStates<Dim>(N, Seed + 1);
    });
    checkFluxSplit<Dim>(
        Kind,
        [&](size_t N) {
          return brokenFaceStates<Dim>(N, Seed + 2, /*WithNaN=*/true);
        },
        /*NaNAgnostic=*/true);
    if (Kind == RiemannKind::Hllc) {
      for (unsigned A = 0; A < 4; ++A)
        EXPECT_GT(Arms[A], 0u) << "hllc arm " << A << " never taken";
    }
  }
}

TEST(Kernels, FluxSplitBitIdentity1D) { checkFluxSplitMatrix<1>(151); }
TEST(Kernels, FluxSplitBitIdentity2D) { checkFluxSplitMatrix<2>(157); }
TEST(Kernels, FluxSplitBitIdentity3D) { checkFluxSplitMatrix<3>(163); }

TEST(Kernels, CellPrimsWritesNothingOffTheMirror) {
  // Roe and the scalar dispatch run the reference loop: the planes are
  // neither written nor needed.  Likewise the reconstruction plane set
  // under primitive variables or the scalar dispatch.
  constexpr unsigned Dim = 2;
  using PP = PrimPlane<Dim>;
  Gas G;
  auto Cells = randomStates<Dim>(17, 167, false);
  Buffers<Dim> Bc(Cells);
  for (auto [Kind, Simd] : {std::pair{RiemannKind::Roe, true},
                            std::pair{RiemannKind::Roe, false},
                            std::pair{RiemannKind::Hllc, false}}) {
    PrimBuffers<Dim> P(17);
    cellPrims<Dim>(Bc.crun(), P.run(), G, Kind, 17, Simd);
    for (double V : P.Data)
      ASSERT_EQ(V, PrimBuffers<Dim>::Sentinel)
          << riemannKindName(Kind) << " simd=" << Simd;
  }
  for (auto [Vars, Simd] :
       {std::pair{ReconstructVariables::Primitive, true},
        std::pair{ReconstructVariables::Primitive, false},
        std::pair{ReconstructVariables::Characteristic, false}}) {
    PrimBuffers<Dim> P(17);
    cellPrims<Dim>(Bc.crun(), P.run(), G, Vars, 17, Simd);
    for (double V : P.Data)
      ASSERT_EQ(V, PrimBuffers<Dim>::Sentinel)
          << "reconstruction vars=" << static_cast<int>(Vars)
          << " simd=" << Simd;
  }
  // On the mirror the reconstruction set is the velocities, SqrtRho and
  // H, and no other plane.
  PrimBuffers<Dim> P(17);
  cellPrims<Dim>(Bc.crun(), P.run(), G, ReconstructVariables::Characteristic,
                 17, true);
  for (unsigned K = 0; K < NumPrimVars<Dim>; ++K) {
    bool Written = K < Dim || K == PP::SqrtRho || K == PP::H;
    for (size_t I = 0; I < P.Plane; ++I)
      ASSERT_EQ(P.Data[K * P.Plane + I] != PrimBuffers<Dim>::Sentinel,
                Written && I < 17)
          << "plane " << K << " cell " << I;
  }
}

// The premise of the SIMD WENO3 body's shared weight: a face's two sides
// square the same jump with opposite signs, so (a-b)*(a-b) and
// (b-a)*(b-a), and weno3UpperWeight either way round, must be the same
// bits.  The probe is compiled with the SIMD kernel TU's flags.  NaN
// operands are left out: two NaNs of different payloads may propagate
// either one, which only the NaN-agnostic rows above accept.
TEST(Kernels, Weno3SharedJumpIsSymmetric) {
  const double Inf = std::numeric_limits<double>::infinity();
  const double Max = std::numeric_limits<double>::max();
  const double Sub = std::numeric_limits<double>::denorm_min();
  const double Low = std::numeric_limits<double>::min();
  std::vector<double> Edge = {0.0,  -0.0, Sub,  -Sub, 3 * Sub, Low / 3,
                              -Low, Low,  Max,  -Max, Inf,     -Inf,
                              1.0,  -1.0, 1e-3, 1e300};
  std::vector<double> A, B;
  for (double X : Edge)
    for (double Y : Edge) {
      A.push_back(X);
      B.push_back(Y);
    }
  std::mt19937_64 Rng(173);
  std::uniform_real_distribution<double> Mag(-300.0, 300.0);
  std::uniform_real_distribution<double> Near(-1.0, 1.0);
  for (int I = 0; I < 4000; ++I) {
    double X = std::pow(10.0, Mag(Rng)) * (Rng() % 2 ? 1.0 : -1.0);
    // Half the pairs nearly cancel, the other half span all decades.
    double Y = I % 2 ? X * (1.0 + 1e-12 * Near(Rng))
                     : std::pow(10.0, Mag(Rng)) * Near(Rng);
    A.push_back(X);
    B.push_back(Y);
  }
  const size_t N = A.size();
  std::vector<double> AB(N), BA(N), WAB(N), WBA(N);
  testprobe::squaredJumps(A.data(), B.data(), AB.data(), BA.data(), WAB.data(),
                          WBA.data(), N);
  for (size_t I = 0; I < N; ++I) {
    ASSERT_EQ(std::memcmp(&AB[I], &BA[I], sizeof(double)), 0)
        << "(a-b)^2 vs (b-a)^2 at a=" << A[I] << " b=" << B[I];
    ASSERT_EQ(std::memcmp(&WAB[I], &WBA[I], sizeof(double)), 0)
        << "weno3UpperWeight at a=" << A[I] << " b=" << B[I];
  }
}

// -------------------------------------------------------------------------
// copy / zero / divergence accumulation.

template <unsigned Dim> void checkCopyZeroDiv(uint64_t Seed) {
  for (size_t N : kLengths) {
    auto Src = randomStates<Dim>(N, Seed, false);
    auto Lo = randomStates<Dim>(N, Seed + 1, false);
    auto Hi = randomStates<Dim>(N, Seed + 2, false);
    auto R0 = randomStates<Dim>(N, Seed + 3, false);
    const double InvDx = 123.5;

    std::vector<Cons<Dim>> Ref = R0;
    for (size_t I = 0; I < N; ++I)
      Ref[I] -= (Hi[I] - Lo[I]) * InvDx;

    for (bool Simd : {false, true}) {
      Buffers<Dim> Bs(Src), Bd{std::vector<Cons<Dim>>(N)};
      copyState<Dim>(Bs.crun(), Bd.run(), N, Simd);
      expectBitEqual(Src, Bd, N, "copyState");

      zeroState<Dim>(Bd.run(), N, Simd);
      expectBitEqual(std::vector<Cons<Dim>>(N), Bd, N, "zeroState");

      Buffers<Dim> Br(R0), Bl(Lo), Bh(Hi);
      accumDivergence<Dim>(Br.run(), Bl.crun(), Bh.crun(), InvDx, N, Simd);
      expectBitEqual(Ref, Br, N, "accumDivergence");
    }
  }
}

TEST(Kernels, CopyZeroDivergence1D) { checkCopyZeroDiv<1>(83); }
TEST(Kernels, CopyZeroDivergence2D) { checkCopyZeroDiv<2>(89); }
TEST(Kernels, CopyZeroDivergence3D) { checkCopyZeroDiv<3>(97); }

// Overlapping Lo/Hi views of one face line — the engines' usage.
TEST(Kernels, DivergenceOverlappingFaceLine) {
  constexpr unsigned Dim = 2;
  for (size_t N : kLengths) {
    auto Faces = randomStates<Dim>(N + 1, 101, false);
    auto R0 = randomStates<Dim>(N, 103, false);
    const double InvDx = 50.0;
    std::vector<Cons<Dim>> Ref = R0;
    for (size_t I = 0; I < N; ++I)
      Ref[I] -= (Faces[I + 1] - Faces[I]) * InvDx;

    for (bool Simd : {false, true}) {
      Buffers<Dim> Bf(Faces), Br(R0);
      accumDivergence<Dim>(Br.run(), Bf.crun(), advance(Bf.crun(), 1), InvDx,
                           N, Simd);
      expectBitEqual(Ref, Br, N, "overlap divergence");
    }
  }
}

// -------------------------------------------------------------------------
// stageUpdate: the one-pass stage tail == zeroState, accumDivergence per
// axis in axis order and sspUpdate over a scratch residual, on both
// dispatch arms, with Out distinct from its inputs, aliasing the stage
// input X and aliasing Q^n (Un).  Every buffer is kStagePad cells longer
// than the run, so a ragged tail that writes past N shows up too.

constexpr size_t kStagePad = 3;

/// The inputs of one stageUpdate run over N cells (each vector N +
/// kStagePad long).  Lo/Hi hold the face runs of the axes before the
/// last (entry Dim-1 stays empty); the last axis's face runs are two
/// shifted views of one face line, the way both engines pass them.
template <unsigned Dim> struct StageInputs {
  std::vector<Cons<Dim>> Un, X, Junk;
  std::vector<Cons<Dim>> Lo[Dim], Hi[Dim];
  std::vector<Cons<Dim>> LastLine;
};

/// \p Draw(M, Seed) returns M states.
template <unsigned Dim, typename DrawFn>
StageInputs<Dim> stageInputs(size_t N, DrawFn Draw, uint64_t Seed) {
  const size_t M = N + kStagePad;
  StageInputs<Dim> In;
  In.Un = Draw(M, Seed);
  In.X = Draw(M, Seed + 1);
  In.Junk = Draw(M, Seed + 2);
  for (unsigned Ax = 0; Ax + 1 < Dim; ++Ax) {
    In.Lo[Ax] = Draw(M, Seed + 3 + 2 * Ax);
    In.Hi[Ax] = Draw(M, Seed + 4 + 2 * Ax);
  }
  In.LastLine = Draw(M + 1, Seed + 9);
  return In;
}

enum class StageAlias { None, OutIsX, OutIsUn };

/// Runs the tail on \p In's buffers with Out per \p Alias, either as
/// stageUpdate or as the four-kernel sequence it replaces.  \returns the
/// Out buffer.
template <unsigned Dim>
Buffers<Dim> runStageTail(const StageInputs<Dim> &In, size_t N,
                          StageAlias Alias, bool Fused, bool Simd) {
  const double InvDx[3] = {123.5, 0.37, 2.0e3};
  const double A = 0.75, B = 0.25, Dt = 1.3e-3;
  Buffers<Dim> Bn(In.Un), Bx(In.X), Bj(In.Junk), Bline(In.LastLine);
  std::vector<Buffers<Dim>> Bl, Bh;
  for (unsigned Ax = 0; Ax + 1 < Dim; ++Ax) {
    Bl.emplace_back(In.Lo[Ax]);
    Bh.emplace_back(In.Hi[Ax]);
  }
  ConstRun<Dim> Lo[Dim], Hi[Dim];
  for (unsigned Ax = 0; Ax + 1 < Dim; ++Ax) {
    Lo[Ax] = Bl[Ax].crun();
    Hi[Ax] = Bh[Ax].crun();
  }
  Lo[Dim - 1] = Bline.crun();
  Hi[Dim - 1] = advance(Bline.crun(), 1);

  Buffers<Dim> &Bo = Alias == StageAlias::OutIsX    ? Bx
                     : Alias == StageAlias::OutIsUn ? Bn
                                                    : Bj;
  if (Fused) {
    stageUpdate<Dim>(Bo.run(), Bn.crun(), Bx.crun(), Lo, Hi, InvDx, A, B, Dt,
                     N, Simd);
  } else {
    Buffers<Dim> Res(In.Junk);
    zeroState<Dim>(Res.run(), N, Simd);
    for (unsigned Ax = 0; Ax < Dim; ++Ax)
      accumDivergence<Dim>(Res.run(), Lo[Ax], Hi[Ax], InvDx[Ax], N, Simd);
    sspUpdate<Dim>(Bo.run(), Bn.crun(), Bx.crun(), Res.crun(), A, B, Dt, N,
                   Simd);
  }
  return Bo;
}

/// stageUpdate on both arms == the scalar four-kernel sequence, bit for
/// bit over the whole padded Out buffer, for every aliasing.  With
/// \p UpToNaN, any two NaNs match (expectBitEqualUpToNaN says why): where
/// two NaNs meet in Un*A + (...)*B, each build commutes the sum as it
/// likes.
template <unsigned Dim>
void checkStageUpdate(const StageInputs<Dim> &In, size_t N,
                      const std::string &What, bool UpToNaN = false) {
  for (StageAlias Alias :
       {StageAlias::None, StageAlias::OutIsX, StageAlias::OutIsUn}) {
    Buffers<Dim> Want = runStageTail<Dim>(In, N, Alias, /*Fused=*/false,
                                          /*Simd=*/false);
    std::vector<Cons<Dim>> Ref(N + kStagePad);
    for (size_t I = 0; I < Ref.size(); ++I)
      Ref[I] = Want.at(I);
    for (bool Simd : {false, true}) {
      Buffers<Dim> Got = runStageTail<Dim>(In, N, Alias, /*Fused=*/true, Simd);
      const std::string Tag = What + " alias=" +
                              std::to_string(int(Alias)) +
                              " simd=" + std::to_string(Simd);
      if (UpToNaN)
        expectBitEqualUpToNaN(Ref, Got, N + kStagePad, Tag);
      else
        expectBitEqual(Ref, Got, N + kStagePad, Tag);
    }
  }
}

template <unsigned Dim> void checkStageUpdateRandom(uint64_t Seed) {
  auto Draw = [](size_t M, uint64_t S) {
    return randomStates<Dim>(M, S, false);
  };
  for (size_t N = 0; N <= 17; ++N)
    checkStageUpdate<Dim>(stageInputs<Dim>(N, Draw, Seed + 16 * N), N,
                          "stageUpdate");
}

TEST(Kernels, StageUpdateBitIdentity1D) { checkStageUpdateRandom<1>(211); }
TEST(Kernels, StageUpdateBitIdentity2D) { checkStageUpdateRandom<2>(223); }
TEST(Kernels, StageUpdateBitIdentity3D) { checkStageUpdateRandom<3>(227); }

// Non-finite and signed-zero fluxes and states; every non-NaN result is
// held to its exact bits.  Cell 0 of every run has all-+0 fluxes and
// Un = X = -0: its residual is +0 only because it starts from the
// literal 0.0 - x (a -x start gives -0, and Out then reads -0 where the
// sequence gives +0).
template <unsigned Dim> void checkStageUpdateBroken(uint64_t Seed) {
  const double Inf = std::numeric_limits<double>::infinity();
  const double NaN = std::numeric_limits<double>::quiet_NaN();
  const double Special[] = {NaN, Inf, -Inf, 0.0, -0.0, 1.5, -2.25};
  auto Draw = [&](size_t M, uint64_t S) {
    std::mt19937_64 Rng(S);
    std::vector<Cons<Dim>> Out(M);
    for (size_t I = 0; I < M; ++I)
      for (unsigned K = 0; K < NumVars<Dim>; ++K)
        Out[I].setComp(K, Special[Rng() % std::size(Special)]);
    return Out;
  };
  for (size_t N : {size_t(1), size_t(9), size_t(64)}) {
    StageInputs<Dim> In = stageInputs<Dim>(N, Draw, Seed + N);
    for (unsigned K = 0; K < NumVars<Dim>; ++K) {
      In.Un[0].setComp(K, -0.0);
      In.X[0].setComp(K, -0.0);
      for (unsigned Ax = 0; Ax + 1 < Dim; ++Ax) {
        In.Lo[Ax][0].setComp(K, 0.0);
        In.Hi[Ax][0].setComp(K, 0.0);
      }
      In.LastLine[0].setComp(K, 0.0);
      In.LastLine[1].setComp(K, 0.0);
    }
    checkStageUpdate<Dim>(In, N, "stageUpdate broken", /*UpToNaN=*/true);
  }
}

TEST(Kernels, StageUpdateBrokenStates) {
  checkStageUpdateBroken<1>(229);
  checkStageUpdateBroken<2>(233);
  checkStageUpdateBroken<3>(239);
}

TEST(Kernels, ReportsAcceleration) {
  // Informational: the CI log shows whether this build's SIMD TU really
  // got the host-ISA flags.
  SUCCEED() << "simdAccelerated() = " << simdAccelerated();
}

} // namespace
