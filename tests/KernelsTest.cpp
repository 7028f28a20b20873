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
//      always ran (Cons operators, numericalFlux), so routing a stage
//      through kernels:: cannot move a single bit;
//   3. non-finite states (the step-guard's world) keep 1 and 2 true.
//
//===----------------------------------------------------------------------===//

#include "kernels/Kernels.h"

#include "array/Layout.h"

#include "gtest/gtest.h"

#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

using namespace sacfd;
using namespace sacfd::kernels;

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

// -------------------------------------------------------------------------
// sspUpdate: scalar == simd == the engines' Cons arithmetic.

template <unsigned Dim> void checkSspUpdate(uint64_t Seed, bool Broken) {
  const double A = 0.75, B = 0.25, Dt = 1.3e-3;
  for (size_t N : kLengths) {
    auto U0 = randomStates<Dim>(N, Seed, Broken);
    auto Un = randomStates<Dim>(N, Seed + 1, Broken);
    auto Rs = randomStates<Dim>(N, Seed + 2, Broken);

    // Reference: the ArraySolver update expression.
    std::vector<Cons<Dim>> Ref(N);
    for (size_t I = 0; I < N; ++I)
      Ref[I] = Un[I] * A + (U0[I] + Rs[I] * Dt) * B;

    for (bool Simd : {false, true}) {
      Buffers<Dim> Bu(U0), Bn(Un), Br(Rs);
      sspUpdate<Dim>(Bu.run(), Bn.crun(), Br.crun(), A, B, Dt, N, Simd);
      expectBitEqual(Ref, Bu, N,
                     "sspUpdate simd=" + std::to_string(Simd));
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
TEST(Kernels, FluxHll1D) { checkFluxFaces<1>(RiemannKind::Hll, 47, false); }
TEST(Kernels, FluxHll2D) { checkFluxFaces<2>(RiemannKind::Hll, 53, false); }
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

TEST(Kernels, ReportsAcceleration) {
  // Informational: the CI log shows whether this build's SIMD TU really
  // got the host-ISA flags.
  SUCCEED() << "simdAccelerated() = " << simdAccelerated();
}

} // namespace
