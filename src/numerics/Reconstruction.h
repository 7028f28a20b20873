//===- numerics/Reconstruction.h - Face-value reconstruction ---*- C++ -*-===//
//
// Part of SacFD, a reproduction of "Numerical Simulations of Unsteady Shock
// Wave Interactions Using SaC and Fortran-90" (PaCT 2009).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Stage 1 of the Godunov pipeline: "reconstruction (in each cell) of the
/// flow variables on the cell faces from cell-averaged variables".
///
/// Four schemes, matching the paper's menu:
///   PC1   1st-order piecewise constant (used in the Fig. 4 benchmark)
///   TVD2  2nd-order MUSCL with a selectable slope limiter
///   TVD3  3rd-order (kappa = 1/3) limited reconstruction
///   WENO3 3rd-order weighted essentially non-oscillatory (used for the
///         flow-field figures)
///
/// The scalar kernel reconstructFace() works on a 6-value window of one
/// characteristic component centered on a face; the characteristic
/// projection around it lives in reconstructFaceStates().
///
//===----------------------------------------------------------------------===//

#ifndef SACFD_NUMERICS_RECONSTRUCTION_H
#define SACFD_NUMERICS_RECONSTRUCTION_H

#include "euler/Characteristics.h"
#include "euler/State.h"
#include "numerics/Limiters.h"

#include <array>
#include <cassert>
#include <optional>
#include <string_view>

namespace sacfd {

/// Reconstruction scheme menu.
enum class ReconstructionKind {
  PiecewiseConstant, ///< 1st order (paper's speed benchmark)
  Tvd2,              ///< 2nd-order TVD MUSCL
  Tvd3,              ///< 3rd-order TVD (kappa = 1/3)
  Weno3,             ///< 3rd-order WENO (paper's flow figures)
  Weno5,             ///< 5th-order WENO (extension beyond the paper)
};

/// \returns the stable CLI/report name of \p Kind.
const char *reconstructionKindName(ReconstructionKind Kind);

/// Parses "pc1", "tvd2", "tvd3", "weno3".
std::optional<ReconstructionKind> parseReconstructionKind(
    std::string_view Text);

/// Ghost-cell layers a scheme needs on each side of the domain.
constexpr unsigned ghostCells(ReconstructionKind Kind) {
  switch (Kind) {
  case ReconstructionKind::PiecewiseConstant:
    return 1;
  case ReconstructionKind::Tvd2:
  case ReconstructionKind::Tvd3:
  case ReconstructionKind::Weno3:
    return 2;
  case ReconstructionKind::Weno5:
    return 3;
  }
  return 3;
}

/// Variables the stencil is reconstructed in.
enum class ReconstructVariables {
  Characteristic, ///< the paper's choice (Section 3)
  Primitive,      ///< ablation alternative
};

/// Left/right states at one face.
struct FaceScalars {
  double L;
  double R;
};

/// The unnormalized weight of weno3Biased's {i, i+1} sub-stencil (ideal
/// weight d1 = 2/3, smoothness indicator (Up - U0)^2).  A face's two
/// sides square the same jump with opposite signs, and (a-b)*(a-b) and
/// (b-a)*(b-a) are the same bits for every non-NaN pair, so a caller
/// reconstructing both sides may compute it once.
inline double weno3UpperWeight(double U0, double Up) {
  constexpr double Eps = 1e-6;
  double B1 = (Up - U0) * (Up - U0);
  return (2.0 / 3.0) / ((Eps + B1) * (Eps + B1));
}

/// weno3Biased with the {i, i+1} weight \p A1 = weno3UpperWeight(U0, Up)
/// already computed.
inline double weno3Biased(double Um, double U0, double Up, double A1) {
  // Candidate polynomials evaluated at the face.
  double P0 = -0.5 * Um + 1.5 * U0; // stencil {i-1, i}
  double P1 = 0.5 * U0 + 0.5 * Up;  // stencil {i, i+1}
  // Smoothness indicator and ideal weight (d0 = 1/3) of {i-1, i}.
  double B0 = (U0 - Um) * (U0 - Um);
  constexpr double Eps = 1e-6;
  double A0 = (1.0 / 3.0) / ((Eps + B0) * (Eps + B0));
  return (A0 * P0 + A1 * P1) / (A0 + A1);
}

/// One-sided 3rd-order WENO reconstruction toward the right face of the
/// middle cell, from the ordered window (Um, U0, Up) = (upwind, cell,
/// downwind).
inline double weno3Biased(double Um, double U0, double Up) {
  return weno3Biased(Um, U0, Up, weno3UpperWeight(U0, Up));
}

/// One-sided 5th-order WENO reconstruction toward the right face of the
/// middle cell, from the ordered 5-cell window (A, B, C, D, E) =
/// (i-2, i-1, i, i+1, i+2) in upwind orientation (Jiang & Shu weights).
inline double weno5Biased(double A, double B, double C, double D, double E) {
  double P0 = (2.0 * A - 7.0 * B + 11.0 * C) / 6.0;
  double P1 = (-B + 5.0 * C + 2.0 * D) / 6.0;
  double P2 = (2.0 * C + 5.0 * D - E) / 6.0;

  double B0 = (13.0 / 12.0) * (A - 2.0 * B + C) * (A - 2.0 * B + C) +
              0.25 * (A - 4.0 * B + 3.0 * C) * (A - 4.0 * B + 3.0 * C);
  double B1 = (13.0 / 12.0) * (B - 2.0 * C + D) * (B - 2.0 * C + D) +
              0.25 * (B - D) * (B - D);
  double B2 = (13.0 / 12.0) * (C - 2.0 * D + E) * (C - 2.0 * D + E) +
              0.25 * (3.0 * C - 4.0 * D + E) * (3.0 * C - 4.0 * D + E);

  constexpr double Eps = 1e-6;
  double A0 = 0.1 / ((Eps + B0) * (Eps + B0));
  double A1 = 0.6 / ((Eps + B1) * (Eps + B1));
  double A2 = 0.3 / ((Eps + B2) * (Eps + B2));
  return (A0 * P0 + A1 * P1 + A2 * P2) / (A0 + A1 + A2);
}

/// Reconstructs one scalar component at the face between window cells 2
/// and 3.
///
/// \param W a 6-value window [i-2, i-1, i, i+1, i+2, i+3] of cell
/// averages; the face sits between W[2] and W[3].  PC1 reads W[2]/W[3]
/// only; the higher-order schemes read the full window.
FaceScalars reconstructFace(ReconstructionKind Kind, LimiterKind Limiter,
                            const std::array<double, 6> &W);

/// Reconstructs the conservative left/right states at a face from a
/// 6-cell conservative stencil, projecting through the characteristic
/// basis of the face (or reconstructing raw components in Primitive
/// mode's sense — component space — for the ablation).
template <unsigned Dim> struct FaceStates {
  Cons<Dim> L;
  Cons<Dim> R;
};

template <unsigned Dim>
FaceStates<Dim>
reconstructFaceStates(ReconstructionKind Kind, LimiterKind Limiter,
                      ReconstructVariables Vars,
                      const std::array<Cons<Dim>, 6> &Stencil, const Gas &G,
                      unsigned Axis) {
  constexpr unsigned N = NumVars<Dim>;
  FaceStates<Dim> Out;

  if (Kind == ReconstructionKind::PiecewiseConstant) {
    // No projection needed: the face states are the adjacent averages.
    Out.L = Stencil[2];
    Out.R = Stencil[3];
    return Out;
  }

  if (Vars == ReconstructVariables::Characteristic) {
    // Local characteristic projection at the face (Section 3 of the
    // paper): eigensystem from the Roe average of the face neighbors.
    Prim<Dim> Wl = toPrim(Stencil[2], G);
    Prim<Dim> Wr = toPrim(Stencil[3], G);
    EigenSystem<Dim> ES(roeAverage(Wl, Wr, G), G, Axis);

    std::array<typename EigenSystem<Dim>::Vector, 6> CharWindow;
    for (unsigned Cell = 0; Cell < 6; ++Cell)
      CharWindow[Cell] = ES.toCharacteristic(Stencil[Cell]);

    typename EigenSystem<Dim>::Vector CharL, CharR;
    for (unsigned K = 0; K < N; ++K) {
      std::array<double, 6> W;
      for (unsigned Cell = 0; Cell < 6; ++Cell)
        W[Cell] = CharWindow[Cell][K];
      FaceScalars F = reconstructFace(Kind, Limiter, W);
      CharL[K] = F.L;
      CharR[K] = F.R;
    }
    Out.L = ES.fromCharacteristic(CharL);
    Out.R = ES.fromCharacteristic(CharR);
    return Out;
  }

  // Primitive-variable mode: reconstruct rho, u..., p component-wise.
  std::array<Prim<Dim>, 6> PrimStencil;
  for (unsigned Cell = 0; Cell < 6; ++Cell)
    PrimStencil[Cell] = toPrim(Stencil[Cell], G);

  Prim<Dim> WL, WR;
  for (unsigned K = 0; K < N; ++K) {
    std::array<double, 6> W;
    for (unsigned Cell = 0; Cell < 6; ++Cell)
      W[Cell] = PrimStencil[Cell].comp(K);
    FaceScalars F = reconstructFace(Kind, Limiter, W);
    WL.setComp(K, F.L);
    WR.setComp(K, F.R);
  }
  // Positivity guard: fall back to first order on a bad reconstruction.
  if (WL.Rho <= 0.0 || WL.P <= 0.0)
    WL = PrimStencil[2];
  if (WR.Rho <= 0.0 || WR.P <= 0.0)
    WR = PrimStencil[3];
  Out.L = toCons(WL, G);
  Out.R = toCons(WR, G);
  return Out;
}

} // namespace sacfd

#endif // SACFD_NUMERICS_RECONSTRUCTION_H
