//===- numerics/Reconstruction.cpp - Face-value reconstruction ------------===//

#include "numerics/Reconstruction.h"

#include "support/StrUtil.h"

#include <cmath>

using namespace sacfd;

const char *sacfd::reconstructionKindName(ReconstructionKind Kind) {
  switch (Kind) {
  case ReconstructionKind::PiecewiseConstant:
    return "pc1";
  case ReconstructionKind::Tvd2:
    return "tvd2";
  case ReconstructionKind::Tvd3:
    return "tvd3";
  case ReconstructionKind::Weno3:
    return "weno3";
  case ReconstructionKind::Weno5:
    return "weno5";
  }
  return "unknown";
}

std::optional<ReconstructionKind>
sacfd::parseReconstructionKind(std::string_view Text) {
  std::string_view Name = trim(Text);
  if (equalsLower(Name, "pc1") || equalsLower(Name, "pc") ||
      equalsLower(Name, "constant"))
    return ReconstructionKind::PiecewiseConstant;
  if (equalsLower(Name, "tvd2") || equalsLower(Name, "muscl"))
    return ReconstructionKind::Tvd2;
  if (equalsLower(Name, "tvd3"))
    return ReconstructionKind::Tvd3;
  if (equalsLower(Name, "weno3") || equalsLower(Name, "weno"))
    return ReconstructionKind::Weno3;
  if (equalsLower(Name, "weno5"))
    return ReconstructionKind::Weno5;
  return std::nullopt;
}

const char *sacfd::limiterKindName(LimiterKind Kind) {
  switch (Kind) {
  case LimiterKind::MinMod:
    return "minmod";
  case LimiterKind::Superbee:
    return "superbee";
  case LimiterKind::VanLeer:
    return "vanleer";
  case LimiterKind::Mc:
    return "mc";
  }
  return "unknown";
}

std::optional<LimiterKind> sacfd::parseLimiterKind(std::string_view Text) {
  std::string_view Name = trim(Text);
  if (equalsLower(Name, "minmod"))
    return LimiterKind::MinMod;
  if (equalsLower(Name, "superbee"))
    return LimiterKind::Superbee;
  if (equalsLower(Name, "vanleer") || equalsLower(Name, "van-leer"))
    return LimiterKind::VanLeer;
  if (equalsLower(Name, "mc"))
    return LimiterKind::Mc;
  return std::nullopt;
}

/// kappa = 1/3 limited reconstruction toward the right face of the middle
/// cell; DM/DP are its backward/forward differences.
static double tvd3Biased(double U0, double DM, double DP,
                         LimiterKind Limiter) {
  // Third-order interpolation q + (2 dp + dm)/6, limited so each
  // difference contribution stays within the TVD bounds (b = 4 for
  // kappa = 1/3; narrower limiters simply substitute their own slope).
  if (Limiter == LimiterKind::MinMod) {
    constexpr double B = 4.0;
    double DmT = minmod(DM, B * DP);
    double DpT = minmod(DP, B * DM);
    return U0 + (2.0 * DpT + DmT) / 6.0;
  }
  double DmT = limitedSlope(Limiter, DM, DP);
  double DpT = limitedSlope(Limiter, DP, DM);
  return U0 + (2.0 * DpT + DmT) / 6.0;
}

FaceScalars sacfd::reconstructFace(ReconstructionKind Kind,
                                   LimiterKind Limiter,
                                   const std::array<double, 6> &W) {
  FaceScalars Out;
  switch (Kind) {
  case ReconstructionKind::PiecewiseConstant:
    Out.L = W[2];
    Out.R = W[3];
    return Out;

  case ReconstructionKind::Tvd2: {
    // MUSCL: cell i extrapolates forward, cell i+1 backward.
    double SlopeL = limitedSlope(Limiter, W[2] - W[1], W[3] - W[2]);
    double SlopeR = limitedSlope(Limiter, W[3] - W[2], W[4] - W[3]);
    Out.L = W[2] + 0.5 * SlopeL;
    Out.R = W[3] - 0.5 * SlopeR;
    return Out;
  }

  case ReconstructionKind::Tvd3: {
    Out.L = tvd3Biased(W[2], W[2] - W[1], W[3] - W[2], Limiter);
    // Mirror for the right cell: its "forward" direction points left.
    Out.R = tvd3Biased(W[3], W[3] - W[4], W[2] - W[3], Limiter);
    return Out;
  }

  case ReconstructionKind::Weno3:
    Out.L = weno3Biased(W[1], W[2], W[3]);
    Out.R = weno3Biased(W[4], W[3], W[2]);
    return Out;

  case ReconstructionKind::Weno5:
    Out.L = weno5Biased(W[0], W[1], W[2], W[3], W[4]);
    Out.R = weno5Biased(W[5], W[4], W[3], W[2], W[1]);
    return Out;
  }
  Out.L = W[2];
  Out.R = W[3];
  return Out;
}
