//===- euler/Gas.h - Perfect-gas equation of state --------------*- C++ -*-===//
//
// Part of SacFD, a reproduction of "Numerical Simulations of Unsteady Shock
// Wave Interactions Using SaC and Fortran-90" (PaCT 2009).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The calorically perfect gas closing the Euler system.
///
/// Eq. (3) of the paper:  p = (gamma - 1) (E - rho (u^2+v^2)/2)  with
/// gamma = 1.4 for air.  Gas bundles gamma with the derived thermodynamic
/// helpers every layer above needs.
///
/// Breakdown containment: the EOS helpers are total functions.  Earlier
/// revisions guarded unphysical inputs with asserts only, so a negative
/// pressure aborted Debug runs and silently produced NaN in Release
/// builds.  Unstable schemes *do* produce transiently unphysical states
/// mid-step, so the helpers now clamp instead: detection belongs to the
/// interior health pass (EulerSolver::summarize, run by the step guard
/// in solver/StepGuard.h), which observes the stored states between
/// steps.
///
//===----------------------------------------------------------------------===//

#ifndef SACFD_EULER_GAS_H
#define SACFD_EULER_GAS_H

#include <algorithm>
#include <cmath>
#include <limits>

namespace sacfd {

/// Ratio of specific heats and the EOS helpers derived from it.
struct Gas {
  /// gamma = cp/cv; 1.4 for diatomic air (the paper's value).
  double Gamma = 1.4;

  constexpr Gas() = default;
  constexpr explicit Gas(double Gamma) : Gamma(Gamma) {}

  /// Pressure from density, total energy density, and kinetic energy
  /// density (Eq. 3): p = (gamma-1) (E - rho |u|^2 / 2).
  double pressure(double Rho, double KineticEnergyDensity,
                  double TotalEnergyDensity) const {
    (void)Rho;
    return (Gamma - 1.0) * (TotalEnergyDensity - KineticEnergyDensity);
  }

  /// Total energy density from primitive state:
  /// E = p/(gamma-1) + rho |u|^2 / 2.
  double totalEnergy(double P, double KineticEnergyDensity) const {
    return P / (Gamma - 1.0) + KineticEnergyDensity;
  }

  /// Speed of sound c = sqrt(gamma p / rho).
  ///
  /// Unphysical inputs are contained rather than asserted: negative
  /// pressure clamps to c = 0 and non-positive density returns +inf (an
  /// infinite signal speed collapses the CFL step).  Both outcomes keep
  /// downstream arithmetic NaN-free so the health scan, not undefined
  /// behavior, decides what happens to a broken state.  Physical inputs
  /// are evaluated bit-identically to the plain formula.
  double soundSpeed(double Rho, double P) const {
    if (!(Rho > 0.0))
      return std::numeric_limits<double>::infinity();
    return std::sqrt(Gamma * std::max(P, 0.0) / Rho);
  }

  /// Specific total enthalpy H = (E + p) / rho.  Non-positive density
  /// propagates inf/NaN for the health scan to catch (no Release/Debug
  /// divergence).
  double totalEnthalpy(double Rho, double P,
                       double TotalEnergyDensity) const {
    return (TotalEnergyDensity + P) / Rho;
  }

  /// True when (rho, p) is a physically admissible thermodynamic state.
  static bool physicalState(double Rho, double P) {
    return std::isfinite(Rho) && std::isfinite(P) && Rho > 0.0 && P >= 0.0;
  }
};

} // namespace sacfd

#endif // SACFD_EULER_GAS_H
