//===- euler/State.h - Conservative and primitive cell states --*- C++ -*-===//
//
// Part of SacFD, a reproduction of "Numerical Simulations of Unsteady Shock
// Wave Interactions Using SaC and Fortran-90" (PaCT 2009).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The per-cell value types of the solver — the paper's `fluid_cv`
/// (conservative: Q of Eq. 2) and `fluid_pv` (primitive: rho, u, p).
///
/// Both are templated on the spatial dimension so the same solver body
/// instantiates for the 1D Sod tube and the 2D channel problem (the
/// paper's rank-generic reuse, realized with compile-time Dim for zero
/// abstraction cost).  Cons has the vector-space operators the schemes
/// need (conservative states are added/scaled inside reconstructions and
/// Runge-Kutta stages), so Cons-valued NDArrays compose with the array
/// expression layer exactly like SaC's `fluid_cv[.]`.
///
//===----------------------------------------------------------------------===//

#ifndef SACFD_EULER_STATE_H
#define SACFD_EULER_STATE_H

#include "euler/Gas.h"

#include <array>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <limits>

namespace sacfd {

/// Number of conserved variables in \p Dim spatial dimensions.
template <unsigned Dim> inline constexpr unsigned NumVars = Dim + 2;

/// Conservative state Q = [rho, rho*u..., E] (the paper's fluid_cv).
template <unsigned Dim> struct Cons {
  static_assert(Dim >= 1 && Dim <= 3, "supported spatial dimensions");
  static constexpr unsigned N = NumVars<Dim>;

  double Rho = 0.0;                   ///< mass density
  std::array<double, Dim> Mom = {};   ///< momentum density rho*u_d
  double E = 0.0;                     ///< total energy density

  /// Flat component access in the canonical order [rho, mom..., E],
  /// matching the eigenvector matrices in Characteristics.h.
  double comp(unsigned K) const {
    assert(K < N && "component out of range");
    if (K == 0)
      return Rho;
    if (K == N - 1)
      return E;
    return Mom[K - 1];
  }
  void setComp(unsigned K, double V) {
    assert(K < N && "component out of range");
    if (K == 0)
      Rho = V;
    else if (K == N - 1)
      E = V;
    else
      Mom[K - 1] = V;
  }

  friend Cons operator+(const Cons &A, const Cons &B) {
    Cons R;
    R.Rho = A.Rho + B.Rho;
    for (unsigned D = 0; D < Dim; ++D)
      R.Mom[D] = A.Mom[D] + B.Mom[D];
    R.E = A.E + B.E;
    return R;
  }
  friend Cons operator-(const Cons &A, const Cons &B) {
    Cons R;
    R.Rho = A.Rho - B.Rho;
    for (unsigned D = 0; D < Dim; ++D)
      R.Mom[D] = A.Mom[D] - B.Mom[D];
    R.E = A.E - B.E;
    return R;
  }
  friend Cons operator*(const Cons &A, double S) {
    Cons R;
    R.Rho = A.Rho * S;
    for (unsigned D = 0; D < Dim; ++D)
      R.Mom[D] = A.Mom[D] * S;
    R.E = A.E * S;
    return R;
  }
  friend Cons operator*(double S, const Cons &A) { return A * S; }
  friend Cons operator/(const Cons &A, double S) { return A * (1.0 / S); }

  Cons &operator+=(const Cons &B) { return *this = *this + B; }
  Cons &operator-=(const Cons &B) { return *this = *this - B; }

  friend bool operator==(const Cons &A, const Cons &B) {
    if (A.Rho != B.Rho || A.E != B.E)
      return false;
    for (unsigned D = 0; D < Dim; ++D)
      if (A.Mom[D] != B.Mom[D])
        return false;
    return true;
  }
};

/// Primitive state [rho, u..., p] (the paper's fluid_pv).
template <unsigned Dim> struct Prim {
  static_assert(Dim >= 1 && Dim <= 3, "supported spatial dimensions");
  static constexpr unsigned N = NumVars<Dim>;

  double Rho = 0.0;                   ///< mass density
  std::array<double, Dim> Vel = {};   ///< velocity u_d
  double P = 0.0;                     ///< pressure

  double comp(unsigned K) const {
    assert(K < N && "component out of range");
    if (K == 0)
      return Rho;
    if (K == N - 1)
      return P;
    return Vel[K - 1];
  }
  void setComp(unsigned K, double V) {
    assert(K < N && "component out of range");
    if (K == 0)
      Rho = V;
    else if (K == N - 1)
      P = V;
    else
      Vel[K - 1] = V;
  }

  /// Kinetic energy density rho |u|^2 / 2.
  double kineticEnergyDensity() const {
    double Q2 = 0.0;
    for (unsigned D = 0; D < Dim; ++D)
      Q2 += Vel[D] * Vel[D];
    return 0.5 * Rho * Q2;
  }
};

/// Primitive -> conservative (Eq. 2).
template <unsigned Dim> Cons<Dim> toCons(const Prim<Dim> &W, const Gas &G) {
  Cons<Dim> Q;
  Q.Rho = W.Rho;
  for (unsigned D = 0; D < Dim; ++D)
    Q.Mom[D] = W.Rho * W.Vel[D];
  Q.E = G.totalEnergy(W.P, W.kineticEnergyDensity());
  return Q;
}

/// Conservative -> primitive (inverts Eq. 2 via Eq. 3).
///
/// Total function: a non-positive density yields non-finite velocity /
/// pressure components instead of aborting (Debug) or being undefined
/// (Release).  Callers that must not see such states check
/// isPhysicalState() first; the solver-level detector is the interior
/// health pass (EulerSolver::summarize).
template <unsigned Dim> Prim<Dim> toPrim(const Cons<Dim> &Q, const Gas &G) {
  Prim<Dim> W;
  W.Rho = Q.Rho;
  double Kinetic = 0.0;
  for (unsigned D = 0; D < Dim; ++D) {
    W.Vel[D] = Q.Mom[D] / Q.Rho;
    Kinetic += Q.Mom[D] * W.Vel[D];
  }
  W.P = G.pressure(Q.Rho, 0.5 * Kinetic, Q.E);
  return W;
}

/// One cell against the admissible set: \c Flagged when a component is
/// not finite, the density is below \p DensityFloor or the pressure is
/// below \p PressureFloor.  \c P is toPrim's pressure (kinetic energy
/// 0.5 * sum m_d * (m_d / rho), Eq. 3) for a finite cell with rho > 0 and
/// -inf otherwise, so a vacuum or negative-density cell never reads as
/// healthy through a 0/0 velocity.  The interior health pass
/// (EulerSolver::summarize), the step guard's floors and isPhysicalState
/// all classify through this one rule.
struct CellClass {
  bool Finite;
  double P;
  bool Flagged;
};

template <unsigned Dim>
inline CellClass classifyCell(const Cons<Dim> &Q, const Gas &G,
                              double DensityFloor, double PressureFloor) {
  bool Finite = true;
  for (unsigned K = 0; K < NumVars<Dim>; ++K)
    Finite = Finite && std::isfinite(Q.comp(K));
  const double P = Finite && Q.Rho > 0.0
                       ? toPrim(Q, G).P
                       : -std::numeric_limits<double>::infinity();
  return {Finite, P,
          !Finite || Q.Rho < DensityFloor || !(P >= PressureFloor)};
}

/// True when the conserved state is finite with positive density and
/// non-negative pressure — the admissible set the schemes assume.  The
/// step guard scans for violations between steps.
template <unsigned Dim>
bool isPhysicalState(const Cons<Dim> &Q, const Gas &G) {
  return !classifyCell(Q, G, 0.0, 0.0).Flagged;
}

/// Fastest signal speed |u_axis| + c of a cell; the building block of the
/// paper's GetDT kernel.
template <unsigned Dim>
double maxWaveSpeed(const Prim<Dim> &W, const Gas &G, unsigned Axis) {
  assert(Axis < Dim && "axis out of range");
  double C = G.soundSpeed(W.Rho, W.P);
  double U = W.Vel[Axis];
  return (U < 0.0 ? -U : U) + C;
}

} // namespace sacfd

#endif // SACFD_EULER_STATE_H
