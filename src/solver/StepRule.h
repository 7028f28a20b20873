//===- solver/StepRule.h - The one time-stepping rule ----------*- C++ -*-===//
//
// Part of SacFD, a reproduction of "Numerical Simulations of Unsteady Shock
// Wave Interactions Using SaC and Fortran-90" (PaCT 2009).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's time loop is one rule: take the CFL step from the GetDT
/// max-eigenvalue reduction and clamp it onto the output time.  nextStep()
/// is that rule and the only place it lives; it returns a StepEntry, the
/// exact decision every driver then executes through EulerSolver::apply
/// (plain solver, step guard, SolverRun, shard workers).  The shard
/// coordinator logs the entries it broadcast and replays them verbatim
/// after a rewind, so recovery re-runs decisions instead of re-deriving
/// them.
///
//===----------------------------------------------------------------------===//

#ifndef SACFD_SOLVER_STEPRULE_H
#define SACFD_SOLVER_STEPRULE_H

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

namespace sacfd {

/// One committed decision of a stepping loop, with its exact bits.
struct StepEntry {
  enum Kind : uint8_t {
    Step, ///< advance one step with dt = Value
    Snap, ///< overwrite the clock with Value (no step, no GetDT)
  };
  Kind K = Step;
  double Value = 0.0;

  bool isSnap() const { return K == Snap; }
};

/// True when the interval [Now, EndTime] is below the rounding noise of
/// the solver clock — smaller than a few ulps of Now.  Stepping through
/// such a remainder grinds out denormal-sized dt values (and
/// `Time += Dt` may not even change Time, looping forever); nextStep
/// snaps the clock onto EndTime instead.
inline bool stepRemainderNegligible(double Now, double EndTime) {
  return EndTime - Now <
         4.0 * std::numeric_limits<double>::epsilon() *
             std::max(std::abs(Now), 1.0);
}

/// The next entry of a loop at clock \p Now heading for \p EndTime
/// (+infinity for a fixed-step loop): a snap onto EndTime when the
/// remainder is negligible, else a step of `min(Cfl(), EndTime - Now)`.
/// \p Cfl is called only for a step, so a snap runs no GetDT.  Callers
/// stop once Now >= EndTime.
template <typename CflFn>
StepEntry nextStep(double Now, double EndTime, CflFn &&Cfl) {
  if (stepRemainderNegligible(Now, EndTime))
    return {StepEntry::Snap, EndTime};
  return {StepEntry::Step, std::min(Cfl(), EndTime - Now)};
}

} // namespace sacfd

#endif // SACFD_SOLVER_STEPRULE_H
