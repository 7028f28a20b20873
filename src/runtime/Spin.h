//===- runtime/Spin.h - Bounded spin-then-yield waiting ---------*- C++ -*-===//
//
// Part of SacFD, a reproduction of "Numerical Simulations of Unsteady Shock
// Wave Interactions Using SaC and Fortran-90" (PaCT 2009).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The shard mailboxes' spin-wait: busy-poll a bounded number of
/// iterations, then fall back to yield() so an oversubscribed host (more
/// waiters than hardware threads) cannot starve the very thread being
/// waited on.  SpinBarrierPool documents the rationale.  The pools'
/// private SpinBarrierPool::spinUntil and TaskBackend::spinUntil are two
/// more copies of this loop that add a cpuRelax() pause hint per busy
/// iteration.  The three are not merged, so a change to the wait
/// discipline (a deadline, a diagnostic) has to touch all of them.
///
//===----------------------------------------------------------------------===//

#ifndef SACFD_RUNTIME_SPIN_H
#define SACFD_RUNTIME_SPIN_H

#include <thread>

namespace sacfd {

/// Spins until \p Done() is true: \p SpinLimit busy iterations, then one
/// yield() per iteration (0 yields immediately — fully cooperative).
template <typename Pred>
void spinThenYieldUntil(Pred &&Done, unsigned SpinLimit = 1u << 14) {
  unsigned Spins = 0;
  while (!Done()) {
    if (Spins < SpinLimit)
      ++Spins;
    else
      std::this_thread::yield();
  }
}

} // namespace sacfd

#endif // SACFD_RUNTIME_SPIN_H
