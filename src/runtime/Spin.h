//===- runtime/Spin.h - Bounded spin-then-yield waiting ---------*- C++ -*-===//
//
// Part of SacFD, a reproduction of "Numerical Simulations of Unsteady Shock
// Wave Interactions Using SaC and Fortran-90" (PaCT 2009).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one spin-wait loop in SacFD: busy-poll a bounded number of
/// iterations with a pause hint each, then fall back to yield() so an
/// oversubscribed host (more waiters than hardware threads) cannot starve
/// the very thread being waited on.  SpinBarrierPool documents the
/// rationale.  Its dispatch and barrier waits, the shard workers'
/// halo-mailbox and epoch waits and the shard coordinator's ready and
/// ack waits all call spinThenYieldUntil; no other loop in src/ yields,
/// so a change to the wait discipline (a deadline, a diagnostic) lands
/// here once.
///
//===----------------------------------------------------------------------===//

#ifndef SACFD_RUNTIME_SPIN_H
#define SACFD_RUNTIME_SPIN_H

#include <thread>

namespace sacfd {

/// Hint to the CPU that we are in a busy-wait loop.
inline void cpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

/// Spins until \p IsDone() is true: \p SpinLimit busy iterations, each
/// with a cpuRelax(), then one yield() per iteration (0 yields
/// immediately — fully cooperative).
template <typename Pred>
void spinThenYieldUntil(Pred &&IsDone, unsigned SpinLimit = 1u << 14) {
  unsigned Spins = 0;
  while (!IsDone()) {
    if (Spins < SpinLimit) {
      ++Spins;
      cpuRelax();
    } else {
      // Oversubscription fallback: give the core away so the thread that
      // owns the work we are waiting for can run.
      std::this_thread::yield();
    }
  }
}

} // namespace sacfd

#endif // SACFD_RUNTIME_SPIN_H
