//===- runtime/ForkJoinBackend.h - Per-loop thread teams -------*- C++ -*-===//
//
// Part of SacFD, a reproduction of "Numerical Simulations of Unsteady Shock
// Wave Interactions Using SaC and Fortran-90" (PaCT 2009).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Fortran/OpenMP-style execution model.
///
/// Auto-parallelizing compilers emit one parallel region per parallel DO
/// loop; a team of threads is assembled for the region and disbanded at its
/// end.  ForkJoinBackend reproduces that cost model literally: every
/// parallelFor constructs workerCount()-1 std::threads, hands out
/// iterations under the configured Schedule, and joins them before
/// returning.  The per-region thread management cost is exactly the
/// "overhead of communication between the threads" the paper blames for
/// Fortran's scaling collapse on the 400x400 grid (Fig. 4): the Euler time
/// step issues dozens of parallel loops, so the overhead is paid dozens of
/// times per step and grows with the team size.
///
//===----------------------------------------------------------------------===//

#ifndef SACFD_RUNTIME_FORKJOINBACKEND_H
#define SACFD_RUNTIME_FORKJOINBACKEND_H

#include "runtime/Backend.h"
#include "runtime/Schedule.h"

namespace sacfd {

/// Spawns and joins a fresh thread team for every parallelFor call.
class ForkJoinBackend final : public Backend {
public:
  /// \param Threads team size including the calling thread (>= 1).
  /// \param Sched iteration scheduling policy (OMP_SCHEDULE analogue).
  explicit ForkJoinBackend(unsigned Threads,
                           Schedule Sched = Schedule::staticBlock());

  void parallelFor(size_t Begin, size_t End, RangeBody Body) override;
  unsigned workerCount() const override { return Threads; }
  const char *name() const override { return "fork-join"; }

  const Schedule &schedule() const { return Sched; }

private:
  void runStatic(size_t Begin, size_t End, RangeBody Body);
  void runDynamic(size_t Begin, size_t End, RangeBody Body);

  unsigned Threads;
  Schedule Sched;
};

} // namespace sacfd

#endif // SACFD_RUNTIME_FORKJOINBACKEND_H
