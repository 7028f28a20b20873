//===- runtime/SerialBackend.h - Single-threaded reference -----*- C++ -*-===//
//
// Part of SacFD, a reproduction of "Numerical Simulations of Unsteady Shock
// Wave Interactions Using SaC and Fortran-90" (PaCT 2009).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The trivial single-threaded Backend.
///
/// Runs every parallelFor body inline on the calling thread.  This is the
/// correctness oracle the threaded backends are tested against, and the
/// 1-core data point of the FIG4 experiment.
///
//===----------------------------------------------------------------------===//

#ifndef SACFD_RUNTIME_SERIALBACKEND_H
#define SACFD_RUNTIME_SERIALBACKEND_H

#include "runtime/Backend.h"

namespace sacfd {

/// Executes all iterations inline; workerCount() == 1.
class SerialBackend final : public Backend {
public:
  void parallelFor(size_t Begin, size_t End, RangeBody Body) override;
  unsigned workerCount() const override { return 1; }
  const char *name() const override { return "serial"; }
};

} // namespace sacfd

#endif // SACFD_RUNTIME_SERIALBACKEND_H
