//===- runtime/Runtime.h - Backend selection and creation ------*- C++ -*-===//
//
// Part of SacFD, a reproduction of "Numerical Simulations of Unsteady Shock
// Wave Interactions Using SaC and Fortran-90" (PaCT 2009).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Factory functions tying the backend zoo together for tools.
///
//===----------------------------------------------------------------------===//

#ifndef SACFD_RUNTIME_RUNTIME_H
#define SACFD_RUNTIME_RUNTIME_H

#include "runtime/Backend.h"
#include "runtime/Schedule.h"

#include <memory>
#include <optional>
#include <string_view>

namespace sacfd {

/// The execution models under study.
enum class BackendKind {
  /// Single-threaded reference.
  Serial,
  /// SaC model: persistent pool, spin-barrier communication.
  SpinPool,
  /// Auto-parallelized Fortran model: per-loop thread teams.
  ForkJoin,
  /// Real OpenMP regions (cross-check baseline; build-dependent —
  /// see openMpAvailable()).
  OpenMp,
};

/// \returns the stable name used in reports and CLI flags.
const char *backendKindName(BackendKind Kind);

/// Parses "serial", "spin-pool"/"sac", "fork-join"/"fortran",
/// "openmp"/"omp".
std::optional<BackendKind> parseBackendKind(std::string_view Text);

/// Creates a backend of \p Kind with \p Threads workers.
///
/// \param Sched honored by ForkJoin (iteration partitioning); the spin
/// pool is always static-block partitioned, like SaC's runtime.
/// \param TileCfg rank-2 tiling policy installed on the backend
/// (Backend::setTile); off by default for legacy row-flattened loops.
/// \returns nullptr only for BackendKind::OpenMp in builds without
/// OpenMP support.
std::unique_ptr<Backend>
createBackend(BackendKind Kind, unsigned Threads,
              Schedule Sched = Schedule::staticBlock(),
              const Tile &TileCfg = Tile::off());

} // namespace sacfd

#endif // SACFD_RUNTIME_RUNTIME_H
