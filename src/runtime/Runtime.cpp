//===- runtime/Runtime.cpp - Backend selection and creation --------------===//

#include "runtime/Runtime.h"

#include "runtime/ForkJoinBackend.h"
#include "runtime/OmpBackend.h"
#include "runtime/SerialBackend.h"
#include "runtime/SpinBarrierPool.h"
#include "support/Error.h"
#include "support/StrUtil.h"

using namespace sacfd;

const char *sacfd::backendKindName(BackendKind Kind) {
  switch (Kind) {
  case BackendKind::Serial:
    return "serial";
  case BackendKind::SpinPool:
    return "spin-pool";
  case BackendKind::ForkJoin:
    return "fork-join";
  case BackendKind::OpenMp:
    return "openmp";
  }
  sacfdUnreachable("covered switch");
}

std::optional<BackendKind> sacfd::parseBackendKind(std::string_view Text) {
  std::string_view Name = trim(Text);
  if (equalsLower(Name, "serial"))
    return BackendKind::Serial;
  if (equalsLower(Name, "spin-pool") || equalsLower(Name, "spinpool") ||
      equalsLower(Name, "sac"))
    return BackendKind::SpinPool;
  if (equalsLower(Name, "fork-join") || equalsLower(Name, "forkjoin") ||
      equalsLower(Name, "fortran"))
    return BackendKind::ForkJoin;
  if (equalsLower(Name, "openmp") || equalsLower(Name, "omp"))
    return BackendKind::OpenMp;
  return std::nullopt;
}

std::unique_ptr<Backend> sacfd::createBackend(BackendKind Kind,
                                              unsigned Threads,
                                              Schedule Sched,
                                              const Tile &TileCfg) {
  std::unique_ptr<Backend> B;
  switch (Kind) {
  case BackendKind::Serial:
    B = std::make_unique<SerialBackend>();
    break;
  case BackendKind::SpinPool:
    B = std::make_unique<SpinBarrierPool>(Threads);
    break;
  case BackendKind::ForkJoin:
    B = std::make_unique<ForkJoinBackend>(Threads, Sched);
    break;
  case BackendKind::OpenMp:
    B = createOmpBackend(Threads);
    break;
  }
  if (B)
    B->setTile(TileCfg);
  return B;
}
