//===- array/FieldPool.cpp - Reusable field-buffer arena ------------------===//
//
// Part of SacFD, a reproduction of "Numerical Simulations of Unsteady Shock
// Wave Interactions Using SaC and Fortran-90" (PaCT 2009).
//
//===----------------------------------------------------------------------===//

#include "array/FieldPool.h"

#include "telemetry/Telemetry.h"

#include <atomic>

namespace sacfd {

namespace detail {
unsigned nextFieldPoolTypeId() {
  static std::atomic<unsigned> Next{0};
  return Next.fetch_add(1, std::memory_order_relaxed);
}
} // namespace detail

FieldPool::Stats FieldPool::stats() const {
  std::lock_guard<std::mutex> Lock(M);
  return St;
}

void FieldPool::recordTelemetry(unsigned Step) const {
  if (!telemetry::enabled())
    return;
  static const unsigned AcqId = telemetry::gaugeId("pool.acquisitions");
  static const unsigned HitId = telemetry::gaugeId("pool.hits");
  static const unsigned ResId = telemetry::gaugeId("pool.bytes_resident");
  static const unsigned HighId = telemetry::gaugeId("pool.high_water");
  Stats S = stats();
  telemetry::recordGauge(AcqId, Step, static_cast<double>(S.Acquisitions));
  telemetry::recordGauge(HitId, Step, static_cast<double>(S.Hits));
  telemetry::recordGauge(ResId, Step, static_cast<double>(S.BytesResident));
  telemetry::recordGauge(HighId, Step, static_cast<double>(S.HighWaterBytes));
}

} // namespace sacfd
