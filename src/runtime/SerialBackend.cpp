//===- runtime/SerialBackend.cpp - Single-threaded reference -------------===//

#include "runtime/SerialBackend.h"

#include "runtime/ParallelRegion.h"

using namespace sacfd;

void SerialBackend::parallelFor(size_t Begin, size_t End, RangeBody Body) {
  if (Begin >= End)
    return;
  if (inParallelRegion()) {
    Body(Begin, End);
    return;
  }
  countRegion();
  static const unsigned Region = telemetry::spanId("region.serial");
  telemetry::ScopedSpan Span(Region);
  ParallelRegionGuard Guard;
  Body(Begin, End);
}
