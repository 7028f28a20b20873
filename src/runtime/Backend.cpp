//===- runtime/Backend.cpp - Parallel execution backend interface --------===//

#include "runtime/Backend.h"

#include "runtime/ParallelRegion.h"

using namespace sacfd;

// Out-of-line virtual method anchor.
Backend::~Backend() = default;

void Backend::parallelFor2D(size_t Rows, size_t Cols, RangeBody2D Body) {
  // Legacy row-flattening shim: the row range is the 1D iteration space
  // and every body invocation spans all columns.  Region accounting is
  // inherited from parallelFor, so exactly one region is counted.
  if (Rows == 0 || Cols == 0)
    return;
  parallelFor(0, Rows, [&](size_t Begin, size_t End) {
    Body(Begin, End, 0, Cols);
  });
}

void Backend::runTileGrid(const TileGrid &G, RangeBody2D Body) {
  // The tile range goes through the backend's native partitioner, so
  // fork-join and tasks deal tiles under their --schedule.
  parallelFor(0, G.count(), [&](size_t Begin, size_t End) {
    for (size_t T = Begin; T < End; ++T) {
      TileRect R = G.rect(T);
      Body(R.RowBegin, R.RowEnd, R.ColBegin, R.ColEnd);
    }
  });
}

namespace {
thread_local bool InParallelRegion = false;
} // namespace

bool sacfd::inParallelRegion() { return InParallelRegion; }

ParallelRegionGuard::ParallelRegionGuard() { InParallelRegion = true; }

ParallelRegionGuard::~ParallelRegionGuard() { InParallelRegion = false; }
