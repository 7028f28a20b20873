//===- runtime/Backend.cpp - Parallel execution backend interface --------===//

#include "runtime/Backend.h"

#include "runtime/ParallelRegion.h"

using namespace sacfd;

// Out-of-line virtual method anchor.
Backend::~Backend() = default;

void Backend::parallelFor2D(size_t Rows, size_t Cols, RangeBody2D Body) {
  if (Rows == 0 || Cols == 0)
    return;
  if (!tile().Enabled || inParallelRegion()) {
    // Row flattening: the row range is the 1D iteration space and every
    // body invocation spans all columns.  A nested call runs inline.
    parallelFor(0, Rows, [&](size_t Begin, size_t End) {
      Body(Begin, End, 0, Cols);
    });
    return;
  }
  // One parallelFor over the tile range: one counted region covers the
  // whole 2D space, and whole tiles are dealt by the backend's own
  // partitioner and --schedule.
  TileGrid G(Rows, Cols, tile());
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
