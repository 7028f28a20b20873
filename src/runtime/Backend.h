//===- runtime/Backend.h - Parallel execution backend interface -*- C++ -*-===//
//
// Part of SacFD, a reproduction of "Numerical Simulations of Unsteady Shock
// Wave Interactions Using SaC and Fortran-90" (PaCT 2009).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The execution-model boundary the paper's comparison is about.
///
/// Every data-parallel operation in SacFD (with-loops, reductions, the
/// fused Fortran-style loop nests) funnels through Backend::parallelFor.
/// The two concrete models under study are:
///   - SpinBarrierPool: SaC's runtime — persistent workers, spin-lock
///     communication, near-zero dispatch cost per region;
///   - ForkJoinBackend: auto-parallelized Fortran — threads created and
///     joined for every parallel loop.
/// SerialBackend is the single-core reference both degenerate to.
///
//===----------------------------------------------------------------------===//

#ifndef SACFD_RUNTIME_BACKEND_H
#define SACFD_RUNTIME_BACKEND_H

#include "runtime/Schedule.h"
#include "support/FunctionRef.h"
#include "telemetry/Telemetry.h"

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace sacfd {

/// A range body: executes iterations [Begin, End) of a parallel loop.
using RangeBody = FunctionRef<void(size_t Begin, size_t End)>;

/// A 2D range body: executes the sub-rectangle rows [RowBegin, RowEnd) x
/// cols [ColBegin, ColEnd) of a rank-2 parallel loop.
using RangeBody2D = FunctionRef<void(size_t RowBegin, size_t RowEnd,
                                     size_t ColBegin, size_t ColEnd)>;

/// Abstract parallel-for execution engine.
///
/// parallelFor calls are blocking: all iterations have completed when the
/// call returns.  Bodies must be safe to run concurrently on disjoint
/// sub-ranges.  Nested parallelFor calls from inside a body are legal and
/// execute inline on the calling worker (no nested parallelism), matching
/// the paper's flat one-level parallelization.
///
/// parallelFor2D extends the boundary to rank-2 index spaces.  The same
/// contract holds (blocking, disjoint sub-rectangles, nested calls run
/// inline), and exactly one region is counted per non-empty call, so
/// region counts — and the "runtime.regions" telemetry counter — are
/// identical whether a loop runs tiled or flattened.  It is one
/// implementation for every backend, built on parallelFor: with tiling
/// off (or nested) the row range is flattened and every body invocation
/// spans all columns; with a Tile configured (see setTile) the
/// cache-sized tiles of a TileGrid are dealt as one 1D tile range.
class Backend {
public:
  virtual ~Backend();

  /// Executes Body over [Begin, End), partitioned across workers.
  virtual void parallelFor(size_t Begin, size_t End, RangeBody Body) = 0;

  /// Executes Body over the (Rows x Cols) rectangle, partitioned across
  /// workers: row-flattened, or tile by tile when a Tile is configured.
  void parallelFor2D(size_t Rows, size_t Cols, RangeBody2D Body);

  /// \returns the number of workers participating in parallelFor,
  /// including the calling thread.
  virtual unsigned workerCount() const = 0;

  /// \returns a stable human-readable backend name for reports.
  virtual const char *name() const = 0;

  /// Sets the rank-2 tiling policy used by parallelFor2D.  Disabled by
  /// default (row-flattened legacy behavior).
  void setTile(const Tile &T) { TileCfg = T; }
  const Tile &tile() const { return TileCfg; }

  /// Number of top-level non-empty parallel regions dispatched so far.
  ///
  /// Each counted region is one team fork-join (ForkJoinBackend), one
  /// pool broadcast+barrier (SpinBarrierPool), or one `omp parallel`.
  /// Nested (inlined) calls and empty ranges are not counted.  The FIG4
  /// harness divides this by the step count to report the
  /// regions-per-time-step that drive the overhead comparison.
  uint64_t regionsDispatched() const {
    return RegionCount.load(std::memory_order_relaxed);
  }

protected:
  /// Implementations call this once per counted region.  Also feeds the
  /// "runtime.regions" telemetry counter, whose total is deterministic
  /// for a fixed workload on every backend and worker count.
  void countRegion() {
    RegionCount.fetch_add(1, std::memory_order_relaxed);
    if (telemetry::enabled()) {
      static const unsigned Regions = telemetry::counterId("runtime.regions");
      telemetry::addCounter(Regions);
    }
  }

private:
  std::atomic<uint64_t> RegionCount{0};
  Tile TileCfg = Tile::off();
};

} // namespace sacfd

#endif // SACFD_RUNTIME_BACKEND_H
