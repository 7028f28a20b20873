//===- runtime/OmpBackend.cpp - Real OpenMP execution ---------------------===//

#include "runtime/OmpBackend.h"

#include "runtime/ParallelRegion.h"

#include <cassert>

#ifdef SACFD_HAVE_OPENMP
#include <omp.h>
#endif

using namespace sacfd;

#ifdef SACFD_HAVE_OPENMP

namespace {

/// Backend running each region as one `omp parallel` with a static block
/// partition (matching the other backends' default chunking, so results
/// stay bit-identical).
class OmpBackend final : public Backend {
public:
  explicit OmpBackend(unsigned Threads) : Threads(Threads) {
    assert(Threads >= 1 && "team needs at least one thread");
  }

  void parallelFor(size_t Begin, size_t End, RangeBody Body) override {
    if (Begin >= End)
      return;
    if (inParallelRegion()) {
      Body(Begin, End);
      return;
    }
    countRegion();
    static const unsigned Region = telemetry::spanId("region.openmp");
    telemetry::ScopedSpan Span(Region);
    if (Threads == 1) {
      ParallelRegionGuard Guard;
      Body(Begin, End);
      return;
    }

    size_t N = End - Begin;
    unsigned Team = Threads;
#pragma omp parallel num_threads(Team)
    {
      ParallelRegionGuard Guard;
      unsigned W = static_cast<unsigned>(omp_get_thread_num());
      unsigned Actual = static_cast<unsigned>(omp_get_num_threads());
      // Static block partition identical to SpinBarrierPool::runShare.
      size_t Base = N / Actual;
      size_t Extra = N % Actual;
      size_t MyBegin = Begin + W * Base + (W < Extra ? W : Extra);
      size_t MyLen = Base + (W < Extra ? 1 : 0);
      if (MyLen > 0)
        Body(MyBegin, MyBegin + MyLen);
    }
  }

  unsigned workerCount() const override { return Threads; }
  const char *name() const override { return "openmp"; }

private:
  unsigned Threads;
};

} // namespace

bool sacfd::openMpAvailable() { return true; }

std::unique_ptr<Backend> sacfd::createOmpBackend(unsigned Threads) {
  return std::make_unique<OmpBackend>(Threads);
}

#else

bool sacfd::openMpAvailable() { return false; }

std::unique_ptr<Backend> sacfd::createOmpBackend(unsigned) {
  return nullptr;
}

#endif // SACFD_HAVE_OPENMP
