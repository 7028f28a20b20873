//===- array/AllocCounter.h - NDArray allocation instrumentation *- C++ -*-===//
//
// Part of SacFD, a reproduction of "Numerical Simulations of Unsteady Shock
// Wave Interactions Using SaC and Fortran-90" (PaCT 2009).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Heap-allocation accounting for the array layer.
///
/// The paper charges much of SaC's single-core deficit to intermediate
/// whole-array temporaries; the FieldPool exists to delete exactly that
/// cost from our hot path.  This header makes the claim checkable: every
/// NDArray buffer allocation routes through CountingAllocator, which
/// bumps a process-wide counter.  The allocation-regression tests assert
/// that a steady-state solver step performs zero such allocations, and
/// perfbench reports allocs/step next to wall-clock.
///
/// The counter is a single relaxed atomic increment paid only when an
/// actual heap allocation happens — the event being eliminated — so it is
/// compiled in unconditionally (Debug builds are where the regression
/// tests assert on it; Release builds get real allocs/step numbers in the
/// bench artifact for free).
///
//===----------------------------------------------------------------------===//

#ifndef SACFD_ARRAY_ALLOCCOUNTER_H
#define SACFD_ARRAY_ALLOCCOUNTER_H

#include "array/Layout.h"

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <new>

namespace sacfd {
namespace alloctrack {

namespace detail {
inline std::atomic<uint64_t> AllocCount{0};
inline std::atomic<uint64_t> AllocBytes{0};
} // namespace detail

/// Number of NDArray buffer heap allocations since process start.
inline uint64_t allocationCount() {
  return detail::AllocCount.load(std::memory_order_relaxed);
}

/// Total bytes requested by those allocations.
inline uint64_t allocationBytes() {
  return detail::AllocBytes.load(std::memory_order_relaxed);
}

/// Counting allocator for NDArray's storage vector.  Stateless, so all
/// instances compare equal and container moves/swaps behave exactly as
/// with std::allocator.  Every allocation is kFieldAlign-aligned — the
/// SIMD kernels assume-align pooled buffers, and std::allocator would
/// only guarantee alignof(T), so alignment is owed here, on the one path
/// every NDArray (pooled or not) funnels through.
template <typename T> struct CountingAllocator {
  using value_type = T;

  static_assert(alignof(T) <= kFieldAlign,
                "CountingAllocator aligns to kFieldAlign");

  CountingAllocator() = default;
  template <typename U> CountingAllocator(const CountingAllocator<U> &) {}

  T *allocate(size_t N) {
    detail::AllocCount.fetch_add(1, std::memory_order_relaxed);
    detail::AllocBytes.fetch_add(N * sizeof(T), std::memory_order_relaxed);
    return static_cast<T *>(
        ::operator new(N * sizeof(T), std::align_val_t(kFieldAlign)));
  }
  void deallocate(T *P, size_t N) {
    ::operator delete(P, N * sizeof(T), std::align_val_t(kFieldAlign));
  }

  friend bool operator==(const CountingAllocator &, const CountingAllocator &) {
    return true;
  }
  friend bool operator!=(const CountingAllocator &, const CountingAllocator &) {
    return false;
  }
};

} // namespace alloctrack
} // namespace sacfd

#endif // SACFD_ARRAY_ALLOCCOUNTER_H
