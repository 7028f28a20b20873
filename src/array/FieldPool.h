//===- array/FieldPool.h - Reusable field-buffer arena ---------*- C++ -*-===//
//
// Part of SacFD, a reproduction of "Numerical Simulations of Unsteady Shock
// Wave Interactions Using SaC and Fortran-90" (PaCT 2009).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A per-solver arena of reusable NDArray buffers.
///
/// The paper attributes SaC's single-core deficit to intermediate
/// whole-array temporaries; our with-loop engine used to pay malloc plus
/// value-initialization for every stage temporary of every Runge-Kutta
/// stage.  FieldPool removes that cost: buffers are keyed by (element
/// type, shape) and recycled through free lists, so after a warmup step
/// the solver's hot loop performs zero heap allocations (the
/// allocation-regression tests assert this through AllocCounter.h).
///
/// Acquisition modes:
///   acquire        value-initialized contents, exactly like constructing
///                  NDArray(Shape) — recycled buffers are re-zeroed.
///   acquireUninit  contents unspecified; for buffers every element of
///                  which is overwritten before being read (with-loop
///                  results, snapshots).  This is the no-memset fast path.
///
/// Leases are RAII: destroying (or move-assigning over) a Lease returns
/// the buffer to the pool's free list.  The pool must outlive its leases;
/// a solver owns its pool, and anything holding leases (the step guard's
/// rollback snapshot, engine scratch) must be destroyed before the
/// solver.  Determinism: pooling only changes where a buffer's storage
/// comes from, never the arithmetic or the traversal order, and the
/// value-init mode re-zeroes recycled buffers.  Pooling is always on;
/// the A6 ablation found one malloc per temporary never faster.  Stats
/// (acquisitions, hits, bytes resident, high-water mark) are exported
/// through the telemetry gauges by recordTelemetry(), which the solver
/// calls on its gauge cadence.
///
//===----------------------------------------------------------------------===//

#ifndef SACFD_ARRAY_FIELDPOOL_H
#define SACFD_ARRAY_FIELDPOOL_H

#include "array/NDArray.h"
#include "array/Shape.h"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

namespace sacfd {

namespace detail {
/// Process-wide registration of element types seen by any pool; gives
/// each T a small dense index into FieldPool's sub-pool table.
unsigned nextFieldPoolTypeId();
template <typename T> unsigned fieldPoolTypeId() {
  static const unsigned Id = nextFieldPoolTypeId();
  return Id;
}
} // namespace detail

/// Shape-keyed arena of reusable NDArray buffers with RAII leases.
class FieldPool {
public:
  /// Pool accounting; monotonic counters plus the current/peak residency.
  struct Stats {
    /// Total acquire/acquireUninit calls.
    uint64_t Acquisitions = 0;
    /// Acquisitions served from a free list (no heap allocation).
    uint64_t Hits = 0;
    /// Bytes of buffer storage currently owned by the pool or out on
    /// lease.
    uint64_t BytesResident = 0;
    /// Largest BytesResident ever observed.
    uint64_t HighWaterBytes = 0;
    /// Leases currently outstanding.
    uint64_t LiveLeases = 0;
  };

  /// RAII handle on a pooled buffer; returns it to the pool on
  /// destruction.  Movable, not copyable; a default-constructed Lease is
  /// empty (boolean false).
  template <typename T> class Lease {
  public:
    Lease() = default;
    Lease(Lease &&O) noexcept
        : Pool(O.Pool), Buf(std::move(O.Buf)) {
      O.Pool = nullptr;
    }
    Lease &operator=(Lease &&O) noexcept {
      if (this != &O) {
        reset();
        Pool = O.Pool;
        Buf = std::move(O.Buf);
        O.Pool = nullptr;
      }
      return *this;
    }
    Lease(const Lease &) = delete;
    Lease &operator=(const Lease &) = delete;
    ~Lease() { reset(); }

    /// Returns the buffer to the pool; the Lease becomes empty.
    void reset() {
      if (Buf)
        Pool->release<T>(std::move(Buf));
      Pool = nullptr;
    }

    explicit operator bool() const { return Buf != nullptr; }

    NDArray<T> &operator*() { return *Buf; }
    const NDArray<T> &operator*() const { return *Buf; }
    NDArray<T> *operator->() { return Buf.get(); }
    const NDArray<T> *operator->() const { return Buf.get(); }
    NDArray<T> &array() { return *Buf; }
    const NDArray<T> &array() const { return *Buf; }

  private:
    friend class FieldPool;
    Lease(FieldPool *Pool, std::unique_ptr<NDArray<T>> Buf)
        : Pool(Pool), Buf(std::move(Buf)) {}

    FieldPool *Pool = nullptr;
    std::unique_ptr<NDArray<T>> Buf;
  };

  FieldPool() = default;
  /// Outstanding leases hold a pointer back into the pool.
  FieldPool(const FieldPool &) = delete;
  FieldPool &operator=(const FieldPool &) = delete;

  /// Leases a value-initialized buffer of shape \p S (recycled buffers
  /// are re-zeroed, matching NDArray(Shape) semantics).
  template <typename T> Lease<T> acquire(const Shape &S) {
    return acquireImpl<T>(S, /*Recycled=*/nullptr);
  }

  /// Leases a buffer of shape \p S with unspecified contents.  Only for
  /// buffers that are fully overwritten before being read.
  template <typename T> Lease<T> acquireUninit(const Shape &S) {
    bool Recycled = false;
    return acquireImpl<T>(S, &Recycled);
  }

  Stats stats() const;

  /// Records the pool gauges ("pool.acquisitions", "pool.hits",
  /// "pool.bytes_resident", "pool.high_water") at \p Step.  Driving
  /// thread only, like all gauge recording; no-op while telemetry is
  /// disabled.  The stats are a pure function of the step structure, so
  /// the gauge series is bit-identical across backends and worker counts.
  void recordTelemetry(unsigned Step) const;

private:
  struct SubPoolBase {
    virtual ~SubPoolBase() = default;
  };

  template <typename T> struct SubPool final : SubPoolBase {
    struct Bucket {
      Shape Dims;
      std::vector<std::unique_ptr<NDArray<T>>> Free;
    };
    std::vector<Bucket> Buckets;

    Bucket &bucket(const Shape &S) {
      for (Bucket &B : Buckets)
        if (B.Dims == S)
          return B;
      Buckets.push_back(Bucket{S, {}});
      return Buckets.back();
    }
  };

  template <typename T> SubPool<T> &subPool() {
    unsigned Id = detail::fieldPoolTypeId<T>();
    if (Id >= Subs.size())
      Subs.resize(Id + 1);
    if (!Subs[Id])
      Subs[Id] = std::make_unique<SubPool<T>>();
    return static_cast<SubPool<T> &>(*Subs[Id]);
  }

  /// \p Recycled distinguishes the modes: null means value-init (re-zero
  /// a recycled buffer); non-null means uninit (leave contents) and
  /// receives whether the buffer came off a free list.
  template <typename T>
  Lease<T> acquireImpl(const Shape &S, bool *Recycled) {
    std::unique_ptr<NDArray<T>> Buf;
    {
      std::lock_guard<std::mutex> Lock(M);
      ++St.Acquisitions;
      typename SubPool<T>::Bucket &B = subPool<T>().bucket(S);
      if (!B.Free.empty()) {
        Buf = std::move(B.Free.back());
        B.Free.pop_back();
        ++St.Hits;
      } else {
        St.BytesResident += S.count() * sizeof(T);
        St.HighWaterBytes = std::max(St.HighWaterBytes, St.BytesResident);
      }
      ++St.LiveLeases;
    }
    if (Buf) {
      if (Recycled)
        *Recycled = true;
      else
        Buf->fill(T());
      return Lease<T>(this, std::move(Buf));
    }
    // Fresh NDArray(Shape) storage is value-initialized either way; the
    // uninit mode only skips the re-zeroing of recycled buffers.
    return Lease<T>(this, std::make_unique<NDArray<T>>(S));
  }

  template <typename T>
  void release(std::unique_ptr<NDArray<T>> Buf) {
    std::lock_guard<std::mutex> Lock(M);
    --St.LiveLeases;
    subPool<T>().bucket(Buf->shape()).Free.push_back(std::move(Buf));
  }

  mutable std::mutex M;
  std::vector<std::unique_ptr<SubPoolBase>> Subs;
  Stats St;
};

} // namespace sacfd

#endif // SACFD_ARRAY_FIELDPOOL_H
