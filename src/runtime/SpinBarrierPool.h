//===- runtime/SpinBarrierPool.h - Persistent spin-sync pool ---*- C++ -*-===//
//
// Part of SacFD, a reproduction of "Numerical Simulations of Unsteady Shock
// Wave Interactions Using SaC and Fortran-90" (PaCT 2009).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The SaC-style execution model.
///
/// Quoting the paper: "SaC does not use system calls for its inter thread
/// communication but rather uses the programs shared memory and spin locks
/// to allow inter thread communication with very little overhead."
///
/// SpinBarrierPool reproduces that model: worker threads are created once
/// and live for the lifetime of the pool.  Work is broadcast through a
/// shared job slot guarded by a monotonically increasing sequence number;
/// workers spin (bounded, then yield) on the sequence, execute their static
/// share of the iteration space, and publish completion through per-worker
/// cache-line-padded flags the master spins on.  A full dispatch is two
/// shared-memory round trips — no mutexes, no condition variables, no
/// system calls on the fast path.
///
/// The bounded spin-then-yield is a deliberate deviation from pure
/// spinning: on an oversubscribed host (more workers than cores) pure spin
/// barriers livelock-degrade, and the reference host for this reproduction
/// has a single core.  The spin limit is configurable so the pure-spin
/// behavior can still be measured.
///
//===----------------------------------------------------------------------===//

#ifndef SACFD_RUNTIME_SPINBARRIERPOOL_H
#define SACFD_RUNTIME_SPINBARRIERPOOL_H

#include "runtime/Backend.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

namespace sacfd {

/// Persistent worker pool with spin-barrier dispatch (SaC runtime model).
class SpinBarrierPool final : public Backend {
public:
  /// Default busy-wait iterations before yielding.
  static constexpr unsigned DefaultSpinLimit = 1 << 14;

  /// \param Threads pool size including the calling thread (>= 1).
  /// \param SpinLimit busy-wait iterations before falling back to yield();
  ///        0 yields immediately (fully cooperative).  The default spins
  ///        only when every worker can own a hardware thread — on an
  ///        oversubscribed host spinning steals the core from the very
  ///        thread being waited on, so the pool goes fully cooperative
  ///        (production runtimes make the same adaptation).
  explicit SpinBarrierPool(unsigned Threads,
                           unsigned SpinLimit = DefaultSpinLimit);
  ~SpinBarrierPool() override;

  SpinBarrierPool(const SpinBarrierPool &) = delete;
  SpinBarrierPool &operator=(const SpinBarrierPool &) = delete;

  void parallelFor(size_t Begin, size_t End, RangeBody Body) override;
  unsigned workerCount() const override { return Threads; }
  const char *name() const override { return "spin-pool"; }

  unsigned spinLimit() const { return SpinLimit; }

private:
  /// Per-worker completion flag, padded to avoid false sharing between
  /// workers hammering their own line while the master polls.
  struct alignas(64) DoneFlag {
    std::atomic<uint64_t> Seq{0};
  };

  void workerMain(unsigned WorkerIndex);
  void runShare(unsigned WorkerIndex, size_t Begin, size_t End,
                RangeBody Body) const;

  unsigned Threads;
  unsigned SpinLimit;

  // Broadcast slot: the master writes Job/JobBegin/JobEnd, then publishes
  // by bumping JobSeq (release).  Workers acquire JobSeq and read the slot.
  RangeBody Job;
  size_t JobBegin = 0;
  size_t JobEnd = 0;
  std::atomic<uint64_t> JobSeq{0};
  std::atomic<bool> Stopping{false};

  std::unique_ptr<DoneFlag[]> Done; // one per helper worker (Threads - 1)
  std::vector<std::thread> Workers;
};

} // namespace sacfd

#endif // SACFD_RUNTIME_SPINBARRIERPOOL_H
