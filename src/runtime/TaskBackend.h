//===- runtime/TaskBackend.h - Work-stealing task scheduler ----*- C++ -*-===//
//
// Part of SacFD, a reproduction of "Numerical Simulations of Unsteady Shock
// Wave Interactions Using SaC and Fortran-90" (PaCT 2009).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fourth execution model: a work-stealing task scheduler.
///
/// "Introducing OpenMP Tasks into the HYDRO Benchmark" runs exactly this
/// class of Godunov-type hydro kernels on a task runtime.  TaskBackend is
/// that runtime's loop dispatch: a persistent worker pool (created once,
/// woken through the same epoch-sequence broadcast as SpinBarrierPool)
/// where work is a bag of chunk-sized tasks in per-worker deques.  Owners
/// pop their own deque LIFO; an idle worker locks a victim's deque and
/// steals half of it FIFO, so load imbalance drains without a central
/// queue.
///
/// The iteration range is pre-chunked, chunks are dealt to the deques,
/// and stealing replaces static partitioning.  Because every chunk
/// executes exactly once on some worker — and all SacFD parallel bodies
/// are legal on any disjoint partition, with reduction partials keyed by
/// block or tile index and merged in index order — steal order cannot
/// change a single bit of the results.
///
//===----------------------------------------------------------------------===//

#ifndef SACFD_RUNTIME_TASKBACKEND_H
#define SACFD_RUNTIME_TASKBACKEND_H

#include "runtime/Backend.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace sacfd {

/// Persistent work-stealing pool (the task execution model).
class TaskBackend final : public Backend {
public:
  /// Default busy-wait iterations before yielding (matches the spin
  /// pool; adapted to 0 on oversubscribed hosts).
  static constexpr unsigned DefaultSpinLimit = 1 << 14;

  /// \param Threads pool size including the calling thread (>= 1).
  /// \param Sched an explicit chunk size (static,N / dynamic,N) sets the
  ///        task granularity of parallelFor; the default carves ~8 tasks
  ///        per worker so stealing has something to balance.
  explicit TaskBackend(unsigned Threads,
                       Schedule Sched = Schedule::staticBlock(),
                       unsigned SpinLimit = DefaultSpinLimit);
  ~TaskBackend() override;

  TaskBackend(const TaskBackend &) = delete;
  TaskBackend &operator=(const TaskBackend &) = delete;

  void parallelFor(size_t Begin, size_t End, RangeBody Body) override;
  unsigned workerCount() const override { return Threads; }
  const char *name() const override { return "tasks"; }

  unsigned spinLimit() const { return SpinLimit; }

private:
  /// One worker's deque plus its private steal scratch, padded so the
  /// owner's pushes and a thief's lock traffic stay off other lines.
  struct alignas(64) WorkerDeque {
    std::mutex M;
    std::vector<size_t> Items;
    /// Thief-side staging buffer; touched only by this worker when it
    /// steals (never under another worker's lock scope mismatch).
    std::vector<size_t> Scratch;
  };

  struct alignas(64) DoneFlag {
    std::atomic<uint64_t> Seq{0};
  };

  void workerMain(unsigned W);
  void participate(unsigned W);
  void runChunk(size_t Item);
  bool popOwn(unsigned W, size_t &Item);
  bool stealInto(unsigned W, size_t &Item);
  void dispatch();
  size_t taskChunk(size_t N) const;

  unsigned Threads;
  Schedule Sched;
  unsigned SpinLimit;

  // Broadcast job slot: the master writes the fields below, then
  // publishes by bumping JobSeq (release).  Helpers are quiescent between
  // dispatches (the master waits for every Done flag before returning),
  // so the slot is never written concurrently.
  RangeBody Body;
  size_t JobBegin = 0;
  size_t JobEnd = 0;
  size_t Chunk = 1;

  /// Items not yet completed in the current dispatch; workers leave the
  /// work loop when it reaches 0.
  std::atomic<size_t> Pending{0};

  std::atomic<uint64_t> JobSeq{0};
  std::atomic<bool> Stopping{false};

  std::unique_ptr<WorkerDeque[]> Deques;
  std::unique_ptr<DoneFlag[]> Done; // one per helper (Threads - 1)
  std::vector<std::thread> Workers;
};

} // namespace sacfd

#endif // SACFD_RUNTIME_TASKBACKEND_H
