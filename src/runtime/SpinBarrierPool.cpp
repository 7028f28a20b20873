//===- runtime/SpinBarrierPool.cpp - Persistent spin-sync pool -----------===//

#include "runtime/SpinBarrierPool.h"

#include "runtime/ParallelRegion.h"
#include "runtime/Spin.h"
#include "support/Env.h"

#include <cassert>

using namespace sacfd;

SpinBarrierPool::SpinBarrierPool(unsigned Threads, unsigned SpinLimit)
    : Threads(Threads), SpinLimit(SpinLimit) {
  assert(Threads >= 1 && "pool needs at least the calling thread");
  // Oversubscription adaptation: spinning on a shared core starves the
  // thread being waited on.  Only applies to the default limit so tests
  // and ablations can still force pure-spin behavior explicitly.
  // defaultWorkerCount() clamps an unknown core count to 1, which makes
  // any multi-worker pool go cooperative there — the safe direction.
  if (SpinLimit == DefaultSpinLimit && Threads > defaultWorkerCount())
    this->SpinLimit = 0;
  if (Threads == 1)
    return;
  Done = std::make_unique<DoneFlag[]>(Threads - 1);
  Workers.reserve(Threads - 1);
  for (unsigned W = 1; W < Threads; ++W)
    Workers.emplace_back([this, W] { workerMain(W); });
}

SpinBarrierPool::~SpinBarrierPool() {
  if (Workers.empty())
    return;
  Stopping.store(true, std::memory_order_release);
  for (std::thread &T : Workers)
    T.join();
}

void SpinBarrierPool::runShare(unsigned WorkerIndex, size_t Begin, size_t End,
                               RangeBody Body) const {
  // Static block partition, identical to Schedule::StaticBlock: sizes
  // differ by at most one iteration, every worker computes its own share
  // without touching shared state.
  size_t N = End - Begin;
  size_t Base = N / Threads;
  size_t Extra = N % Threads;
  size_t MyBegin = Begin + WorkerIndex * Base +
                   (WorkerIndex < Extra ? WorkerIndex : Extra);
  size_t MyLen = Base + (WorkerIndex < Extra ? 1 : 0);
  if (MyLen == 0)
    return;
  Body(MyBegin, MyBegin + MyLen);
}

void SpinBarrierPool::workerMain(unsigned WorkerIndex) {
  uint64_t SeenSeq = 0;
  while (true) {
    spinThenYieldUntil(
        [this, SeenSeq] {
          return JobSeq.load(std::memory_order_acquire) != SeenSeq ||
                 Stopping.load(std::memory_order_acquire);
        },
        SpinLimit);
    uint64_t NewSeq = JobSeq.load(std::memory_order_acquire);
    if (NewSeq == SeenSeq) {
      assert(Stopping.load(std::memory_order_acquire) && "spurious wakeup");
      return;
    }
    SeenSeq = NewSeq;
    {
      ParallelRegionGuard Guard;
      runShare(WorkerIndex, JobBegin, JobEnd, Job);
    }
    Done[WorkerIndex - 1].Seq.store(SeenSeq, std::memory_order_release);
  }
}

void SpinBarrierPool::parallelFor(size_t Begin, size_t End, RangeBody Body) {
  if (Begin >= End)
    return;
  if (inParallelRegion()) {
    Body(Begin, End);
    return;
  }
  countRegion();
  // Covers broadcast, master share and the spin barrier — the persistent
  // pool's whole per-region cost.
  static const unsigned Region = telemetry::spanId("region.spin_pool");
  telemetry::ScopedSpan Span(Region);
  if (Threads == 1) {
    ParallelRegionGuard Guard;
    Body(Begin, End);
    return;
  }

  // Publish the job.  The previous dispatch fully completed before
  // parallelFor returned, so the slot is quiescent here.
  Job = Body;
  JobBegin = Begin;
  JobEnd = End;
  uint64_t Seq = JobSeq.load(std::memory_order_relaxed) + 1;
  JobSeq.store(Seq, std::memory_order_release);

  // The master is worker 0.
  {
    ParallelRegionGuard Guard;
    runShare(0, Begin, End, Body);
  }

  // Barrier: wait for every helper to check in for this sequence number.
  for (unsigned W = 1; W < Threads; ++W)
    spinThenYieldUntil(
        [this, W, Seq] {
          return Done[W - 1].Seq.load(std::memory_order_acquire) == Seq;
        },
        SpinLimit);
}

