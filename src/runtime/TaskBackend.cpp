//===- runtime/TaskBackend.cpp - Work-stealing task scheduler ------------===//

#include "runtime/TaskBackend.h"

#include "runtime/ParallelRegion.h"
#include "runtime/Spin.h"
#include "support/Env.h"

#include <algorithm>
#include <cassert>

using namespace sacfd;

TaskBackend::TaskBackend(unsigned Threads, Schedule Sched, unsigned SpinLimit)
    : Threads(Threads), Sched(Sched), SpinLimit(SpinLimit) {
  assert(Threads >= 1 && "pool needs at least the calling thread");
  // Same oversubscription adaptation as the spin pool: spinning on a
  // shared core starves the worker being waited on.
  if (SpinLimit == DefaultSpinLimit && Threads > defaultWorkerCount())
    this->SpinLimit = 0;
  Deques = std::make_unique<WorkerDeque[]>(Threads);
  if (Threads == 1)
    return;
  Done = std::make_unique<DoneFlag[]>(Threads - 1);
  Workers.reserve(Threads - 1);
  for (unsigned W = 1; W < Threads; ++W)
    Workers.emplace_back([this, W] { workerMain(W); });
}

TaskBackend::~TaskBackend() {
  if (Workers.empty())
    return;
  Stopping.store(true, std::memory_order_release);
  for (std::thread &T : Workers)
    T.join();
}

size_t TaskBackend::taskChunk(size_t N) const {
  if (Sched.ChunkSize != 0)
    return Sched.ChunkSize;
  // Default granularity: ~8 tasks per worker.  Coarser than this and
  // stealing has nothing to balance; finer and deque traffic starts to
  // show up against the body cost.
  return std::max<size_t>(1, N / (8 * static_cast<size_t>(Threads)));
}

bool TaskBackend::popOwn(unsigned W, size_t &Item) {
  WorkerDeque &D = Deques[W];
  std::lock_guard<std::mutex> Lock(D.M);
  if (D.Items.empty())
    return false;
  Item = D.Items.back();
  D.Items.pop_back();
  return true;
}

bool TaskBackend::stealInto(unsigned W, size_t &Item) {
  // Steal-half from the front of a victim's deque: the owner works the
  // back (LIFO, cache-warm), thieves take the oldest half in one lock
  // acquisition so a load imbalance is halved per steal, not nibbled.
  std::vector<size_t> &Scratch = Deques[W].Scratch;
  for (unsigned Hop = 1; Hop < Threads; ++Hop) {
    unsigned V = (W + Hop) % Threads;
    WorkerDeque &D = Deques[V];
    {
      std::lock_guard<std::mutex> Lock(D.M);
      size_t N = D.Items.size();
      if (N == 0)
        continue;
      size_t K = (N + 1) / 2;
      Scratch.assign(D.Items.begin(),
                     D.Items.begin() + static_cast<std::ptrdiff_t>(K));
      D.Items.erase(D.Items.begin(),
                    D.Items.begin() + static_cast<std::ptrdiff_t>(K));
    }
    // Run the first stolen item directly; bank the rest in our own deque.
    // Staging through Scratch keeps the two deque locks from ever being
    // held together (two thieves stealing from each other would deadlock
    // otherwise).
    Item = Scratch.front();
    if (Scratch.size() > 1) {
      WorkerDeque &Own = Deques[W];
      std::lock_guard<std::mutex> Lock(Own.M);
      Own.Items.insert(Own.Items.end(), Scratch.begin() + 1, Scratch.end());
    }
    return true;
  }
  return false;
}

void TaskBackend::runChunk(size_t Item) {
  size_t B = JobBegin + Item * Chunk;
  size_t E = std::min(B + Chunk, JobEnd);
  ParallelRegionGuard Guard;
  Body(B, E);
}

void TaskBackend::participate(unsigned W) {
  unsigned Idle = 0;
  while (Pending.load(std::memory_order_acquire) != 0) {
    size_t Item;
    if (popOwn(W, Item) || stealInto(W, Item)) {
      Idle = 0;
      runChunk(Item);
      // acq_rel: publishes the item's side effects to whoever observes
      // Pending reach 0 (the master's return is the completion barrier).
      Pending.fetch_sub(1, std::memory_order_acq_rel);
    } else if (Idle < SpinLimit) {
      ++Idle;
      cpuRelax();
    } else {
      std::this_thread::yield();
    }
  }
}

void TaskBackend::workerMain(unsigned W) {
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
    participate(W);
    Done[W - 1].Seq.store(SeenSeq, std::memory_order_release);
  }
}

void TaskBackend::dispatch() {
  uint64_t Seq = JobSeq.load(std::memory_order_relaxed) + 1;
  JobSeq.store(Seq, std::memory_order_release);
  participate(0);
  // Wait for every helper to check in: they may still be mid-item after
  // the master saw Pending reach 0 is impossible (Pending is decremented
  // after the item body), but they can still be scanning for work, and
  // the next dispatch must not reseed the deques under them.
  for (unsigned W = 1; W < Threads; ++W)
    spinThenYieldUntil(
        [this, W, Seq] {
          return Done[W - 1].Seq.load(std::memory_order_acquire) == Seq;
        },
        SpinLimit);
}

void TaskBackend::parallelFor(size_t Begin, size_t End, RangeBody Body) {
  if (Begin >= End)
    return;
  if (inParallelRegion()) {
    Body(Begin, End);
    return;
  }
  countRegion();
  static const unsigned Region = telemetry::spanId("region.tasks");
  telemetry::ScopedSpan Span(Region);
  if (Threads == 1) {
    ParallelRegionGuard Guard;
    Body(Begin, End);
    return;
  }

  size_t N = End - Begin;
  size_t C = taskChunk(N);
  size_t NumChunks = (N + C - 1) / C;
  this->Body = Body;
  JobBegin = Begin;
  JobEnd = End;
  Chunk = C;
  Pending.store(NumChunks, std::memory_order_relaxed);
  // Seed contiguous chunk runs per worker (static-block locality); the
  // helpers are quiescent here (dispatch() waited for their Done flags),
  // so the deques are safe to fill.
  size_t Base = NumChunks / Threads;
  size_t Extra = NumChunks % Threads;
  size_t Next = 0;
  for (unsigned W = 0; W < Threads; ++W) {
    size_t Take = Base + (W < Extra ? 1 : 0);
    WorkerDeque &D = Deques[W];
    std::lock_guard<std::mutex> Lock(D.M);
    for (size_t I = 0; I < Take; ++I)
      D.Items.push_back(Next++);
  }
  dispatch();
}

