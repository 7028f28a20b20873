//===- runtime/ForkJoinBackend.cpp - Per-loop thread teams ---------------===//

#include "runtime/ForkJoinBackend.h"

#include "runtime/ParallelRegion.h"

#include <atomic>
#include <cassert>
#include <thread>
#include <vector>

using namespace sacfd;

ForkJoinBackend::ForkJoinBackend(unsigned Threads, Schedule Sched)
    : Threads(Threads), Sched(Sched) {
  assert(Threads >= 1 && "team needs at least the calling thread");
}

void ForkJoinBackend::parallelFor(size_t Begin, size_t End, RangeBody Body) {
  if (Begin >= End)
    return;
  // Nested regions run inline: OpenMP's behavior when nesting is
  // disabled.
  if (inParallelRegion()) {
    Body(Begin, End);
    return;
  }
  countRegion();
  // The span covers the whole dispatch — fork, body, join — which is the
  // per-region cost model this backend exists to measure.
  static const unsigned Region = telemetry::spanId("region.fork_join");
  telemetry::ScopedSpan Span(Region);

  // 1-thread teams run inline (a trivial team forks nothing).
  if (Threads == 1) {
    ParallelRegionGuard Guard;
    Body(Begin, End);
    return;
  }

  if (Sched.K == Schedule::Kind::Dynamic)
    runDynamic(Begin, End, Body);
  else
    runStatic(Begin, End, Body);
}

void ForkJoinBackend::runStatic(size_t Begin, size_t End, RangeBody Body) {
  size_t N = End - Begin;
  std::vector<std::vector<IterationChunk>> Plan =
      staticPartition(N, Threads, Sched);

  // Fork: one fresh thread per non-master team member, every region.  This
  // is the deliberate cost model; do not hoist into a pool.
  std::vector<std::thread> Team;
  Team.reserve(Threads - 1);
  for (unsigned W = 1; W < Threads; ++W)
    Team.emplace_back([&Plan, W, Begin, Body] {
      ParallelRegionGuard Guard;
      for (const IterationChunk &Chunk : Plan[W])
        Body(Begin + Chunk.Begin, Begin + Chunk.End);
    });

  {
    ParallelRegionGuard Guard;
    for (const IterationChunk &Chunk : Plan[0])
      Body(Begin + Chunk.Begin, Begin + Chunk.End);
  }

  // Join: disband the team.
  for (std::thread &T : Team)
    T.join();
}

void ForkJoinBackend::runDynamic(size_t Begin, size_t End, RangeBody Body) {
  size_t N = End - Begin;
  size_t Chunk = Sched.resolvedChunk(N, Threads);
  std::atomic<size_t> Next(0);

  auto Work = [&Next, N, Chunk, Begin, Body] {
    ParallelRegionGuard Guard;
    while (true) {
      size_t ChunkBegin = Next.fetch_add(Chunk, std::memory_order_relaxed);
      if (ChunkBegin >= N)
        return;
      size_t ChunkEnd = ChunkBegin + Chunk < N ? ChunkBegin + Chunk : N;
      Body(Begin + ChunkBegin, Begin + ChunkEnd);
    }
  };

  std::vector<std::thread> Team;
  Team.reserve(Threads - 1);
  for (unsigned W = 1; W < Threads; ++W)
    Team.emplace_back(Work);
  Work();
  for (std::thread &T : Team)
    T.join();
}
