//===- tests/BackendTest.cpp - Parallel backend conformance tests ---------===//
//
// Every Backend implementation must satisfy the same contract; this suite
// is parameterized over (kind, thread count, schedule) and checks the
// contract properties: exact coverage, blocking completion, nested-region
// serialization, and worker accounting.
//
//===----------------------------------------------------------------------===//

#include "runtime/BlockReduce.h"
#include "runtime/ForkJoinBackend.h"
#include "runtime/OmpBackend.h"
#include "runtime/ParallelRegion.h"
#include "runtime/Runtime.h"
#include "runtime/SerialBackend.h"
#include "runtime/SpinBarrierPool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <tuple>
#include <vector>

using namespace sacfd;

namespace {

struct BackendCase {
  BackendKind Kind;
  unsigned Threads;
  Schedule Sched;

  std::string label() const {
    std::string S = backendKindName(Kind);
    S += "_t" + std::to_string(Threads) + "_" + Sched.str();
    for (char &C : S)
      if (C == '-' || C == ',')
        C = '_';
    return S;
  }
};

/// The contract matrix.  gtest lists a parameter without a PrintTo as
/// its raw bytes (the "# GetParam()" dump), so each case is zeroed,
/// padding inside Schedule included, and its members are set in place:
/// otherwise the listing differs from run to run.
std::vector<BackendCase> contractCases() {
  const std::tuple<BackendKind, unsigned, Schedule> Specs[] = {
      {BackendKind::Serial, 1, Schedule::staticBlock()},
      {BackendKind::SpinPool, 1, Schedule::staticBlock()},
      {BackendKind::SpinPool, 2, Schedule::staticBlock()},
      {BackendKind::SpinPool, 4, Schedule::staticBlock()},
      {BackendKind::SpinPool, 8, Schedule::staticBlock()},
      {BackendKind::ForkJoin, 1, Schedule::staticBlock()},
      {BackendKind::ForkJoin, 2, Schedule::staticBlock()},
      {BackendKind::ForkJoin, 4, Schedule::staticBlock()},
      {BackendKind::ForkJoin, 4, Schedule::staticChunk(5)},
      {BackendKind::ForkJoin, 4, Schedule::dynamic()},
      {BackendKind::ForkJoin, 4, Schedule::dynamic(3)},
      {BackendKind::ForkJoin, 8, Schedule::dynamic()},
  };
  std::vector<BackendCase> Cases(std::size(Specs));
  std::memset(static_cast<void *>(Cases.data()), 0,
              Cases.size() * sizeof(BackendCase));
  for (size_t I = 0; I < Cases.size(); ++I) {
    const auto &[Kind, Threads, Sched] = Specs[I];
    Cases[I].Kind = Kind;
    Cases[I].Threads = Threads;
    Cases[I].Sched.K = Sched.K;
    Cases[I].Sched.ChunkSize = Sched.ChunkSize;
  }
  return Cases;
}

class BackendContractTest : public ::testing::TestWithParam<BackendCase> {
protected:
  std::unique_ptr<Backend> makeBackend() const {
    const BackendCase &C = GetParam();
    return createBackend(C.Kind, C.Threads, C.Sched);
  }
};

} // namespace

TEST_P(BackendContractTest, ReportsRequestedWorkerCount) {
  auto B = makeBackend();
  if (GetParam().Kind == BackendKind::Serial)
    EXPECT_EQ(B->workerCount(), 1u);
  else
    EXPECT_EQ(B->workerCount(), GetParam().Threads);
}

TEST_P(BackendContractTest, EachIterationRunsExactlyOnce) {
  auto B = makeBackend();
  constexpr size_t N = 10007; // prime: exercises uneven partitions
  std::vector<std::atomic<int>> Hits(N);
  for (auto &H : Hits)
    H.store(0);

  B->parallelFor(0, N, [&Hits](size_t Begin, size_t End) {
    for (size_t I = Begin; I < End; ++I)
      Hits[I].fetch_add(1, std::memory_order_relaxed);
  });

  for (size_t I = 0; I < N; ++I)
    ASSERT_EQ(Hits[I].load(), 1) << "iteration " << I;
}

TEST_P(BackendContractTest, HonorsNonZeroRangeBase) {
  auto B = makeBackend();
  constexpr size_t Lo = 100, Hi = 357;
  std::vector<std::atomic<int>> Hits(Hi);
  for (auto &H : Hits)
    H.store(0);

  B->parallelFor(Lo, Hi, [&Hits](size_t Begin, size_t End) {
    for (size_t I = Begin; I < End; ++I)
      Hits[I].fetch_add(1, std::memory_order_relaxed);
  });

  for (size_t I = 0; I < Hi; ++I)
    ASSERT_EQ(Hits[I].load(), I >= Lo ? 1 : 0) << "iteration " << I;
}

TEST_P(BackendContractTest, EmptyRangeIsANoOp) {
  auto B = makeBackend();
  bool Ran = false;
  B->parallelFor(5, 5, [&Ran](size_t, size_t) { Ran = true; });
  B->parallelFor(7, 3, [&Ran](size_t, size_t) { Ran = true; });
  EXPECT_FALSE(Ran);
}

TEST_P(BackendContractTest, CallIsBlockingAndResultsVisible) {
  auto B = makeBackend();
  constexpr size_t N = 4096;
  std::vector<double> Out(N, 0.0);
  B->parallelFor(0, N, [&Out](size_t Begin, size_t End) {
    for (size_t I = Begin; I < End; ++I)
      Out[I] = static_cast<double>(I) * 2.0;
  });
  // No synchronization here on purpose: parallelFor must have established
  // the happens-before edge itself.
  for (size_t I = 0; I < N; ++I)
    ASSERT_EQ(Out[I], static_cast<double>(I) * 2.0);
}

TEST_P(BackendContractTest, NestedCallsRunInlineWithoutDeadlock) {
  auto B = makeBackend();
  constexpr size_t N = 64;
  std::vector<std::atomic<int>> Inner(N);
  for (auto &H : Inner)
    H.store(0);

  B->parallelFor(0, 8, [&](size_t Begin, size_t End) {
    for (size_t I = Begin; I < End; ++I) {
      EXPECT_TRUE(inParallelRegion());
      // A nested region must execute inline on this worker.
      B->parallelFor(I * 8, (I + 1) * 8, [&Inner](size_t B2, size_t E2) {
        for (size_t J = B2; J < E2; ++J)
          Inner[J].fetch_add(1, std::memory_order_relaxed);
      });
    }
  });

  for (size_t I = 0; I < N; ++I)
    ASSERT_EQ(Inner[I].load(), 1) << "iteration " << I;
}

TEST_P(BackendContractTest, ManyBackToBackDispatches) {
  // The Euler time step issues dozens of regions back to back; stress the
  // dispatch/barrier path with many small regions and verify a running
  // checksum that would detect lost or duplicated work.
  auto B = makeBackend();
  constexpr size_t Rounds = 300;
  constexpr size_t N = 97;
  std::vector<long> Data(N, 0);
  for (size_t R = 0; R < Rounds; ++R)
    B->parallelFor(0, N, [&Data](size_t Begin, size_t End) {
      for (size_t I = Begin; I < End; ++I)
        Data[I] += static_cast<long>(I) + 1;
    });
  for (size_t I = 0; I < N; ++I)
    ASSERT_EQ(Data[I], static_cast<long>(Rounds) * (static_cast<long>(I) + 1));
}

TEST_P(BackendContractTest, CountsTopLevelRegionsOnly) {
  auto B = makeBackend();
  EXPECT_EQ(B->regionsDispatched(), 0u);
  B->parallelFor(0, 10, [](size_t, size_t) {});
  B->parallelFor(0, 10, [](size_t, size_t) {});
  B->parallelFor(3, 3, [](size_t, size_t) {}); // empty: not a region
  EXPECT_EQ(B->regionsDispatched(), 2u);

  // Nested calls run inline and are not counted.
  B->parallelFor(0, 4, [&B](size_t Begin, size_t End) {
    for (size_t I = Begin; I < End; ++I)
      B->parallelFor(0, 2, [](size_t, size_t) {});
  });
  EXPECT_EQ(B->regionsDispatched(), 3u);
}

TEST_P(BackendContractTest, SingleIterationRange) {
  auto B = makeBackend();
  int Count = 0;
  B->parallelFor(41, 42, [&Count](size_t Begin, size_t End) {
    EXPECT_EQ(Begin, 41u);
    EXPECT_EQ(End, 42u);
    ++Count;
  });
  EXPECT_EQ(Count, 1);
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, BackendContractTest, ::testing::ValuesIn(contractCases()),
    [](const ::testing::TestParamInfo<BackendCase> &Info) {
      return Info.param.label();
    });

//===----------------------------------------------------------------------===//
// blockReduce: deterministic block reduction on top of parallelFor
//===----------------------------------------------------------------------===//

TEST_P(BackendContractTest, BlockReduceSumsExactly) {
  auto B = makeBackend();
  constexpr size_t N = 10007;
  long Sum = blockReduce(
      N, *B, 0L,
      [](size_t Lo, size_t Hi) {
        long S = 0;
        for (size_t I = Lo; I < Hi; ++I)
          S += static_cast<long>(I);
        return S;
      },
      [](long A, long Bv) { return A + Bv; });
  EXPECT_EQ(Sum, static_cast<long>(N) * (static_cast<long>(N) - 1) / 2);
}

TEST_P(BackendContractTest, BlockReduceEmptyRangeReturnsIdentity) {
  auto B = makeBackend();
  int R = blockReduce(
      0, *B, 42, [](size_t, size_t) { return 0; },
      [](int, int) { return 0; });
  EXPECT_EQ(R, 42);
}

TEST_P(BackendContractTest, BlockReduceMergesInBlockOrder) {
  // A non-commutative merge (string concatenation of block sub-ranges)
  // exposes the merge order: it must be ascending block order, identical
  // across repeated runs — the determinism the guard's floor pass relies
  // on.
  auto B = makeBackend();
  auto Run = [&B]() {
    return blockReduce(
        100, *B, std::string(),
        [](size_t Lo, size_t Hi) {
          return "[" + std::to_string(Lo) + "," + std::to_string(Hi) + ")";
        },
        [](std::string A, std::string Bv) { return A + Bv; });
  };
  std::string First = Run();
  EXPECT_EQ(First.find("[0,"), 0u) << "block 0 must come first: " << First;
  for (int I = 0; I < 5; ++I)
    EXPECT_EQ(Run(), First);
}

TEST_P(BackendContractTest, BlockReduceFewerItemsThanWorkers) {
  auto B = makeBackend();
  long Sum = blockReduce(
      3, *B, 0L,
      [](size_t Lo, size_t Hi) {
        long S = 0;
        for (size_t I = Lo; I < Hi; ++I)
          S += static_cast<long>(I) + 1;
        return S;
      },
      [](long A, long Bv) { return A + Bv; });
  EXPECT_EQ(Sum, 6L);
}

//===----------------------------------------------------------------------===//
// Backend-specific behavior
//===----------------------------------------------------------------------===//

TEST(SpinBarrierPool, ReusesWorkersAcrossDispatches) {
  SpinBarrierPool Pool(4);
  std::set<std::thread::id> Round1, Round2;
  std::mutex M;
  auto Collect = [&M](std::set<std::thread::id> &Set) {
    return [&Set, &M](size_t, size_t) {
      std::lock_guard<std::mutex> Lock(M);
      Set.insert(std::this_thread::get_id());
    };
  };
  // One iteration per worker so every worker participates.
  Pool.parallelFor(0, 4, Collect(Round1));
  Pool.parallelFor(0, 4, Collect(Round2));
  EXPECT_EQ(Round1, Round2) << "persistent pool must reuse its threads";
  EXPECT_EQ(Round1.size(), 4u);
}

TEST(SpinBarrierPool, AdaptsSpinLimitToOversubscription) {
  unsigned Hw = std::thread::hardware_concurrency();
  if (Hw == 0)
    GTEST_SKIP() << "hardware concurrency unknown";
  // A pool larger than the hardware thread count must fall back to the
  // cooperative (yield-immediately) mode under the default limit.
  SpinBarrierPool Oversubscribed(Hw + 2);
  EXPECT_EQ(Oversubscribed.spinLimit(), 0u);
  // An explicit limit is always honored.
  SpinBarrierPool Forced(Hw + 2, 128);
  EXPECT_EQ(Forced.spinLimit(), 128u);
}

TEST(SpinBarrierPool, ZeroSpinLimitStillCompletes) {
  // Fully cooperative mode (yield immediately) must stay correct.
  SpinBarrierPool Pool(4, /*SpinLimit=*/0);
  std::atomic<long> Sum(0);
  Pool.parallelFor(0, 1000, [&Sum](size_t Begin, size_t End) {
    long Local = 0;
    for (size_t I = Begin; I < End; ++I)
      Local += static_cast<long>(I);
    Sum.fetch_add(Local);
  });
  EXPECT_EQ(Sum.load(), 999L * 1000L / 2L);
}

TEST(ForkJoinBackend, UsesFreshThreadsPerDispatch) {
  ForkJoinBackend B(3);
  std::set<std::thread::id> Seen;
  std::mutex M;
  std::thread::id Main = std::this_thread::get_id();
  for (int Round = 0; Round < 3; ++Round)
    B.parallelFor(0, 3, [&](size_t, size_t) {
      std::lock_guard<std::mutex> Lock(M);
      Seen.insert(std::this_thread::get_id());
    });
  // 3 rounds x 2 spawned threads + the master: at least 4 distinct ids
  // (thread ids may be recycled by the OS, so only a weak lower bound).
  EXPECT_GE(Seen.size(), 3u);
  EXPECT_TRUE(Seen.count(Main)) << "master must take part in the team";
}

TEST(RuntimeFactory, ParsesBackendNames) {
  EXPECT_EQ(parseBackendKind("serial"), BackendKind::Serial);
  EXPECT_EQ(parseBackendKind("spin-pool"), BackendKind::SpinPool);
  EXPECT_EQ(parseBackendKind("sac"), BackendKind::SpinPool);
  EXPECT_EQ(parseBackendKind("fork-join"), BackendKind::ForkJoin);
  EXPECT_EQ(parseBackendKind("FORTRAN"), BackendKind::ForkJoin);
  EXPECT_EQ(parseBackendKind("openmp"), BackendKind::OpenMp);
  EXPECT_EQ(parseBackendKind("omp"), BackendKind::OpenMp);
  EXPECT_FALSE(parseBackendKind("tasks"));
  EXPECT_FALSE(parseBackendKind("task"));
  EXPECT_FALSE(parseBackendKind("cuda").has_value());
}

TEST(RuntimeFactory, NamesRoundTrip) {
  for (BackendKind K :
       {BackendKind::Serial, BackendKind::SpinPool, BackendKind::ForkJoin,
        BackendKind::OpenMp})
    EXPECT_EQ(parseBackendKind(backendKindName(K)), K);
}

//===----------------------------------------------------------------------===//
// OpenMP cross-check backend (build-dependent)
//===----------------------------------------------------------------------===//

TEST(OmpBackend, FactoryMatchesAvailability) {
  auto B = createBackend(BackendKind::OpenMp, 2);
  EXPECT_EQ(B != nullptr, openMpAvailable());
}

TEST(OmpBackend, EachIterationRunsExactlyOnce) {
  if (!openMpAvailable())
    GTEST_SKIP() << "build has no OpenMP support";
  auto B = createBackend(BackendKind::OpenMp, 4);
  constexpr size_t N = 5003;
  std::vector<std::atomic<int>> Hits(N);
  for (auto &H : Hits)
    H.store(0);
  B->parallelFor(0, N, [&Hits](size_t Begin, size_t End) {
    for (size_t I = Begin; I < End; ++I)
      Hits[I].fetch_add(1, std::memory_order_relaxed);
  });
  for (size_t I = 0; I < N; ++I)
    ASSERT_EQ(Hits[I].load(), 1) << "iteration " << I;
}

TEST(OmpBackend, NestedCallsRunInline) {
  if (!openMpAvailable())
    GTEST_SKIP() << "build has no OpenMP support";
  auto B = createBackend(BackendKind::OpenMp, 2);
  std::atomic<int> Inner(0);
  B->parallelFor(0, 2, [&](size_t Begin, size_t End) {
    for (size_t I = Begin; I < End; ++I)
      B->parallelFor(0, 5, [&Inner](size_t B2, size_t E2) {
        Inner.fetch_add(static_cast<int>(E2 - B2));
      });
  });
  EXPECT_EQ(Inner.load(), 10);
}

TEST(OmpBackend, ManyBackToBackDispatches) {
  if (!openMpAvailable())
    GTEST_SKIP() << "build has no OpenMP support";
  auto B = createBackend(BackendKind::OpenMp, 3);
  std::vector<long> Data(61, 0);
  for (int Round = 0; Round < 200; ++Round)
    B->parallelFor(0, Data.size(), [&Data](size_t Begin, size_t End) {
      for (size_t I = Begin; I < End; ++I)
        Data[I] += 1;
    });
  for (long V : Data)
    ASSERT_EQ(V, 200);
}
