//===- tests/FieldPoolTest.cpp - FieldPool unit tests ---------------------===//
//
// The buffer arena behind the zero-allocation hot path: lease recycling,
// shape-key and type isolation, stats accounting, value-init vs uninit
// acquisition semantics, and 64-byte alignment on every acquire path.
//
//===----------------------------------------------------------------------===//

#include "array/AllocCounter.h"
#include "array/FieldPool.h"
#include "euler/State.h"

#include <gtest/gtest.h>

#include <cstdint>

using namespace sacfd;

namespace {

TEST(FieldPoolTest, LeaseRecyclesSameBuffer) {
  FieldPool Pool;
  Shape S{16};
  double *FirstData = nullptr;
  {
    FieldPool::Lease<double> L = Pool.acquire<double>(S);
    FirstData = L->data();
    ASSERT_NE(FirstData, nullptr);
    EXPECT_EQ(L->shape(), S);
  }
  // Same shape again: the freed buffer must come back, not a new one.
  FieldPool::Lease<double> L2 = Pool.acquire<double>(S);
  EXPECT_EQ(L2->data(), FirstData);

  FieldPool::Stats St = Pool.stats();
  EXPECT_EQ(St.Acquisitions, 2u);
  EXPECT_EQ(St.Hits, 1u);
  EXPECT_EQ(St.LiveLeases, 1u);
}

TEST(FieldPoolTest, RecycledAcquireIsValueInitialized) {
  FieldPool Pool;
  Shape S{8};
  {
    FieldPool::Lease<double> L = Pool.acquire<double>(S);
    L->fill(42.0);
  }
  FieldPool::Lease<double> L = Pool.acquire<double>(S);
  for (double V : *L)
    EXPECT_EQ(V, 0.0);
}

TEST(FieldPoolTest, UninitAcquireSkipsReZeroing) {
  FieldPool Pool;
  Shape S{8};
  double *Data = nullptr;
  {
    FieldPool::Lease<double> L = Pool.acquireUninit<double>(S);
    Data = L->data();
    L->fill(42.0);
  }
  FieldPool::Lease<double> L = Pool.acquireUninit<double>(S);
  // Same storage, contents untouched — the no-memset fast path.  (Safe
  // only because pooled-buffer consumers overwrite every element.)
  ASSERT_EQ(L->data(), Data);
  for (double V : *L)
    EXPECT_EQ(V, 42.0);
}

TEST(FieldPoolTest, ShapeKeysIsolateBuckets) {
  FieldPool Pool;
  FieldPool::Lease<double> A = Pool.acquire<double>(Shape{4});
  FieldPool::Lease<double> B = Pool.acquire<double>(Shape{4, 4});
  EXPECT_EQ(A->size(), 4u);
  EXPECT_EQ(B->size(), 16u);
  double *Data4 = A->data();
  A.reset();
  B.reset();
  // A rank-2 {2, 2} shape has the same element count as {4} but is a
  // different key; it must not steal the {4} buffer.
  FieldPool::Lease<double> C = Pool.acquire<double>(Shape{2, 2});
  EXPECT_NE(C->data(), Data4);
  EXPECT_EQ(C->shape(), (Shape{2, 2}));
  FieldPool::Lease<double> D = Pool.acquire<double>(Shape{4});
  EXPECT_EQ(D->data(), Data4);
}

TEST(FieldPoolTest, ElementTypesIsolateBuckets) {
  FieldPool Pool;
  FieldPool::Lease<double> A = Pool.acquire<double>(Shape{8});
  A.reset();
  // Same shape, different element type: must be a fresh buffer.
  FieldPool::Lease<float> B = Pool.acquire<float>(Shape{8});
  EXPECT_EQ(B->size(), 8u);
  FieldPool::Stats St = Pool.stats();
  EXPECT_EQ(St.Acquisitions, 2u);
  EXPECT_EQ(St.Hits, 0u);
}

TEST(FieldPoolTest, StatsTrackResidencyAndHighWater) {
  FieldPool Pool;
  Shape S{100};
  uint64_t Bytes = 100 * sizeof(double);
  {
    FieldPool::Lease<double> A = Pool.acquire<double>(S);
    FieldPool::Lease<double> B = Pool.acquire<double>(S);
    FieldPool::Stats St = Pool.stats();
    EXPECT_EQ(St.BytesResident, 2 * Bytes);
    EXPECT_EQ(St.HighWaterBytes, 2 * Bytes);
    EXPECT_EQ(St.LiveLeases, 2u);
  }
  // Released buffers stay resident (pooled), so the footprint holds.
  FieldPool::Stats St = Pool.stats();
  EXPECT_EQ(St.BytesResident, 2 * Bytes);
  EXPECT_EQ(St.HighWaterBytes, 2 * Bytes);
  EXPECT_EQ(St.LiveLeases, 0u);

  // Steady-state reuse must not grow the high-water mark.
  for (int I = 0; I < 10; ++I) {
    FieldPool::Lease<double> A = Pool.acquire<double>(S);
    FieldPool::Lease<double> B = Pool.acquire<double>(S);
  }
  St = Pool.stats();
  EXPECT_EQ(St.HighWaterBytes, 2 * Bytes);
  EXPECT_EQ(St.Hits, 20u);
}

TEST(FieldPoolTest, SteadyStateAcquireDoesNotAllocate) {
  FieldPool Pool;
  Shape S{64};
  { FieldPool::Lease<double> Warm = Pool.acquire<double>(S); }
  uint64_t Before = alloctrack::allocationCount();
  for (int I = 0; I < 100; ++I) {
    FieldPool::Lease<double> L = Pool.acquireUninit<double>(S);
  }
  EXPECT_EQ(alloctrack::allocationCount(), Before);
}

bool aligned64(const void *P) {
  return reinterpret_cast<std::uintptr_t>(P) % kFieldAlign == 0;
}

TEST(FieldPoolTest, EveryAcquirePathIs64ByteAligned) {
  // Regression: acquireUninit once produced malloc-default (16-byte)
  // alignment, breaking the aligned-load contract the vectorized kernels
  // assume.  Every acquire path — zeroed, uninit, fresh or recycled —
  // must hand out 64-byte-aligned storage for every shape, including odd
  // and sub-vector-width counts.
  const Shape Shapes[] = {Shape{1},     Shape{3},      Shape{5},
                          Shape{7},     Shape{8},      Shape{64},
                          Shape{17, 9}, Shape{5, 7, 3}};
  FieldPool Pool;
  for (const Shape &S : Shapes) {
    {
      FieldPool::Lease<double> A = Pool.acquire<double>(S);
      EXPECT_TRUE(aligned64(A->data())) << S.str();
      FieldPool::Lease<double> B = Pool.acquireUninit<double>(S);
      EXPECT_TRUE(aligned64(B->data())) << S.str();
      FieldPool::Lease<Cons<2>> C = Pool.acquire<Cons<2>>(S);
      EXPECT_TRUE(aligned64(C->data())) << S.str();
    }
    // Recycled round: the buffer coming back off the free list must
    // still carry its original alignment.
    FieldPool::Lease<double> R = Pool.acquireUninit<double>(S);
    EXPECT_TRUE(aligned64(R->data())) << S.str() << " (recycled)";
  }
}

TEST(FieldPoolTest, MoveTransfersLease) {
  FieldPool Pool;
  FieldPool::Lease<double> A = Pool.acquire<double>(Shape{8});
  double *Data = A->data();
  FieldPool::Lease<double> B = std::move(A);
  EXPECT_FALSE(A);
  ASSERT_TRUE(B);
  EXPECT_EQ(B->data(), Data);
  EXPECT_EQ(Pool.stats().LiveLeases, 1u);

  // Move-assigning over a live lease releases its buffer first.
  FieldPool::Lease<double> C = Pool.acquire<double>(Shape{8});
  EXPECT_EQ(Pool.stats().LiveLeases, 2u);
  C = std::move(B);
  EXPECT_EQ(Pool.stats().LiveLeases, 1u);
  EXPECT_EQ(C->data(), Data);
}

} // namespace
