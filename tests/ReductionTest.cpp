//===- tests/ReductionTest.cpp - fold/maxval/minval/sum tests -------------===//

#include "array/Reductions.h"
#include "array/WithLoop.h"
#include "runtime/Runtime.h"

#include <gtest/gtest.h>

#include <memory>

using namespace sacfd;

namespace {

struct ReduceCase {
  BackendKind Kind;
  unsigned Threads;

  std::string label() const {
    std::string S = backendKindName(Kind);
    S += "_t" + std::to_string(Threads);
    for (char &C : S)
      if (C == '-')
        C = '_';
    return S;
  }
};

class ReductionBackendTest : public ::testing::TestWithParam<ReduceCase> {
protected:
  void SetUp() override {
    Exec = createBackend(GetParam().Kind, GetParam().Threads);
  }
  std::unique_ptr<Backend> Exec;
};

NDArray<double> rampArray(size_t N) {
  NDArray<double> A(Shape{N});
  for (size_t I = 0; I < N; ++I)
    A[I] = static_cast<double>(I) - 10.0;
  return A;
}

} // namespace

TEST_P(ReductionBackendTest, SumOfRamp) {
  constexpr size_t N = 1001;
  NDArray<double> A = rampArray(N);
  double S = sum(A, *Exec);
  double Expected = (0.0 + 1000.0) * 1001.0 / 2.0 - 10.0 * 1001.0;
  EXPECT_DOUBLE_EQ(S, Expected);
}

TEST_P(ReductionBackendTest, MaxvalAndMinval) {
  NDArray<double> A = rampArray(257);
  EXPECT_EQ(maxval(A, *Exec), 246.0);
  EXPECT_EQ(minval(A, *Exec), -10.0);
}

TEST_P(ReductionBackendTest, MaxvalOfExpression) {
  // The getDt pattern: maxval over a lazily computed eigenvalue field.
  NDArray<double> A = rampArray(100);
  double M = maxval(fabsE(A) * 2.0 + 1.0, *Exec);
  EXPECT_EQ(M, 2.0 * 89.0 + 1.0);
}

TEST_P(ReductionBackendTest, SingleElementReduction) {
  NDArray<double> A(Shape{1}, 3.5);
  EXPECT_EQ(sum(A, *Exec), 3.5);
  EXPECT_EQ(maxval(A, *Exec), 3.5);
  EXPECT_EQ(minval(A, *Exec), 3.5);
}

TEST_P(ReductionBackendTest, SumOfEmptyIsZero) {
  NDArray<double> A(Shape{0});
  EXPECT_EQ(sum(A, *Exec), 0.0);
}

TEST_P(ReductionBackendTest, FoldWithCustomCombiner) {
  NDArray<double> A(Shape{64});
  for (size_t I = 0; I < 64; ++I)
    A[I] = (I % 7 == 0) ? -1.0 : 1.0;
  // Count negatives: map to an indicator first (fold requires a single
  // associative carrier type), then fold with +.
  long Negatives = fold(
      transform(A, [](double V) { return V < 0.0 ? 1L : 0L; }), 0L,
      [](long Acc, long V) { return Acc + V; }, *Exec);
  EXPECT_EQ(Negatives, 10);
}

TEST_P(ReductionBackendTest, TwoDimensionalReduction) {
  NDArray<double> A = withLoop(
      Shape{40, 25},
      *createBackend(BackendKind::Serial, 1), [](const Index &Iv) {
        return static_cast<double>(Iv[0]) * static_cast<double>(Iv[1]);
      });
  double M = maxval(A, *Exec);
  EXPECT_EQ(M, 39.0 * 24.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, ReductionBackendTest,
    ::testing::Values(ReduceCase{BackendKind::Serial, 1},
                      ReduceCase{BackendKind::SpinPool, 2},
                      ReduceCase{BackendKind::SpinPool, 4},
                      ReduceCase{BackendKind::ForkJoin, 2},
                      ReduceCase{BackendKind::ForkJoin, 4}),
    [](const ::testing::TestParamInfo<ReduceCase> &Info) {
      return Info.param.label();
    });

//===----------------------------------------------------------------------===//
// Determinism across worker counts and backends
//===----------------------------------------------------------------------===//

TEST(ReductionDeterminism, MaxIsExactAcrossAllConfigurations) {
  // max is associative+commutative in FP: every configuration must agree
  // bitwise.  This is why getDt() is backend-invariant.
  NDArray<double> A(Shape{777});
  unsigned Seed = 12345;
  for (size_t I = 0; I < A.size(); ++I) {
    Seed = Seed * 1664525u + 1013904223u;
    A[I] = static_cast<double>(Seed % 100000) * 1e-3 - 50.0;
  }
  auto Serial = createBackend(BackendKind::Serial, 1);
  double Ref = maxval(A, *Serial);
  for (BackendKind K : {BackendKind::SpinPool, BackendKind::ForkJoin})
    for (unsigned T : {1u, 2u, 3u, 4u, 7u}) {
      auto B = createBackend(K, T);
      EXPECT_EQ(maxval(A, *B), Ref)
          << backendKindName(K) << " threads=" << T;
    }
}

TEST(ReductionDeterminism, SumIsStableForFixedWorkerCount) {
  // The fold contract: result depends only on workerCount().  Same count,
  // different backend model => bitwise equal sums.
  NDArray<double> A(Shape{1000});
  unsigned Seed = 999;
  for (size_t I = 0; I < A.size(); ++I) {
    Seed = Seed * 22695477u + 1u;
    A[I] = static_cast<double>(Seed) * 1e-9;
  }
  for (unsigned T : {2u, 4u}) {
    auto Pool = createBackend(BackendKind::SpinPool, T);
    auto Fork = createBackend(BackendKind::ForkJoin, T);
    EXPECT_EQ(sum(A, *Pool), sum(A, *Fork)) << "threads=" << T;
    // And stable across repeated runs.
    EXPECT_EQ(sum(A, *Pool), sum(A, *Pool));
  }
}
