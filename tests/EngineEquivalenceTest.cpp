//===- tests/EngineEquivalenceTest.cpp - Array vs Fused engine equality ----===//
//
// The paper's implicit claim — the SaC port computes the same thing as
// the Fortran original — as an executable invariant: ArraySolver and
// FusedSolver share the numerics, so for identical settings they must
// produce bit-identical fields, on every backend, in both array
// evaluation modes.  The array engine's fused mode and the fused engine
// step through one stage driver, so they match on full storage, ghost
// cells included.
//
//===----------------------------------------------------------------------===//

#include "runtime/Runtime.h"
#include "solver/ArraySolver.h"
#include "solver/Diagnostics.h"
#include "solver/FusedSolver.h"
#include "solver/Problems.h"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

using namespace sacfd;

namespace {

struct EquivCase {
  ReconstructionKind Recon;
  RiemannKind Riemann;

  std::string label() const {
    return std::string(reconstructionKindName(Recon)) + "_" +
           riemannKindName(Riemann);
  }

  SchemeConfig config() const {
    SchemeConfig C;
    C.Recon = Recon;
    C.Riemann = Riemann;
    return C;
  }
};

/// Whether \p A and \p B hold the same bits on full storage, ghosts
/// included.
template <unsigned Dim>
bool sameStorage(const EulerSolver<Dim> &A, const EulerSolver<Dim> &B) {
  std::vector<Cons<Dim>> Sa(A.field().size()), Sb(B.field().size());
  if (Sa.size() != Sb.size())
    return false;
  A.field().exportTo(Sa.data());
  B.field().exportTo(Sb.data());
  return std::memcmp(Sa.data(), Sb.data(), Sa.size() * sizeof(Cons<Dim>)) ==
         0;
}

class EngineEquivalence1D : public ::testing::TestWithParam<EquivCase> {};
class EngineEquivalence2D : public ::testing::TestWithParam<EquivCase> {};

} // namespace

TEST_P(EngineEquivalence1D, ArrayAndFusedBitIdenticalOnSod) {
  auto Exec = createBackend(BackendKind::Serial, 1);
  ArraySolver<1> A(sodProblem(128), GetParam().config(), *Exec);
  FusedSolver<1> F(sodProblem(128), GetParam().config(), *Exec);
  A.advanceSteps(25);
  F.advanceSteps(25);
  EXPECT_DOUBLE_EQ(A.time(), F.time()) << "same dt sequence";
  EXPECT_EQ(maxFieldDifference(A, F), 0.0) << "fields diverged";
  EXPECT_TRUE(sameStorage(A, F)) << "storage (ghosts included) diverged";
}

TEST_P(EngineEquivalence2D, ArrayAndFusedBitIdenticalOnInteraction) {
  auto Exec = createBackend(BackendKind::Serial, 1);
  Problem<2> P = shockInteraction2D(32, 2.2, /*ChannelWidth=*/16.0);
  ArraySolver<2> A(P, GetParam().config(), *Exec);
  FusedSolver<2> F(P, GetParam().config(), *Exec);
  A.advanceSteps(8);
  F.advanceSteps(8);
  EXPECT_DOUBLE_EQ(A.time(), F.time());
  EXPECT_EQ(maxFieldDifference(A, F), 0.0);
  EXPECT_TRUE(sameStorage(A, F)) << "storage (ghosts included) diverged";
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, EngineEquivalence1D,
    ::testing::Values(
        EquivCase{ReconstructionKind::PiecewiseConstant, RiemannKind::Hllc},
        EquivCase{ReconstructionKind::Tvd2, RiemannKind::Roe},
        EquivCase{ReconstructionKind::Tvd3, RiemannKind::Hll},
        EquivCase{ReconstructionKind::Weno3, RiemannKind::Hllc},
        EquivCase{ReconstructionKind::Weno3, RiemannKind::Rusanov}),
    [](const ::testing::TestParamInfo<EquivCase> &I) {
      return I.param.label();
    });

INSTANTIATE_TEST_SUITE_P(
    Schemes, EngineEquivalence2D,
    ::testing::Values(
        EquivCase{ReconstructionKind::PiecewiseConstant, RiemannKind::Hllc},
        EquivCase{ReconstructionKind::PiecewiseConstant,
                  RiemannKind::Rusanov},
        EquivCase{ReconstructionKind::PiecewiseConstant, RiemannKind::Hll},
        EquivCase{ReconstructionKind::Weno3, RiemannKind::Hllc}),
    [](const ::testing::TestParamInfo<EquivCase> &I) {
      return I.param.label();
    });

//===----------------------------------------------------------------------===//
// Evaluation modes and backends
//===----------------------------------------------------------------------===//

TEST(EngineEquivalence, FusedAndMaterializedArrayModesIdentical) {
  // The A1 ablation's correctness precondition: fusion changes cost, not
  // results.
  auto Exec = createBackend(BackendKind::Serial, 1);
  SchemeConfig C = SchemeConfig::figureScheme();
  ArraySolver<1> Fused(sodProblem(100), C, *Exec, ArrayEvalMode::Fused);
  ArraySolver<1> Mat(sodProblem(100), C, *Exec,
                     ArrayEvalMode::Materialized);
  Fused.advanceSteps(20);
  Mat.advanceSteps(20);
  EXPECT_EQ(maxFieldDifference(Fused, Mat), 0.0);
}

TEST(EngineEquivalence, FusedAndMaterializedArrayModesIdentical2D) {
  auto Exec = createBackend(BackendKind::Serial, 1);
  SchemeConfig C = SchemeConfig::benchmarkScheme();
  Problem<2> P = shockInteraction2D(24, 2.2, 12.0);
  ArraySolver<2> Fused(P, C, *Exec, ArrayEvalMode::Fused);
  ArraySolver<2> Mat(P, C, *Exec, ArrayEvalMode::Materialized);
  Fused.advanceSteps(6);
  Mat.advanceSteps(6);
  EXPECT_EQ(maxFieldDifference(Fused, Mat), 0.0);
}

TEST(EngineEquivalence, BackendsProduceIdenticalFields1D) {
  // Elementwise updates are partition-independent and the dt reduction
  // is a max: every backend/thread-count must agree bitwise.
  SchemeConfig C = SchemeConfig::figureScheme();
  auto Serial = createBackend(BackendKind::Serial, 1);
  ArraySolver<1> Ref(sodProblem(128), C, *Serial);
  Ref.advanceSteps(15);

  for (BackendKind K : {BackendKind::SpinPool, BackendKind::ForkJoin,
                        BackendKind::OpenMp})
    for (unsigned T : {2u, 4u}) {
      auto B = createBackend(K, T);
      if (!B)
        continue; // OpenMP absent from this build
      ArraySolver<1> S(sodProblem(128), C, *B);
      S.advanceSteps(15);
      EXPECT_EQ(maxFieldDifference(Ref, S), 0.0)
          << backendKindName(K) << " threads=" << T;
    }
}

TEST(EngineEquivalence, BackendsProduceIdenticalFields2DFused) {
  SchemeConfig C = SchemeConfig::benchmarkScheme();
  Problem<2> P = shockInteraction2D(24, 2.2, 12.0);
  auto Serial = createBackend(BackendKind::Serial, 1);
  FusedSolver<2> Ref(P, C, *Serial);
  Ref.advanceSteps(6);

  for (BackendKind K : {BackendKind::SpinPool, BackendKind::ForkJoin}) {
    auto B = createBackend(K, 3);
    FusedSolver<2> S(P, C, *B);
    S.advanceSteps(6);
    EXPECT_EQ(maxFieldDifference(Ref, S), 0.0) << backendKindName(K);
  }
}

TEST(EngineEquivalence, AnisotropicGridBitIdentical) {
  // Nx != Ny and dx != dy stress the fused engine's stride/line
  // decomposition and the per-axis InvDx handling.
  Problem<2> P;
  P.Name = "anisotropic";
  P.Domain = Grid<2>({20, 12}, {0.0, 0.0}, {2.0, 0.6}, 2);
  P.Boundary = BoundarySpec<2>::uniform(BcKind::Transmissive);
  P.InitialState = [](const std::array<double, 2> &X) {
    Prim<2> W;
    W.Rho = 1.0;
    W.Vel = {0.1, -0.2};
    double R2 = (X[0] - 0.7) * (X[0] - 0.7) +
                (X[1] - 0.2) * (X[1] - 0.2);
    W.P = 1.0 + 2.0 * std::exp(-40.0 * R2);
    return W;
  };

  auto Exec = createBackend(BackendKind::Serial, 1);
  SchemeConfig C = SchemeConfig::figureScheme();
  ArraySolver<2> A(P, C, *Exec);
  FusedSolver<2> F(P, C, *Exec);
  A.advanceSteps(6);
  F.advanceSteps(6);
  EXPECT_DOUBLE_EQ(A.time(), F.time());
  EXPECT_EQ(maxFieldDifference(A, F), 0.0);
}

TEST(EngineEquivalence, FusedSolverGetDtMatchesArraySolver) {
  auto Exec = createBackend(BackendKind::Serial, 1);
  SchemeConfig C = SchemeConfig::figureScheme();
  Problem<2> P = riemann2D(20);
  ArraySolver<2> A(P, C, *Exec);
  FusedSolver<2> F(P, C, *Exec);
  EXPECT_DOUBLE_EQ(A.computeDt(), F.computeDt());
}
