//===- tests/Solver2DTest.cpp - 2D solver integration tests ---------------===//
//
// The paper's Fig. 2/3 configuration at test scale: diagonal symmetry,
// dimensional consistency with the 1D solver, conservation in closed
// boxes, and sanity of the shock-interaction flow structure.
//
//===----------------------------------------------------------------------===//

#include "euler/RankineHugoniot.h"
#include "runtime/SerialBackend.h"
#include "solver/ArraySolver.h"
#include "solver/Diagnostics.h"
#include "solver/FusedSolver.h"
#include "solver/Problems.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

using namespace sacfd;

namespace {

SerialBackend Exec;

Prim<2> prim2(double Rho, double U, double V, double P) {
  Prim<2> W;
  W.Rho = Rho;
  W.Vel = {U, V};
  W.P = P;
  return W;
}

} // namespace

TEST(Solver2D, PreservesUniformFlow) {
  for (ReconstructionKind K :
       {ReconstructionKind::PiecewiseConstant, ReconstructionKind::Tvd2,
        ReconstructionKind::Weno3}) {
    SchemeConfig C;
    C.Recon = K;
    ArraySolver<2> S(uniformFlow2D(16), C, Exec);
    S.advanceSteps(5);
    for (std::ptrdiff_t I = 0; I < 16; ++I)
      for (std::ptrdiff_t J = 0; J < 16; ++J) {
        Prim<2> W = S.primitiveAt(Index{I, J});
        ASSERT_NEAR(W.Rho, 1.0, 1e-13);
        ASSERT_NEAR(W.Vel[0], 0.3, 1e-13);
        ASSERT_NEAR(W.Vel[1], -0.2, 1e-13);
        ASSERT_NEAR(W.P, 1.0, 1e-13);
      }
  }
}

TEST(Solver2D, YUniformDataMatchesOneDimensionalSolver) {
  // The dimensional-consistency property behind the paper's rank-generic
  // reuse: a 2D field that is constant along y must evolve exactly like
  // the 1D solver evolves one row.
  constexpr size_t N = 64;
  SchemeConfig C = SchemeConfig::figureScheme();

  Problem<1> P1 = sodProblem(N);

  Problem<2> P2;
  P2.Name = "sod-y-uniform";
  P2.Domain = Grid<2>({N, 8}, {0.0, 0.0}, {1.0, 0.125}, 2);
  P2.Boundary = BoundarySpec<2>::uniform(BcKind::Transmissive);
  P2.InitialState = [](const std::array<double, 2> &X) {
    return X[0] < 0.5 ? prim2(1.0, 0.0, 0.0, 1.0)
                      : prim2(0.125, 0.0, 0.0, 0.1);
  };

  ArraySolver<1> S1(P1, C, Exec);
  ArraySolver<2> S2(P2, C, Exec);
  // Same dx along x and same CFL over identical wave speeds: in the
  // y-uniform state v = 0, so EV_2d = (|u|+c)/dx + c/dy differs from
  // the 1D EV.  Advance with a fixed common dt instead.
  for (int Step = 0; Step < 20; ++Step) {
    double Dt = std::min(S1.computeDt(), S2.computeDt());
    // Use advanceTo's clamping path to step both with the same dt.
    S1.advanceTo(S1.time() + Dt);
    S2.advanceTo(S2.time() + Dt);
  }

  for (std::ptrdiff_t I = 0; I < static_cast<std::ptrdiff_t>(N); ++I) {
    Prim<1> W1 = S1.primitiveAt(Index{I});
    for (std::ptrdiff_t J = 0; J < 8; ++J) {
      Prim<2> W2 = S2.primitiveAt(Index{I, J});
      ASSERT_NEAR(W2.Rho, W1.Rho, 1e-11) << "cell " << I << "," << J;
      ASSERT_NEAR(W2.Vel[0], W1.Vel[0], 1e-11);
      ASSERT_NEAR(W2.Vel[1], 0.0, 1e-11) << "no y-velocity may appear";
      ASSERT_NEAR(W2.P, W1.P, 1e-11);
    }
  }
}

TEST(Solver2D, ShockInteractionStaysDiagonallySymmetric) {
  // The Fig. 2 configuration is mirror-symmetric about the main
  // diagonal; the discrete evolution must preserve that exactly:
  // field(i, j) = swap-velocities(field(j, i)).
  Problem<2> P = shockInteraction2D(32, 2.2, /*ChannelWidth=*/16.0);
  SchemeConfig C = SchemeConfig::figureScheme();
  ArraySolver<2> S(P, C, Exec);
  S.advanceSteps(12);

  for (std::ptrdiff_t I = 0; I < 32; ++I)
    for (std::ptrdiff_t J = 0; J < 32; ++J) {
      const Cons<2> &A = S.field().at(P.Domain.toStorage(Index{I, J}));
      const Cons<2> &B = S.field().at(P.Domain.toStorage(Index{J, I}));
      ASSERT_NEAR(A.Rho, B.Rho, 1e-12) << I << "," << J;
      ASSERT_NEAR(A.Mom[0], B.Mom[1], 1e-12) << I << "," << J;
      ASSERT_NEAR(A.Mom[1], B.Mom[0], 1e-12) << I << "," << J;
      ASSERT_NEAR(A.E, B.E, 1e-12) << I << "," << J;
    }
}

TEST(Solver2D, ShockInteractionDevelopsExpectedStructure) {
  // After the shocks enter: compression near the lower-left region,
  // quiescent gas far from it, positive everywhere.
  Problem<2> P = shockInteraction2D(40, 2.2, 20.0);
  SchemeConfig C = SchemeConfig::figureScheme();
  ArraySolver<2> S(P, C, Exec);
  S.advanceTo(0.25 * P.EndTime);

  FieldHealth<2> H = fieldHealth(S);
  ASSERT_TRUE(H.AllFinite);
  EXPECT_GT(H.MinDensity, 0.0);
  EXPECT_GT(H.MinPressure, 0.0);

  // Near the inflow corner the gas is post-shock: denser than quiescent.
  Prim<2> NearCorner = S.primitiveAt(Index{1, 1});
  EXPECT_GT(NearCorner.P, 2.0) << "post-shock pressure at the channels";

  // The far corner is still quiescent (shock has not arrived).
  Prim<2> FarCorner = S.primitiveAt(Index{38, 38});
  EXPECT_NEAR(FarCorner.Rho, 1.0, 1e-6);
  EXPECT_NEAR(FarCorner.P, 1.0, 1e-6);
}

TEST(Solver2D, PrimaryShockPositionTracksRankineHugoniotSpeed) {
  // The primary shock along the channel axis must advance at ~Ms * c0.
  double Ms = 2.2, H = 30.0;
  Problem<2> P = shockInteraction2D(60, Ms, H); // dx = 1
  SchemeConfig C = SchemeConfig::figureScheme();
  ArraySolver<2> S(P, C, Exec);
  double C0 = P.G.soundSpeed(1.0, 1.0);
  double RunTime = 12.0 / (Ms * C0); // shock should travel ~12 units
  S.advanceTo(RunTime);

  // Walk along y = h/2 (inside the jet) until the pressure falls to the
  // quiescent value: that is the shock front.
  std::ptrdiff_t Front = 0;
  for (std::ptrdiff_t I = 0; I < 60; ++I) {
    if (S.primitiveAt(Index{I, 15}).P > 1.5)
      Front = I;
    else
      break;
  }
  double FrontX = P.Domain.cellCenter(0, Front);
  EXPECT_NEAR(FrontX, Ms * C0 * RunTime, 3.0)
      << "shock front off Rankine-Hugoniot speed";
}

TEST(Solver2D, ConservationInClosedBox) {
  // Reflective box with a pressure bump: mass and energy exactly
  // conserved, and by symmetry both momentum components stay ~0.
  Problem<2> P;
  P.Name = "closed-box";
  P.Domain = Grid<2>::square(24, 1.0, 2);
  P.Boundary = BoundarySpec<2>::uniform(BcKind::Reflective);
  P.InitialState = [](const std::array<double, 2> &X) {
    double R2 = (X[0] - 0.5) * (X[0] - 0.5) + (X[1] - 0.5) * (X[1] - 0.5);
    return prim2(1.0, 0.0, 0.0, 1.0 + 2.0 * std::exp(-60.0 * R2));
  };

  SchemeConfig C = SchemeConfig::figureScheme();
  ArraySolver<2> S(P, C, Exec);
  ConservedTotals<2> Before = conservedTotals(S);
  S.advanceSteps(25);
  ConservedTotals<2> After = conservedTotals(S);

  EXPECT_NEAR(After.Mass, Before.Mass, 1e-12 * Before.Mass);
  EXPECT_NEAR(After.Energy, Before.Energy, 1e-12 * Before.Energy);
  EXPECT_NEAR(After.Momentum[0], 0.0, 1e-11);
  EXPECT_NEAR(After.Momentum[1], 0.0, 1e-11);
}

TEST(Solver2D, Riemann2DStableAndDiagonallySymmetric) {
  // Configuration 4 data are symmetric under (x, y) swap.
  Problem<2> P = riemann2D(24);
  SchemeConfig C = SchemeConfig::figureScheme();
  ArraySolver<2> S(P, C, Exec);
  S.advanceSteps(10);

  FieldHealth<2> H = fieldHealth(S);
  ASSERT_TRUE(H.AllFinite);
  EXPECT_GT(H.MinDensity, 0.0);

  for (std::ptrdiff_t I = 0; I < 24; ++I)
    for (std::ptrdiff_t J = 0; J < 24; ++J) {
      const Cons<2> &A = S.field().at(P.Domain.toStorage(Index{I, J}));
      const Cons<2> &B = S.field().at(P.Domain.toStorage(Index{J, I}));
      ASSERT_NEAR(A.Rho, B.Rho, 1e-12);
      ASSERT_NEAR(A.Mom[0], B.Mom[1], 1e-12);
    }
}

TEST(Solver2D, Riemann2DConfig12TopBottomSymmetryOfContacts) {
  // Configuration 12 is symmetric under (x, y) swap as well (NW and SE
  // mirror each other); check it holds discretely, and that the run
  // stays healthy.
  Problem<2> P = riemann2D(24, 2, 12);
  SchemeConfig C = SchemeConfig::figureScheme();
  ArraySolver<2> S(P, C, Exec);
  S.advanceSteps(10);
  FieldHealth<2> H = fieldHealth(S);
  ASSERT_TRUE(H.AllFinite);
  EXPECT_GT(H.MinDensity, 0.0);
  for (std::ptrdiff_t I = 0; I < 24; ++I)
    for (std::ptrdiff_t J = 0; J < 24; ++J) {
      const Cons<2> &A = S.field().at(P.Domain.toStorage(Index{I, J}));
      const Cons<2> &B = S.field().at(P.Domain.toStorage(Index{J, I}));
      ASSERT_NEAR(A.Rho, B.Rho, 1e-12) << I << "," << J;
      ASSERT_NEAR(A.Mom[0], B.Mom[1], 1e-12);
    }
}

TEST(Solver2D, Riemann2DConfig6SpinsUpVorticity) {
  // Configuration 6: four contacts induce rotation; after a while the
  // field must carry nonzero circulation while staying positive.
  Problem<2> P = riemann2D(24, 2, 6);
  SchemeConfig C = SchemeConfig::figureScheme();
  ArraySolver<2> S(P, C, Exec);
  S.advanceTo(0.15);
  FieldHealth<2> H = fieldHealth(S);
  ASSERT_TRUE(H.AllFinite);
  EXPECT_GT(H.MinDensity, 0.0);
  EXPECT_GT(H.MinPressure, 0.0);

  // Crude circulation: sum of (u_y dx - ... ) sign pattern around the
  // center; just require both velocity components to change sign across
  // the domain (rotating structure).
  Prim<2> WLeft = S.primitiveAt(Index{4, 12});
  Prim<2> WRight = S.primitiveAt(Index{19, 12});
  EXPECT_LT(WLeft.Vel[1] * WRight.Vel[1], 0.0)
      << "vertical velocity flips across the vortex core";
}

TEST(Solver2D, InflowGhostCellsHoldRankineHugoniotState) {
  double Ms = 2.2;
  Problem<2> P = shockInteraction2D(16, Ms, 8.0);
  SchemeConfig C = SchemeConfig::benchmarkScheme();
  ArraySolver<2> S(P, C, Exec);
  S.advanceSteps(3);

  // Ghost column x < 0 inside the channel (y < h): frozen post-shock.
  PostShockState Post = postShockState(Ms, 1.0, 1.0, P.G);
  const Cons<2> &Ghost = S.field().at(Index{1, 2 + 2});
  Prim<2> W = toPrim(Ghost, P.G);
  EXPECT_NEAR(W.Rho, Post.Rho, 1e-12);
  EXPECT_NEAR(W.Vel[0], Post.U, 1e-12);
  EXPECT_NEAR(W.Vel[1], 0.0, 1e-12);
  EXPECT_NEAR(W.P, Post.P, 1e-12);
}

TEST(Solver2D, ComputeDtSeesCellsWrittenAfterAStep) {
  // A step's last stage reduces the next GetDT maximum and computeDt
  // serves it.  A write through field() after the step (the step guard's
  // floors, injected faults) must drop that value: dt has to equal a
  // from-scratch GetDT of the written field, bit for bit, in every
  // engine mode.
  Problem<2> Prob = shockInteraction2D(32);
  SchemeConfig Scheme = SchemeConfig::benchmarkScheme();
  using Factory = std::function<std::unique_ptr<EulerSolver<2>>()>;
  const std::pair<const char *, Factory> Modes[] = {
      {"fused loop",
       [&] { return std::make_unique<FusedSolver<2>>(Prob, Scheme, Exec); }},
      {"array fused",
       [&] {
         return std::make_unique<ArraySolver<2>>(Prob, Scheme, Exec,
                                                 ArrayEvalMode::Fused);
       }},
      {"array materialized", [&] {
         return std::make_unique<ArraySolver<2>>(Prob, Scheme, Exec,
                                                 ArrayEvalMode::Materialized);
       }}};

  auto Bits = [](double V) {
    uint64_t B;
    std::memcpy(&B, &V, sizeof B);
    return B;
  };
  for (const auto &[Name, Make] : Modes) {
    SCOPED_TRACE(Name);
    std::unique_ptr<EulerSolver<2>> S = Make();
    S->advanceSteps(2);
    const double DtBefore = S->computeDt();

    const Index Cell = Prob.Domain.toStorage(Index{16, 16});
    Cons<2> Q = S->field().at(Cell);
    Q.Mom[0] *= 50.0;
    Q.Mom[1] *= 50.0;
    Q.E *= 2500.0;
    S->field().set(Cell, Q);
    const double Dt = S->computeDt();

    std::unique_ptr<EulerSolver<2>> Fresh = Make();
    std::vector<Cons<2>> State(S->field().size());
    std::as_const(*S).field().exportTo(State.data());
    Fresh->field().importFrom(State.data());
    EXPECT_EQ(Bits(Dt), Bits(Fresh->computeDt()))
        << Dt << " vs " << Fresh->computeDt();
    EXPECT_LT(Dt, 0.1 * DtBefore) << "the written cell sets the CFL step";
  }
}
