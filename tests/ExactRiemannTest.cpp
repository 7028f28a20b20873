//===- tests/ExactRiemannTest.cpp - Exact Riemann solver validation -------===//
//
// Star-region values validated against the published table in Toro,
// "Riemann Solvers and Numerical Methods for Fluid Dynamics", 3rd ed.,
// Section 4.3.3 (Table 4.3), gamma = 1.4.
//
//===----------------------------------------------------------------------===//

#include "euler/ExactRiemann.h"

#include <gtest/gtest.h>

#include <cmath>
#include <ostream>

using namespace sacfd;

namespace {

Prim<1> prim(double Rho, double U, double P) {
  Prim<1> W;
  W.Rho = Rho;
  W.Vel = {U};
  W.P = P;
  return W;
}

struct ToroCase {
  const char *Name;
  Prim<1> L, R;
  double PStar, UStar;
};

// Print a case by name. Without this, GoogleTest prints the raw bytes of
// the struct, whose first field is a string-literal address that moves
// with every load of the binary, so the test names changed from build to
// build.
void PrintTo(const ToroCase &C, std::ostream *OS) { *OS << C.Name; }

class ToroTableTest : public ::testing::TestWithParam<ToroCase> {};

} // namespace

TEST_P(ToroTableTest, StarValuesMatchPublishedTable) {
  const ToroCase &C = GetParam();
  ExactRiemannSolver RS(C.L, C.R);
  ASSERT_TRUE(RS.valid());
  // Published values carry ~5-6 significant digits.
  EXPECT_NEAR(RS.pStar(), C.PStar, 2e-4 * std::max(1.0, C.PStar));
  EXPECT_NEAR(RS.uStar(), C.UStar, 2e-4 * std::max(1.0, std::fabs(C.UStar)));
}

INSTANTIATE_TEST_SUITE_P(
    Toro, ToroTableTest,
    ::testing::Values(
        ToroCase{"Sod", prim(1.0, 0.0, 1.0), prim(0.125, 0.0, 0.1),
                 0.30313, 0.92745},
        ToroCase{"Test123", prim(1.0, -2.0, 0.4), prim(1.0, 2.0, 0.4),
                 0.00189, 0.0},
        ToroCase{"LeftBlast", prim(1.0, 0.0, 1000.0), prim(1.0, 0.0, 0.01),
                 460.894, 19.5975},
        ToroCase{"RightBlast", prim(1.0, 0.0, 0.01), prim(1.0, 0.0, 100.0),
                 46.0950, -6.19633},
        ToroCase{"Collision",
                 prim(5.99924, 19.5975, 460.894),
                 prim(5.99242, -6.19633, 46.0950), 1691.64, 8.68975}),
    [](const ::testing::TestParamInfo<ToroCase> &Info) {
      return Info.param.Name;
    });

TEST(ExactRiemann, SodWaveStructure) {
  ExactRiemannSolver RS(prim(1.0, 0.0, 1.0), prim(0.125, 0.0, 0.1));
  ASSERT_TRUE(RS.valid());
  EXPECT_FALSE(RS.leftIsShock()) << "Sod: left wave is a rarefaction";
  EXPECT_TRUE(RS.rightIsShock()) << "Sod: right wave is a shock";
}

TEST(ExactRiemann, SamplingRecoversDataOutsideWaveFan) {
  Prim<1> L = prim(1.0, 0.0, 1.0), R = prim(0.125, 0.0, 0.1);
  ExactRiemannSolver RS(L, R);
  ASSERT_TRUE(RS.valid());

  Prim<1> FarLeft = RS.sample(-100.0);
  EXPECT_DOUBLE_EQ(FarLeft.Rho, L.Rho);
  EXPECT_DOUBLE_EQ(FarLeft.P, L.P);

  Prim<1> FarRight = RS.sample(100.0);
  EXPECT_DOUBLE_EQ(FarRight.Rho, R.Rho);
  EXPECT_DOUBLE_EQ(FarRight.P, R.P);
}

TEST(ExactRiemann, PressureAndVelocityContinuousAcrossContact) {
  ExactRiemannSolver RS(prim(1.0, 0.0, 1.0), prim(0.125, 0.0, 0.1));
  ASSERT_TRUE(RS.valid());
  double U = RS.uStar();
  Prim<1> JustLeft = RS.sample(U - 1e-9);
  Prim<1> JustRight = RS.sample(U + 1e-9);
  EXPECT_NEAR(JustLeft.P, JustRight.P, 1e-7);
  EXPECT_NEAR(JustLeft.Vel[0], JustRight.Vel[0], 1e-7);
  // Density jumps across the contact (Sod: ~0.4263 vs ~0.2656).
  EXPECT_GT(JustLeft.Rho - JustRight.Rho, 0.1);
}

TEST(ExactRiemann, SodStarDensities) {
  // Known star densities of the Sod problem.
  ExactRiemannSolver RS(prim(1.0, 0.0, 1.0), prim(0.125, 0.0, 0.1));
  ASSERT_TRUE(RS.valid());
  Prim<1> StarL = RS.sample(RS.uStar() - 1e-9);
  Prim<1> StarR = RS.sample(RS.uStar() + 1e-9);
  EXPECT_NEAR(StarL.Rho, 0.42632, 1e-4);
  EXPECT_NEAR(StarR.Rho, 0.26557, 1e-4);
}

TEST(ExactRiemann, RarefactionFanIsSmoothAndMonotone) {
  ExactRiemannSolver RS(prim(1.0, 0.0, 1.0), prim(0.125, 0.0, 0.1));
  ASSERT_TRUE(RS.valid());
  // Walk across the left rarefaction: head at -c_l = -sqrt(1.4).
  double Head = -std::sqrt(1.4);
  double Prev = 1.0;
  for (int I = 0; I <= 50; ++I) {
    double S = Head + static_cast<double>(I) / 50.0 * (RS.uStar() - Head);
    Prim<1> W = RS.sample(S);
    EXPECT_LE(W.Rho, Prev + 1e-12) << "density decreases through the fan";
    EXPECT_GT(W.Rho, 0.0);
    EXPECT_GT(W.P, 0.0);
    Prev = W.Rho;
  }
}

TEST(ExactRiemann, SymmetricCollisionHasZeroContactSpeed) {
  ExactRiemannSolver RS(prim(1.0, 2.0, 1.0), prim(1.0, -2.0, 1.0));
  ASSERT_TRUE(RS.valid());
  EXPECT_NEAR(RS.uStar(), 0.0, 1e-12);
  EXPECT_TRUE(RS.leftIsShock());
  EXPECT_TRUE(RS.rightIsShock());
  EXPECT_GT(RS.pStar(), 1.0);
}

TEST(ExactRiemann, MirrorSymmetryOfSampledSolution) {
  // Mirroring the data mirrors the solution: W(-s; L,R) == mirror of
  // W(s; mirror R, mirror L).
  Prim<1> L = prim(1.0, 0.3, 1.0), R = prim(0.5, -0.2, 0.4);
  Prim<1> Lm = prim(0.5, 0.2, 0.4), Rm = prim(1.0, -0.3, 1.0);
  ExactRiemannSolver A(L, R), B(Lm, Rm);
  ASSERT_TRUE(A.valid() && B.valid());
  EXPECT_NEAR(A.pStar(), B.pStar(), 1e-10);
  EXPECT_NEAR(A.uStar(), -B.uStar(), 1e-10);
  for (double S : {-1.5, -0.7, -0.1, 0.0, 0.2, 0.9, 1.8}) {
    Prim<1> Wa = A.sample(S);
    Prim<1> Wb = B.sample(-S);
    EXPECT_NEAR(Wa.Rho, Wb.Rho, 1e-9);
    EXPECT_NEAR(Wa.Vel[0], -Wb.Vel[0], 1e-9);
    EXPECT_NEAR(Wa.P, Wb.P, 1e-9);
  }
}

TEST(ExactRiemann, DetectsVacuumGeneration) {
  // Receding streams too fast for the pressure to stay positive.
  ExactRiemannSolver RS(prim(1.0, -20.0, 0.4), prim(1.0, 20.0, 0.4));
  EXPECT_FALSE(RS.valid());
}

TEST(ExactRiemann, RejectsUnphysicalInput) {
  EXPECT_FALSE(ExactRiemannSolver(prim(-1.0, 0.0, 1.0),
                                  prim(1.0, 0.0, 1.0)).valid());
  EXPECT_FALSE(ExactRiemannSolver(prim(1.0, 0.0, 0.0),
                                  prim(1.0, 0.0, 1.0)).valid());
}

TEST(ExactRiemann, TrivialProblemReturnsConstantState) {
  Prim<1> W = prim(0.7, 1.3, 2.1);
  ExactRiemannSolver RS(W, W);
  ASSERT_TRUE(RS.valid());
  EXPECT_NEAR(RS.pStar(), 2.1, 1e-10);
  EXPECT_NEAR(RS.uStar(), 1.3, 1e-10);
  for (double S : {-5.0, 0.0, 1.3, 5.0}) {
    Prim<1> Out = RS.sample(S);
    EXPECT_NEAR(Out.Rho, 0.7, 1e-9);
    EXPECT_NEAR(Out.Vel[0], 1.3, 1e-9);
    EXPECT_NEAR(Out.P, 2.1, 1e-9);
  }
}
