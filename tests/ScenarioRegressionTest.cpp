//===- tests/ScenarioRegressionTest.cpp - Workload gallery regression ------===//
//
// The scenario registry's three contracts:
//   1. the spec grammar and registry lookups fail with structured errors
//      (never a silent fallback),
//   2. every registered scenario's pinned run reproduces its checked-in
//      reference hash on BOTH engines (the regression matrix), and
//   3. factories that forget an end time are rejected (the old
//      EndTime-defaults-to-1.0 hole stays closed).
//
//===----------------------------------------------------------------------===//

#include "solver/Problems.h"
#include "solver/RunConfig.h"
#include "solver/Scenario.h"
#include "solver/SolverFactory.h"
#include "support/CommandLine.h"

#include <gtest/gtest.h>

using namespace sacfd;

//===----------------------------------------------------------------------===//
// Spec grammar
//===----------------------------------------------------------------------===//

TEST(ScenarioSpec, ParsesNameOnly) {
  SpecParse<ScenarioSpec> S = ScenarioSpec::parse("sod");
  ASSERT_TRUE(S);
  EXPECT_EQ(S.Value->Name, "sod");
  EXPECT_TRUE(S.Value->Params.empty());
}

TEST(ScenarioSpec, ParsesParameters) {
  SpecParse<ScenarioSpec> S =
      ScenarioSpec::parse("riemann2d:config=3,cells=64");
  ASSERT_TRUE(S);
  EXPECT_EQ(S.Value->Name, "riemann2d");
  ASSERT_EQ(S.Value->Params.size(), 2u);
  ASSERT_NE(S.Value->find("config"), nullptr);
  EXPECT_EQ(*S.Value->find("config"), "3");
  EXPECT_EQ(*S.Value->find("cells"), "64");
  EXPECT_EQ(S.Value->str(), "riemann2d:config=3,cells=64");
}

TEST(ScenarioSpec, StructuredErrors) {
  struct Row {
    const char *Spec;
    const char *ErrorPiece;
  };
  const Row Rows[] = {
      {"", "empty scenario spec"},
      {"Sod", "bad scenario name"},
      {"sod tube", "bad scenario name"},
      {"sod:", "empty parameter list"},
      {"sedov:", "empty parameter list"},
      {"sod:cells", "not key=value"},
      {"sod:cells=", "empty value"},
      {"sod:=3", "bad parameter key"},
      {"sod:cells=3,cells=4", "duplicate parameter"},
      // A trailing or doubled comma makes an *empty segment*; the error
      // must name the offending segment instead of silently dropping it
      // (the old substr loop swallowed trailing commas).
      {"sedov:cells=64,", "empty parameter segment 2 (trailing ',')"},
      {"sod:cells=64,,ghost=2", "empty parameter segment 2 (before ',')"},
      {"sod:,cells=64", "empty parameter segment 1 (before ',')"},
  };
  for (const Row &R : Rows) {
    SpecParse<ScenarioSpec> S = ScenarioSpec::parse(R.Spec);
    EXPECT_FALSE(S) << R.Spec;
    EXPECT_NE(S.Error.find(R.ErrorPiece), std::string::npos)
        << "spec '" << R.Spec << "' produced: " << S.Error;
  }
}

//===----------------------------------------------------------------------===//
// Registry contents and lookups
//===----------------------------------------------------------------------===//

TEST(ScenarioRegistry, GalleryIsFullyPopulated) {
  const ScenarioRegistry &R = ScenarioRegistry::instance();
  // The acceptance floor: at least 9 scenarios, including the migrated
  // classics and the four new workloads.
  EXPECT_GE(R.infos().size(), 9u);
  for (const char *Name :
       {"sod", "lax", "shu-osher", "blast-waves", "moving-contact",
        "smooth-advection", "uniform-1d"})
    EXPECT_EQ(R.dimOf(Name), 1u) << Name;
  for (const char *Name :
       {"shock-interaction", "riemann2d", "smooth-advection-2d",
        "isentropic-vortex", "uniform-2d", "sedov", "double-mach",
        "shock-bubble"})
    EXPECT_EQ(R.dimOf(Name), 2u) << Name;
}

TEST(ScenarioRegistry, UnknownNameListsKnownScenarios) {
  SpecParse<ScenarioSpec> Spec = ScenarioSpec::parse("not-a-scenario");
  ASSERT_TRUE(Spec);
  SpecParse<ScenarioSpec> V =
      ScenarioRegistry::instance().validate(*Spec.Value);
  ASSERT_FALSE(V);
  EXPECT_NE(V.Error.find("unknown scenario 'not-a-scenario'"),
            std::string::npos)
      << V.Error;
  EXPECT_NE(V.Error.find("sod"), std::string::npos) << V.Error;
  EXPECT_NE(V.Error.find("double-mach"), std::string::npos) << V.Error;
}

TEST(ScenarioRegistry, RankMismatchIsStructured) {
  SpecParse<ScenarioSpec> Spec = ScenarioSpec::parse("sod");
  ASSERT_TRUE(Spec);
  SpecParse<Problem<2>> P = ScenarioRegistry::instance().buildProblem<2>(
      *Spec.Value, SchemeConfig::figureScheme());
  ASSERT_FALSE(P);
  EXPECT_NE(P.Error.find("1D workload"), std::string::npos) << P.Error;
}

TEST(ScenarioRegistry, UndeclaredKeyIsStructured) {
  SpecParse<ScenarioSpec> Spec = ScenarioSpec::parse("sod:mach=3");
  ASSERT_TRUE(Spec);
  SpecParse<ScenarioSpec> V =
      ScenarioRegistry::instance().validate(*Spec.Value);
  ASSERT_FALSE(V);
  EXPECT_NE(V.Error.find("does not accept parameter 'mach'"),
            std::string::npos)
      << V.Error;
  EXPECT_NE(V.Error.find("cells"), std::string::npos) << V.Error;
}

TEST(ScenarioRegistry, BuildHonorsCellsAndGhost) {
  SpecParse<ScenarioSpec> Spec = ScenarioSpec::parse("sod:cells=123");
  ASSERT_TRUE(Spec);
  SchemeConfig Weno5 = SchemeConfig::figureScheme();
  Weno5.Recon = ReconstructionKind::Weno5;
  SpecParse<Problem<1>> P =
      ScenarioRegistry::instance().buildProblem<1>(*Spec.Value, Weno5);
  ASSERT_TRUE(P) << P.Error;
  EXPECT_EQ(P.Value->Domain.cells(0), 123u);
  EXPECT_EQ(P.Value->Domain.ghost(), ghostCells(ReconstructionKind::Weno5));
  EXPECT_TRUE(P.Value->hasEndTime());
}

TEST(ScenarioRegistry, BadParameterValuesAreStructured) {
  struct Row {
    const char *Spec;
    const char *ErrorPiece;
  };
  const Row Rows[] = {
      {"riemann2d:config=7", "unsupported config 7"},
      {"riemann2d:config=abc", "non-negative integer"},
      {"shock-interaction:ms=0.5", "ms must be >= 1"},
      {"shock-interaction:ms=fast", "wants a number"},
      {"sod:cells=0", "cells must be positive"},
      {"sod:cells=-4", "non-negative integer"},
  };
  for (const Row &R : Rows) {
    SpecParse<ScenarioSpec> Spec = ScenarioSpec::parse(R.Spec);
    ASSERT_TRUE(Spec) << R.Spec;
    std::string Error;
    if (Spec.Value->Name == "sod") {
      SpecParse<Problem<1>> P = ScenarioRegistry::instance().buildProblem<1>(
          *Spec.Value, SchemeConfig::figureScheme());
      EXPECT_FALSE(P) << R.Spec;
      Error = P.Error;
    } else {
      SpecParse<Problem<2>> P = ScenarioRegistry::instance().buildProblem<2>(
          *Spec.Value, SchemeConfig::figureScheme());
      EXPECT_FALSE(P) << R.Spec;
      Error = P.Error;
    }
    EXPECT_NE(Error.find(R.ErrorPiece), std::string::npos)
        << "spec '" << R.Spec << "' produced: " << Error;
  }
}

TEST(ScenarioRegistry, Riemann2dConfig3Builds) {
  SpecParse<ScenarioSpec> Spec = ScenarioSpec::parse("riemann2d:config=3");
  ASSERT_TRUE(Spec);
  SpecParse<Problem<2>> P = ScenarioRegistry::instance().buildProblem<2>(
      *Spec.Value, SchemeConfig::figureScheme());
  ASSERT_TRUE(P) << P.Error;
  EXPECT_EQ(P.Value->Name, "riemann-2d-c3");
  EXPECT_DOUBLE_EQ(P.Value->EndTime, 0.3);
  // Lax-Liu config 3 SW quadrant.
  EXPECT_NEAR(P.Value->InitialState({0.25, 0.25}).Rho, 0.138, 1e-12);
}

//===----------------------------------------------------------------------===//
// EndTime enforcement + registrar extensibility
//===----------------------------------------------------------------------===//

namespace {

Scenario<1> endTimelessScenario() {
  Scenario<1> S;
  S.Name = "test-endtimeless";
  S.Summary = "factory that forgets EndTime (must be rejected)";
  S.DefaultCells = 8;
  S.Build = [](const ScenarioArgs &A) {
    Problem<1> P = sodProblem(A.cells(), A.ghostLayers());
    P.EndTime = 0.0; // the bug under test
    return SpecParse<Problem<1>>::ok(std::move(P));
  };
  return S;
}

// Out-of-tree registration path: a static registrar object.
ScenarioRegistrar<1> TestRegistrar(endTimelessScenario());

} // namespace

TEST(ScenarioRegistry, RegistrarRegistersAtStaticInit) {
  EXPECT_EQ(ScenarioRegistry::instance().dimOf("test-endtimeless"), 1u);
}

TEST(ScenarioRegistry, MissingEndTimeIsRejected) {
  SpecParse<ScenarioSpec> Spec = ScenarioSpec::parse("test-endtimeless");
  ASSERT_TRUE(Spec);
  SpecParse<Problem<1>> P = ScenarioRegistry::instance().buildProblem<1>(
      *Spec.Value, SchemeConfig::figureScheme());
  ASSERT_FALSE(P);
  EXPECT_NE(P.Error.find("without an end time"), std::string::npos)
      << P.Error;
}

TEST(Problem, EndTimeDefaultsToUnset) {
  Problem<1> P;
  EXPECT_FALSE(P.hasEndTime());
  P.EndTime = 0.2;
  EXPECT_TRUE(P.hasEndTime());
}

//===----------------------------------------------------------------------===//
// RunConfig integration (--scenario flag)
//===----------------------------------------------------------------------===//

namespace {

bool parseAndResolve(RunConfig &Cfg, std::vector<const char *> Argv,
                     std::string &Error) {
  Argv.insert(Argv.begin(), "test");
  CommandLine CL("test", "scenario test tool");
  Cfg.registerAll(CL);
  if (!CL.parse(static_cast<int>(Argv.size()), Argv.data()))
    return false;
  return Cfg.resolve(Error);
}

} // namespace

TEST(ScenarioRunConfig, ResolveRejectsMalformedAndUnknownSpecs) {
  for (const char *Spec : {"sod:", "nope", "sod:mach=3"}) {
    RunConfig Cfg;
    std::string Error;
    EXPECT_FALSE(parseAndResolve(Cfg, {"--scenario", Spec}, Error)) << Spec;
    EXPECT_NE(Error.find("--scenario"), std::string::npos) << Error;
  }
}

TEST(ScenarioRunConfig, TuningAppliesUnlessUserOverrides) {
  {
    RunConfig Cfg;
    std::string Error;
    ASSERT_TRUE(parseAndResolve(Cfg, {"--scenario", "sedov"}, Error))
        << Error;
    EXPECT_DOUBLE_EQ(Cfg.Scheme.Cfl, 0.3); // sedov's recommended CFL
  }
  {
    RunConfig Cfg;
    std::string Error;
    ASSERT_TRUE(parseAndResolve(
        Cfg, {"--scenario", "sedov", "--cfl", "0.45"}, Error))
        << Error;
    EXPECT_DOUBLE_EQ(Cfg.Scheme.Cfl, 0.45); // explicit flag wins
  }
}

TEST(ScenarioRunConfig, ResolveProblemSwapsWorkload) {
  RunConfig Cfg;
  std::string Error;
  ASSERT_TRUE(
      parseAndResolve(Cfg, {"--scenario", "lax:cells=48"}, Error))
      << Error;
  ASSERT_TRUE(Cfg.hasScenario());
  Problem<1> P = resolveProblem(sodProblem(100), Cfg);
  EXPECT_EQ(P.Name, "lax");
  EXPECT_EQ(P.Domain.cells(0), 48u);

  RunConfig NoScenario;
  ASSERT_TRUE(parseAndResolve(NoScenario, {}, Error)) << Error;
  EXPECT_EQ(resolveProblem(sodProblem(100), NoScenario).Name, "sod");
}

//===----------------------------------------------------------------------===//
// The pinned regression matrix
//===----------------------------------------------------------------------===//

TEST(ScenarioRegression, PinnedRunsMatchReferenceOnBothEngines) {
  const ScenarioRegistry &R = ScenarioRegistry::instance();
  for (const ScenarioInfo &Info : R.infos()) {
    if (Info.Name.rfind("test-", 0) == 0)
      continue; // shadow scenarios registered by this binary
    ASSERT_TRUE(Info.Reference.has_value())
        << "scenario '" << Info.Name << "' has no checked-in reference; "
        << rebaselineHint();
    for (EngineKind Engine : {EngineKind::Array, EngineKind::Fused}) {
      SpecParse<PinnedResult> Run = runPinnedScenario(Info.Name, Engine);
      ASSERT_TRUE(Run) << Run.Error;
      EXPECT_EQ(Run.Value->Hash, *Info.Reference)
          << "scenario '" << Info.Name << "' on engine "
          << engineKindName(Engine)
          << " diverged from the pinned reference; if the numerics "
          << "change is intentional, " << rebaselineHint();
      EXPECT_TRUE(Run.Value->matched()) << Info.Name;
      EXPECT_GT(Run.Value->Time, 0.0) << Info.Name;
      EXPECT_EQ(Run.Value->Steps, Info.Pinned.Steps) << Info.Name;
    }
  }
}

TEST(ScenarioRegression, PinnedHashesUnchangedUnderSoALayout) {
  // The pinned references predate the SoA-only field layout: they were
  // recorded on interleaved records with the reference flux loop.  The
  // default runs above cover the SoA field with the SIMD kernels; this
  // one pins the scalar kernel build on the same planes, on both
  // engines.  A divergence means the planes or a kernel build changed
  // the numerics.
  const ScenarioRegistry &R = ScenarioRegistry::instance();
  for (const ScenarioInfo &Info : R.infos()) {
    if (Info.Name.rfind("test-", 0) == 0)
      continue;
    ASSERT_TRUE(Info.Reference.has_value()) << Info.Name;
    for (EngineKind Engine : {EngineKind::Array, EngineKind::Fused}) {
      SpecParse<PinnedResult> Run =
          runPinnedScenario(Info.Name, Engine, /*Simd=*/false);
      ASSERT_TRUE(Run) << Run.Error;
      EXPECT_EQ(Run.Value->Hash, *Info.Reference)
          << "scenario '" << Info.Name << "' on engine "
          << engineKindName(Engine)
          << " with scalar kernels diverged from the pinned reference";
    }
  }
}

TEST(ScenarioRegression, FieldStateHashDiscriminates) {
  // Different scenarios and different step counts produce different
  // hashes (FNV over the full field + clock).
  SpecParse<PinnedResult> Sod =
      runPinnedScenario("sod", EngineKind::Array);
  SpecParse<PinnedResult> Lax =
      runPinnedScenario("lax", EngineKind::Array);
  ASSERT_TRUE(Sod);
  ASSERT_TRUE(Lax);
  EXPECT_NE(Sod.Value->Hash, Lax.Value->Hash);
}
