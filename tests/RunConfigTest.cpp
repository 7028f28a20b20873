//===- tests/RunConfigTest.cpp - Unified run configuration tests ----------===//
//
// RunConfig is the single flag surface every tool shares; these tests pin
// the contract: staged strings resolve into typed fields, malformed
// values produce structured errors naming the flag (never a silent
// default), and makeBackend() installs threads/schedule/tile on the
// backend it builds.
//
//===----------------------------------------------------------------------===//

#include "solver/RunConfig.h"
#include "solver/SolverFactory.h"
#include "solver/Problems.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace sacfd;

namespace {

/// Registers all RunConfig flags, parses \p Args as a command line, and
/// resolves.  \returns the resolve() outcome; the error lands in *Error.
bool parseAndResolve(RunConfig &Cfg, std::vector<const char *> Args,
                     std::string *Error = nullptr) {
  CommandLine CL("RunConfigTest", "test tool");
  Cfg.registerAll(CL);
  Args.insert(Args.begin(), "RunConfigTest");
  if (!CL.parse(static_cast<int>(Args.size()), Args.data()))
    return false;
  std::string Local;
  return Cfg.resolve(Error ? *Error : Local);
}

} // namespace

TEST(EngineKind, NamesRoundTripThroughParse) {
  for (EngineKind K : {EngineKind::Array, EngineKind::ArrayMaterialized,
                       EngineKind::Fused})
    EXPECT_EQ(parseEngineKind(engineKindName(K)), K);
  EXPECT_EQ(parseEngineKind("materialized"), EngineKind::ArrayMaterialized);
  EXPECT_FALSE(parseEngineKind("fortran").has_value());
}

TEST(RunConfigResolve, DefaultsResolveClean) {
  RunConfig Cfg;
  std::string Error;
  EXPECT_TRUE(parseAndResolve(Cfg, {}, &Error)) << Error;
  EXPECT_EQ(Cfg.Engine, EngineKind::Array);
  EXPECT_EQ(Cfg.Backend, BackendKind::SpinPool);
  EXPECT_FALSE(Cfg.TileCfg.Enabled);
  EXPECT_EQ(Cfg.Sched.K, Schedule::Kind::StaticBlock);
}

TEST(RunConfigResolve, ParsesEveryFlagGroup) {
  RunConfig Cfg;
  std::string Error;
  ASSERT_TRUE(parseAndResolve(
      Cfg,
      {"--recon", "tvd2", "--limiter", "superbee", "--riemann", "hll",
       "--integrator", "rk2", "--cfl", "0.5", "--engine", "fused",
       "--backend", "fork-join", "--threads", "3", "--schedule",
       "dynamic,4", "--tile", "16x64",
       "--guard", "--guard-every", "4", "--telemetry", "out.json"},
      &Error))
      << Error;
  EXPECT_EQ(Cfg.Scheme.Recon, ReconstructionKind::Tvd2);
  EXPECT_EQ(Cfg.Scheme.Limiter, LimiterKind::Superbee);
  EXPECT_EQ(Cfg.Scheme.Riemann, RiemannKind::Hll);
  EXPECT_EQ(Cfg.Scheme.Integrator, TimeIntegratorKind::SspRk2);
  EXPECT_DOUBLE_EQ(Cfg.Scheme.Cfl, 0.5);
  EXPECT_EQ(Cfg.Engine, EngineKind::Fused);
  EXPECT_EQ(Cfg.Backend, BackendKind::ForkJoin);
  EXPECT_EQ(Cfg.Threads, 3u);
  EXPECT_EQ(Cfg.Sched.K, Schedule::Kind::Dynamic);
  EXPECT_EQ(Cfg.Sched.ChunkSize, 4u);
  EXPECT_TRUE(Cfg.TileCfg.Enabled);
  EXPECT_EQ(Cfg.TileCfg.Rows, 16u);
  EXPECT_EQ(Cfg.TileCfg.Cols, 64u);
  EXPECT_TRUE(Cfg.Guard.Enabled);
  EXPECT_EQ(Cfg.Guard.Every, 4u);
  EXPECT_EQ(Cfg.Telemetry.Path, "out.json");
  EXPECT_EQ(Cfg.executionStr(), "fused/fork-join(3) tile=16x64");
}

TEST(RunConfigResolve, ParsesLayoutAndSimdFlags) {
  {
    RunConfig Cfg;
    std::string Error;
    ASSERT_TRUE(parseAndResolve(Cfg, {}, &Error)) << Error;
    EXPECT_EQ(Cfg.FieldLayout, Layout::SoA);
    EXPECT_TRUE(Cfg.Simd);
  }
  {
    RunConfig Cfg;
    std::string Error;
    ASSERT_TRUE(parseAndResolve(Cfg, {"--no-simd"}, &Error)) << Error;
    EXPECT_FALSE(Cfg.Simd);
    EXPECT_NE(Cfg.executionStr().find("no-simd"), std::string::npos);
    EXPECT_EQ(Cfg.executionStr().find("layout"), std::string::npos);
  }
}

TEST(SolverFactory, ThreadsLayoutAndSimdIntoTheEngine) {
  for (const char *Engine : {"array", "array-materialized", "fused"}) {
    RunConfig Cfg;
    std::string Error;
    ASSERT_TRUE(parseAndResolve(
        Cfg, {"--engine", Engine, "--no-simd", "--threads", "1"}, &Error))
        << Error;
    SolverRun<1> Run = makeSolverRun(sodProblem(16), Cfg);
    EXPECT_FALSE(Run.solver().simdEnabled()) << Engine;
    // The state field is SoA: unit-stride component planes, each
    // 64-byte aligned and padded apart.
    kernels::ConstRun<1> R = Run.solver().field().crun();
    EXPECT_EQ(R.Stride, 1) << Engine;
    size_t Plane = paddedCount(Run.solver().field().size());
    for (unsigned K = 0; K < NumVars<1>; ++K) {
      EXPECT_EQ(reinterpret_cast<uintptr_t>(R.C[K]) % kFieldAlign, 0u)
          << Engine;
      EXPECT_EQ(R.C[K], R.C[0] + K * Plane) << Engine;
    }
  }
}

TEST(RunConfigResolve, ParsesCheckpointFlagGroup) {
  RunConfig Cfg;
  std::string Error;
  ASSERT_TRUE(parseAndResolve(
      Cfg,
      {"--checkpoint-dir", "ckpts", "--checkpoint-every", "25",
       "--checkpoint-keep", "5", "--checkpoint-retries", "2",
       "--checkpoint-backoff-ms", "7", "--resume"},
      &Error))
      << Error;
  EXPECT_EQ(Cfg.Checkpoint.Dir, "ckpts");
  EXPECT_EQ(Cfg.Checkpoint.Every, 25u);
  EXPECT_EQ(Cfg.Checkpoint.Keep, 5u);
  EXPECT_EQ(Cfg.Checkpoint.RetryAttempts, 2u);
  EXPECT_EQ(Cfg.Checkpoint.RetryBackoffMs, 7u);
  EXPECT_TRUE(Cfg.Checkpoint.Resume);
  EXPECT_TRUE(Cfg.Checkpoint.periodic());
}

TEST(RunConfigResolve, CheckpointingIsOffByDefaultAndAtEveryZero) {
  RunConfig Cfg;
  std::string Error;
  ASSERT_TRUE(parseAndResolve(Cfg, {}, &Error)) << Error;
  EXPECT_TRUE(Cfg.Checkpoint.Dir.empty());
  EXPECT_FALSE(Cfg.Checkpoint.Resume);
  EXPECT_FALSE(Cfg.Checkpoint.periodic()) << "no dir, no periodic hook";

  RunConfig EveryZero;
  ASSERT_TRUE(parseAndResolve(
      EveryZero, {"--checkpoint-dir", "d", "--checkpoint-every", "0"},
      &Error))
      << Error;
  EXPECT_FALSE(EveryZero.Checkpoint.periodic()) << "--checkpoint-every 0";
}

TEST(RunConfigResolve, RejectsMalformedIoFaultSpecs) {
  for (const char *Bad : {"frob=1", "fail-write=0", "fail-rename=2"}) {
    RunConfig Cfg;
    std::string Error;
    EXPECT_FALSE(parseAndResolve(Cfg, {"--io-faults", Bad}, &Error)) << Bad;
    EXPECT_NE(Error.find("--io-faults"), std::string::npos)
        << "error for " << Bad << " was: " << Error;
  }
}

TEST(RunConfigResolve, RejectsBadValuesWithStructuredErrors) {
  struct BadCase {
    std::vector<const char *> Args;
    const char *MustMention;
  };
  const BadCase Cases[] = {
      {{"--recon", "weno9"}, "--recon"},
      {{"--limiter", "vanalbada"}, "--limiter"},
      {{"--riemann", "exact"}, "--riemann"},
      {{"--integrator", "rk4"}, "--integrator"},
      {{"--engine", "fortran"}, "--engine"},
      {{"--backend", "gpu"}, "--backend"},
      {{"--backend", "tasks"}, "--backend"},
      {{"--schedule", "guided"}, "--schedule"},
      {{"--schedule", "static,0"}, "--schedule"},
      {{"--tile", "0x4"}, "--tile"},
      {{"--tile", "huge"}, "--tile"},
      {{"--scenario", "sod:"}, "--scenario"},
      {{"--scenario", "no-such-workload"}, "--scenario"},
      {{"--scenario", "sod:mach=3"}, "--scenario"},
  };
  for (const BadCase &C : Cases) {
    RunConfig Cfg;
    std::string Error;
    EXPECT_FALSE(parseAndResolve(Cfg, C.Args, &Error))
        << C.Args[0] << " " << C.Args[1];
    EXPECT_NE(Error.find(C.MustMention), std::string::npos)
        << "error for " << C.Args[1] << " was: " << Error;
  }
}

TEST(RunConfigResolve, ScenarioSpecIsValidatedAndTuningApplied) {
  // A valid spec resolves, is kept verbatim for SolverFactory, and its
  // workload tuning fills scheme knobs the user left at defaults.
  RunConfig Cfg;
  std::string Error;
  ASSERT_TRUE(parseAndResolve(Cfg, {"--scenario", "blast-waves"}, &Error))
      << Error;
  EXPECT_TRUE(Cfg.hasScenario());
  EXPECT_EQ(Cfg.scenarioSpecText(), "blast-waves");
  EXPECT_DOUBLE_EQ(Cfg.Scheme.Cfl, 0.4); // blast-waves' recommended CFL

  // An explicit --cfl beats the scenario's recommendation.
  RunConfig Explicit;
  ASSERT_TRUE(parseAndResolve(
      Explicit, {"--scenario", "blast-waves", "--cfl", "0.5"}, &Error))
      << Error;
  EXPECT_DOUBLE_EQ(Explicit.Scheme.Cfl, 0.5);
}

TEST(RunConfigResolve, RejectsZeroThreadsWithStructuredError) {
  // 0 parses fine as an unsigned, so it reaches resolve() — which must
  // reject it by name instead of handing a zero-worker pool to a backend.
  RunConfig Cfg;
  std::string Error;
  EXPECT_FALSE(parseAndResolve(Cfg, {"--threads", "0"}, &Error));
  EXPECT_NE(Error.find("--threads"), std::string::npos) << Error;
}

TEST(RunConfigResolve, RejectsUnparseableUnsignedAtTheCliLayer) {
  // Trailing garbage, signs, overflow and empty values never reach
  // resolve(): the CLI layer itself refuses them.
  for (const char *Bad : {"4x", "-3", "+2", "99999999999999999999", "", " "}) {
    RunConfig Cfg;
    EXPECT_FALSE(parseAndResolve(Cfg, {"--threads", Bad}))
        << "'" << Bad << "' must not parse";
  }
}

TEST(RunConfigResolve, RetiredFlagsAreUnknownOptions) {
  // --layout (SoA is the only layout), --no-pool (pooling is always on),
  // --tile-dealing (tiles are dealt by the backend under --schedule),
  // --execution (spelled --backend) and --step-mode (one barrier per
  // loop nest is the only step shape) are not options; a stale script
  // naming one must fail loudly, like any other stray flag.
  const std::vector<const char *> Retired[] = {
      {"--layout", "soa"},
      {"--no-pool"},
      {"--tile-dealing", "dynamic"},
      {"--execution", "tasks"},
      {"--step-mode", "dag"},
  };
  for (const std::vector<const char *> &Args : Retired) {
    RunConfig Cfg;
    testing::internal::CaptureStderr();
    EXPECT_FALSE(parseAndResolve(Cfg, Args)) << Args[0];
    std::string Err = testing::internal::GetCapturedStderr();
    EXPECT_NE(Err.find(std::string("unknown option '") + Args[0] + "'"),
              std::string::npos)
        << Err;
  }
}

TEST(RunConfigBackend, InstallsThreadsScheduleAndTile) {
  RunConfig Cfg;
  std::string Error;
  ASSERT_TRUE(parseAndResolve(Cfg,
                              {"--backend", "fork-join", "--threads", "2",
                               "--tile", "8x32"},
                              &Error))
      << Error;
  auto B = Cfg.makeBackend();
  ASSERT_NE(B, nullptr);
  EXPECT_EQ(B->workerCount(), 2u);
  EXPECT_TRUE(B->tile().Enabled);
  EXPECT_EQ(B->tile().Rows, 8u);
  EXPECT_EQ(B->tile().Cols, 32u);
}

TEST(SolverFactory, BuildsEachEngine) {
  Problem<1> Prob = sodProblem(64);
  for (const char *Engine : {"array", "array-materialized", "fused"}) {
    RunConfig Cfg;
    std::string Error;
    ASSERT_TRUE(parseAndResolve(
        Cfg, {"--engine", Engine, "--backend", "serial"}, &Error))
        << Error;
    SolverRun<1> Run = makeSolverRun(Prob, Cfg);
    EXPECT_FALSE(Run.guarded());
    EXPECT_TRUE(Run.advanceSteps(3));
    EXPECT_EQ(Run.solver().stepCount(), 3u);
  }
}

TEST(SolverFactory, BuildsArmedGuard) {
  Problem<1> Prob = sodProblem(64);
  RunConfig Cfg;
  std::string Error;
  ASSERT_TRUE(parseAndResolve(Cfg,
                              {"--backend", "serial", "--guard",
                               "--poison-step", "2", "--poison-cells", "2"},
                              &Error))
      << Error;
  SolverRun<1> Run = makeSolverRun(Prob, Cfg);
  ASSERT_TRUE(Run.guarded());
  // The armed fault must fire and the guard must recover (floor stage).
  EXPECT_TRUE(Run.advanceSteps(6));
  EXPECT_FALSE(Run.failed());
  EXPECT_FALSE(Run.guard()->reports().empty());
}

TEST(SolverFactory, GuardedAdvanceRoutesThroughGuard) {
  Problem<1> Prob = sodProblem(64);
  RunConfig Cfg;
  std::string Error;
  ASSERT_TRUE(parseAndResolve(
      Cfg, {"--backend", "serial", "--guard", "--guard-every", "2"},
      &Error))
      << Error;
  SolverRun<1> Run = makeSolverRun(Prob, Cfg);
  EXPECT_TRUE(Run.advanceTo(0.01));
  EXPECT_GT(Run.solver().stepCount(), 0u);
  EXPECT_FALSE(Run.failed());
}
