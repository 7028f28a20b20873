//===- solver/RunConfig.cpp - Unified run configuration ------------------===//

#include "solver/RunConfig.h"

#include "solver/Scenario.h"
#include "support/Env.h"
#include "support/Error.h"
#include "support/StrUtil.h"

using namespace sacfd;

const char *sacfd::engineKindName(EngineKind Kind) {
  switch (Kind) {
  case EngineKind::Array:
    return "array";
  case EngineKind::ArrayMaterialized:
    return "array-materialized";
  case EngineKind::Fused:
    return "fused";
  }
  sacfdUnreachable("covered switch");
}

std::optional<EngineKind> sacfd::parseEngineKind(std::string_view Text) {
  std::string_view Name = trim(Text);
  if (equalsLower(Name, "array"))
    return EngineKind::Array;
  if (equalsLower(Name, "array-materialized") ||
      equalsLower(Name, "materialized"))
    return EngineKind::ArrayMaterialized;
  if (equalsLower(Name, "fused"))
    return EngineKind::Fused;
  return std::nullopt;
}

RunConfig::RunConfig() : Threads(defaultThreadCount()) {}

void RunConfig::registerSchemeFlags(CommandLine &CL) {
  ReconName = reconstructionKindName(Scheme.Recon);
  LimiterName = limiterKindName(Scheme.Limiter);
  RiemannName = riemannKindName(Scheme.Riemann);
  IntegratorName = timeIntegratorKindName(Scheme.Integrator);
  CL.addString("recon", ReconName, "pc1|tvd2|tvd3|weno3");
  CL.addString("limiter", LimiterName, "minmod|superbee|vanleer|mc");
  CL.addString("riemann", RiemannName, "rusanov|hll|hllc|roe");
  CL.addString("integrator", IntegratorName, "rk1|rk2|rk3");
  CL.addDouble("cfl", Scheme.Cfl, "CFL number");
  BoundCL = &CL;
}

void RunConfig::registerScenarioFlag(CommandLine &CL) {
  CL.addString("scenario", ScenarioSpecText,
               "workload selector: name[:key=val,...], e.g. "
               "riemann2d:config=3 or sedov:cells=400");
  BoundCL = &CL;
}

bool RunConfig::flagWasSet(std::string_view Flag) const {
  return BoundCL && BoundCL->wasSet(Flag);
}

void RunConfig::registerEngineFlag(CommandLine &CL) {
  EngineName = engineKindName(Engine);
  CL.addString("engine", EngineName,
               "array (SaC) | array-materialized | fused (Fortran)");
}

void RunConfig::registerBackendFlags(CommandLine &CL) {
  BackendName = backendKindName(Backend);
  CL.addString("backend", BackendName,
               "serial|spin-pool|fork-join|openmp");
  CL.addUnsigned("threads", Threads, "worker threads (>= 1)");
}

void RunConfig::registerScheduleFlags(CommandLine &CL) {
  ScheduleSpec = Sched.str();
  TileSpec = TileCfg.str();
  CL.addString("schedule", ScheduleSpec,
               "iteration schedule: static[,N] | dynamic[,N]");
  CL.addString("tile", TileSpec,
               "2D tiling: off | auto | RxC | N (NxN)");
}

void RunConfig::registerSimdFlag(CommandLine &CL) {
  CL.addFlag("no-simd", NoSimdFlag,
             "run the scalar kernel build (bit-identical; for ablation)");
}

void RunConfig::registerAll(CommandLine &CL) {
  registerSchemeFlags(CL);
  registerScenarioFlag(CL);
  registerEngineFlag(CL);
  registerBackendFlags(CL);
  registerScheduleFlags(CL);
  registerSimdFlag(CL);
  registerGuardFlags(CL);
  registerTelemetryFlags(CL);
  registerCheckpointFlags(CL);
}

bool RunConfig::resolve(std::string &Error) {
  auto Fail = [&Error](std::string Message) {
    Error = std::move(Message);
    return false;
  };

  if (!ReconName.empty()) {
    if (auto K = parseReconstructionKind(ReconName))
      Scheme.Recon = *K;
    else
      return Fail("unknown --recon value '" + ReconName +
                  "' (expected pc1|tvd2|tvd3|weno3)");
  }
  if (!LimiterName.empty()) {
    if (auto K = parseLimiterKind(LimiterName))
      Scheme.Limiter = *K;
    else
      return Fail("unknown --limiter value '" + LimiterName +
                  "' (expected minmod|superbee|vanleer|mc)");
  }
  if (!RiemannName.empty()) {
    if (auto K = parseRiemannKind(RiemannName))
      Scheme.Riemann = *K;
    else
      return Fail("unknown --riemann value '" + RiemannName +
                  "' (expected rusanov|hll|hllc|roe)");
  }
  if (!IntegratorName.empty()) {
    if (auto K = parseTimeIntegratorKind(IntegratorName))
      Scheme.Integrator = *K;
    else
      return Fail("unknown --integrator value '" + IntegratorName +
                  "' (expected rk1|rk2|rk3)");
  }
  if (!ScenarioSpecText.empty()) {
    SpecParse<ScenarioSpec> Spec = ScenarioSpec::parse(ScenarioSpecText);
    if (!Spec)
      return Fail("--scenario: " + Spec.Error);
    const ScenarioRegistry &Registry = ScenarioRegistry::instance();
    SpecParse<ScenarioSpec> Checked = Registry.validate(*Spec.Value);
    if (!Checked)
      return Fail("--scenario: " + Checked.Error);
    // Apply the scenario's recommended scheme tuning, but never over an
    // explicit user flag.
    if (const ScenarioTuning *T = Registry.tuningFor(Spec.Value->Name)) {
      if (T->Cfl && !flagWasSet("cfl"))
        Scheme.Cfl = *T->Cfl;
      if (T->Recon && !flagWasSet("recon"))
        Scheme.Recon = *T->Recon;
    }
  }
  if (!EngineName.empty()) {
    if (auto K = parseEngineKind(EngineName))
      Engine = *K;
    else
      return Fail("unknown --engine value '" + EngineName +
                  "' (expected array|array-materialized|fused)");
  }
  if (!BackendName.empty()) {
    if (auto K = parseBackendKind(BackendName))
      Backend = *K;
    else
      return Fail("unknown --backend value '" + BackendName +
                  "' (expected serial|spin-pool|fork-join|openmp)");
  }
  if (Threads == 0)
    return Fail("--threads must be at least 1 (0 workers cannot run "
                "anything; omit the flag for auto-detection)");
  if (!ScheduleSpec.empty()) {
    SpecParse<Schedule> P = Schedule::parseSpec(ScheduleSpec);
    if (!P)
      return Fail("--schedule: " + P.Error);
    Sched = *P.Value;
  }
  if (!TileSpec.empty()) {
    SpecParse<Tile> P = Tile::parseSpec(TileSpec);
    if (!P)
      return Fail("--tile: " + P.Error);
    TileCfg = *P.Value;
  }
  if (NoSimdFlag)
    Simd = false;
  if (!Checkpoint.resolve(Error))
    return false;
  return true;
}

void RunConfig::resolveOrExit() {
  std::string Error;
  if (!resolve(Error))
    reportFatalError(Error.c_str());
  Telemetry.apply();
}

std::unique_ptr<Backend> RunConfig::makeBackend() const {
  return createBackend(Backend, Threads, Sched, TileCfg);
}

std::string RunConfig::executionStr() const {
  std::string S = engineKindName(Engine);
  S += "/";
  S += backendKindName(Backend);
  S += "(" + std::to_string(Threads) + ")";
  if (TileCfg.Enabled)
    S += " tile=" + TileCfg.str();
  if (!Simd)
    S += " no-simd";
  return S;
}
