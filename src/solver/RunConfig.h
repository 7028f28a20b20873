//===- solver/RunConfig.h - Unified run configuration ----------*- C++ -*-===//
//
// Part of SacFD, a reproduction of "Numerical Simulations of Unsteady Shock
// Wave Interactions Using SaC and Fortran-90" (PaCT 2009).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One struct holding everything that shapes a solver run — scheme,
/// engine, backend, schedule/tile, step guard and telemetry — with one
/// shared CLI surface, so examples and benches stop re-assembling these
/// options from their own flag-parsing code.
///
/// Usage pattern:
/// \code
///   RunConfig Cfg;                       // or preset Cfg.Scheme first
///   CommandLine CL("tool", "...");
///   Cfg.registerAll(CL);                 // or the granular register*()
///   if (!CL.parse(Argc, Argv))
///     return CL.helpRequested() ? 0 : 1;
///   Cfg.resolveOrExit();                 // typed fields ready, telemetry on
///   auto Run = makeSolverRun<2>(Prob, Cfg);   // SolverFactory.h
/// \endcode
///
/// resolve() rejects malformed values (including --schedule and --tile
/// specs) with a structured error naming the flag and the accepted
/// grammar — there is no silent fall-back to defaults.
///
/// RunConfig lives in the solver library rather than support because it
/// aggregates SchemeConfig/GuardOptions (solver) and TelemetryOptions
/// (telemetry); support sits below both and cannot name those types.
///
//===----------------------------------------------------------------------===//

#ifndef SACFD_SOLVER_RUNCONFIG_H
#define SACFD_SOLVER_RUNCONFIG_H

#include "array/Layout.h"
#include "runtime/Runtime.h"
#include "solver/CheckpointOptions.h"
#include "solver/GuardOptions.h"
#include "solver/SchemeConfig.h"
#include "support/CommandLine.h"
#include "telemetry/TelemetryOptions.h"

#include <memory>
#include <optional>
#include <string>
#include <string_view>

namespace sacfd {

/// Which solver engine executes the run (the paper's two ports plus the
/// unoptimized-SaC ablation mode).
enum class EngineKind {
  /// SaC with-loop engine, fused evaluation (ArraySolver, Fused).
  Array,
  /// SaC engine with every intermediate materialized (ablation A1).
  ArrayMaterialized,
  /// Fortran-style loop-nest engine (FusedSolver).
  Fused,
};

/// \returns the stable name used in reports and the --engine flag.
const char *engineKindName(EngineKind Kind);

/// Parses "array", "array-materialized"/"materialized", "fused".
std::optional<EngineKind> parseEngineKind(std::string_view Text);

/// The full run-shaping configuration of a SacFD tool.
struct RunConfig {
  /// Numerical scheme; preset this (e.g. SchemeConfig::benchmarkScheme())
  /// before registering flags and the CLI defaults follow.
  SchemeConfig Scheme = SchemeConfig::figureScheme();
  EngineKind Engine = EngineKind::Array;
  BackendKind Backend = BackendKind::SpinPool;
  /// Worker threads; defaults to defaultThreadCount().
  unsigned Threads;
  /// 1D iteration schedule (honored by the fork-join backend).
  Schedule Sched = Schedule::staticBlock();
  /// Rank-2 tiling policy for parallelFor2D (off = legacy row flattening).
  Tile TileCfg = Tile::off();
  GuardCliOptions Guard;
  TelemetryCliOptions Telemetry;
  CheckpointCliOptions Checkpoint;
  /// The solver's FieldPool always recycles stage temporaries (the
  /// zero-allocation hot path).  Kept as a constant so reports can name
  /// it; not settable.
  static constexpr bool Pooling = true;
  /// Conserved-field memory layout: per-component SoA planes, always.
  /// Kept as a constant so reports can name it; not settable.
  static constexpr Layout FieldLayout = Layout::SoA;
  /// Whether the per-TU vectorized kernel build runs the contiguous
  /// inner loops (--no-simd turns it off).  The scalar and SIMD builds
  /// are bit-identical by construction; the flag exists for ablation
  /// (A8) and for bisecting miscompiles.
  bool Simd = true;

  RunConfig();

  /// Binds --recon, --limiter, --riemann, --integrator, --cfl.
  void registerSchemeFlags(CommandLine &CL);
  /// Binds --scenario (workload selector, `name[:key=val,...]` — see
  /// solver/Scenario.h).  resolve() validates the spec against the
  /// registry and applies the scenario's recommended scheme tuning to
  /// any scheme knob the user did not set explicitly.
  void registerScenarioFlag(CommandLine &CL);
  /// Binds --engine.
  void registerEngineFlag(CommandLine &CL);
  /// Binds --backend and --threads.
  void registerBackendFlags(CommandLine &CL);
  /// Binds --schedule and --tile.
  void registerScheduleFlags(CommandLine &CL);
  /// Binds --no-simd.
  void registerSimdFlag(CommandLine &CL);
  /// Binds the step-guard flag group (see GuardOptions.h).
  void registerGuardFlags(CommandLine &CL) { Guard.registerWith(CL); }
  /// Binds the telemetry flag group (see TelemetryOptions.h).
  void registerTelemetryFlags(CommandLine &CL) { Telemetry.registerWith(CL); }
  /// Binds the durability flag group (see CheckpointOptions.h).
  void registerCheckpointFlags(CommandLine &CL) { Checkpoint.registerWith(CL); }
  /// Binds every flag group above.
  void registerAll(CommandLine &CL);

  /// Resolves the staged flag strings into the typed fields.  \returns
  /// false with a structured message in \p Error on any malformed value
  /// (unknown kind names, bad schedule/tile specs).  Only flag groups
  /// that were registered are resolved.
  bool resolve(std::string &Error);

  /// resolve() + reportFatalError on failure, then enables telemetry per
  /// the parsed flags.  The convenience path for tools.
  void resolveOrExit();

  /// Builds the configured backend (threads, schedule, tile installed).
  /// \returns nullptr only for an OpenMP request in a non-OpenMP build.
  std::unique_ptr<sacfd::Backend> makeBackend() const;

  /// One-line description of the execution setup for reports, e.g.
  /// "array/spin-pool(4) tile=32x128".
  std::string executionStr() const;

  /// True when a --scenario spec was given (or seeded via
  /// setScenarioSpec).  Tools route through
  /// SolverFactory.h resolveProblem() to honor it.
  bool hasScenario() const { return !ScenarioSpecText.empty(); }
  /// The raw spec text (validated by resolve(); parsed again by
  /// resolveProblem(), which owns the value errors).
  const std::string &scenarioSpecText() const { return ScenarioSpecText; }
  /// Seeds the spec without a CommandLine (tests, embedding code).
  void setScenarioSpec(std::string Spec) {
    ScenarioSpecText = std::move(Spec);
  }

  /// True when the user passed --\p Flag explicitly on the bound command
  /// line (false when no CommandLine was ever bound).
  bool flagWasSet(std::string_view Flag) const;

private:
  // CLI staging: registrars seed these from the current typed values (so
  // --help shows real defaults) and resolve() parses them back.
  std::string ReconName;
  std::string LimiterName;
  std::string RiemannName;
  std::string IntegratorName;
  std::string EngineName;
  std::string BackendName;
  std::string ScheduleSpec;
  std::string TileSpec;
  std::string ScenarioSpecText;
  bool NoSimdFlag = false;
  /// The CommandLine the register*() calls bound to, for
  /// flagWasSet() — scenario tuning must lose to explicit user flags.
  const CommandLine *BoundCL = nullptr;
};

} // namespace sacfd

#endif // SACFD_SOLVER_RUNCONFIG_H
