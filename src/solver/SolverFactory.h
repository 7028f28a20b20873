//===- solver/SolverFactory.h - RunConfig -> ready-to-run solver *- C++ -*-===//
//
// Part of SacFD, a reproduction of "Numerical Simulations of Unsteady Shock
// Wave Interactions Using SaC and Fortran-90" (PaCT 2009).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The supported way to build a solver: makeSolverRun() turns a Problem
/// plus a RunConfig into a SolverRun owning the backend, the engine and
/// (when enabled) the step guard, with fault injection already armed.
/// Direct EulerSolver construction remains available for library code and
/// tests, but tools should go through the factory so every example and
/// bench honors the same flags the same way.
///
/// SolverRun's advance calls route through the guard automatically when
/// one is configured, so call sites need no `if (guard)` forks.  The
/// emergency-checkpoint callback is io's job (io links against solver,
/// not the reverse) — see io/RunIo.h installEmergencyCheckpoint().
///
/// Periodic checkpointing follows the same layering: io installs an
/// opaque hook via setPeriodicCheckpoint() (see io/RunIo.h
/// setupDurableRun()), and the advance calls fire it every N accepted
/// steps.  There is one loop per entry point, hooked or not: each pass
/// runs one guard window or one step-rule entry (solver/StepRule.h),
/// then offers the hook a checkpoint, so durable runs are bit-identical
/// to plain ones — the property the kill-and-resume tests assert.
///
//===----------------------------------------------------------------------===//

#ifndef SACFD_SOLVER_SOLVERFACTORY_H
#define SACFD_SOLVER_SOLVERFACTORY_H

#include "solver/ArraySolver.h"
#include "solver/FusedSolver.h"
#include "solver/RunConfig.h"
#include "solver/Scenario.h"
#include "solver/StepGuard.h"
#include "support/Error.h"

#include <cstdio>
#include <functional>
#include <limits>
#include <memory>
#include <utility>

namespace sacfd {

/// A ready-to-run solver with its backend and optional step guard.
/// Movable (everything it owns lives on the heap, so the guard's
/// reference into the solver stays valid), not copyable.
template <unsigned Dim> class SolverRun {
public:
  SolverRun(Problem<Dim> Prob, const RunConfig &Config) : Cfg(Config) {
    Exec = Cfg.makeBackend();
    if (!Exec)
      reportFatalError("backend not available in this build");
    switch (Cfg.Engine) {
    case EngineKind::Array:
      Solver = std::make_unique<ArraySolver<Dim>>(
          std::move(Prob), Cfg.Scheme, *Exec, ArrayEvalMode::Fused, Cfg.Simd);
      break;
    case EngineKind::ArrayMaterialized:
      Solver = std::make_unique<ArraySolver<Dim>>(
          std::move(Prob), Cfg.Scheme, *Exec, ArrayEvalMode::Materialized,
          Cfg.Simd);
      break;
    case EngineKind::Fused:
      Solver = std::make_unique<FusedSolver<Dim>>(std::move(Prob), Cfg.Scheme,
                                                  *Exec, Cfg.Simd);
      break;
    }
    if (Cfg.Guard.Enabled) {
      Guard = std::make_unique<StepGuard<Dim>>(*Solver, Cfg.Guard.config());
      Cfg.Guard.armFaults(*Guard);
    }
  }

  const RunConfig &config() const { return Cfg; }
  EulerSolver<Dim> &solver() { return *Solver; }
  const EulerSolver<Dim> &solver() const { return *Solver; }
  Backend &backend() { return *Exec; }
  const Backend &backend() const { return *Exec; }

  /// The step guard, or nullptr when --guard was not given.
  StepGuard<Dim> *guard() { return Guard.get(); }
  const StepGuard<Dim> *guard() const { return Guard.get(); }

  bool guarded() const { return Guard != nullptr; }

  /// \returns true when the guard has terminally failed the run.
  bool failed() const { return Guard && Guard->failed(); }

  /// Installs a periodic checkpoint: during advanceTo/advanceSteps,
  /// \p Hook fires after every \p EverySteps accepted steps (measured
  /// from the current step count; \p EverySteps 0 or a null hook
  /// disables).  The hook must not mutate the solver — it snapshots it.
  /// Installed by io/RunIo.h setupDurableRun(), not by tools directly.
  void setPeriodicCheckpoint(unsigned EverySteps, std::function<void()> Hook) {
    CkptEvery = EverySteps;
    CkptHook = std::move(Hook);
    LastCkptStep = Solver->stepCount();
  }

  /// Advances to \p EndTime (guarded when configured).  \returns false
  /// on terminal guard failure.
  bool advanceTo(double EndTime) {
    while (!failed() && Solver->time() < EndTime)
      stepToward(EndTime);
    return !failed();
  }

  /// Advances exactly \p N steps (guarded when configured).  \returns
  /// false on terminal guard failure.
  bool advanceSteps(unsigned N) {
    const unsigned Target = Solver->stepCount() + N;
    while (!failed() && Solver->stepCount() < Target)
      stepToward(std::numeric_limits<double>::infinity());
    return !failed();
  }

  /// Prints the guard summary and per-breakdown reports to stdout; no-op
  /// without a guard.
  void printGuardReport() const {
    if (!Guard)
      return;
    std::printf("%s\n", Guard->summary().c_str());
    for (const BreakdownReport &R : Guard->reports())
      std::printf("  %s\n", R.str().c_str());
  }

private:
  /// One guard window, or one step-rule entry, toward \p EndTime; then
  /// the periodic checkpoint when it is due.
  void stepToward(double EndTime) {
    if (Guard)
      Guard->advanceWindow(EndTime);
    else
      Solver->apply(nextStep(Solver->time(), EndTime,
                             [this] { return Solver->computeDt(); }));
    if (CkptHook && CkptEvery > 0 &&
        Solver->stepCount() >= LastCkptStep + CkptEvery) {
      CkptHook();
      LastCkptStep = Solver->stepCount();
    }
  }

  RunConfig Cfg;
  std::unique_ptr<Backend> Exec;
  std::unique_ptr<EulerSolver<Dim>> Solver;
  std::unique_ptr<StepGuard<Dim>> Guard;
  unsigned CkptEvery = 0;
  unsigned LastCkptStep = 0;
  std::function<void()> CkptHook;
};

/// Builds the configured backend + engine + guard for \p Prob.  Fatal
/// error (not a return code) when the configured backend is unavailable
/// in this build, matching tool behavior.
template <unsigned Dim>
SolverRun<Dim> makeSolverRun(Problem<Dim> Prob, const RunConfig &Cfg) {
  return SolverRun<Dim>(std::move(Prob), Cfg);
}

/// The workload a tool should actually run: \p Default when no
/// --scenario was given, otherwise the problem the scenario registry
/// builds for the spec (cells override, scheme-sized ghost layers,
/// EndTime validated).  Fatal error with the registry's structured
/// message on an unknown scenario, a rank mismatch, or bad parameter
/// values — matching the tools' treatment of other malformed flags.
template <unsigned Dim>
Problem<Dim> resolveProblem(Problem<Dim> Default, const RunConfig &Cfg) {
  if (!Cfg.hasScenario())
    return Default;
  SpecParse<ScenarioSpec> Spec =
      ScenarioSpec::parse(Cfg.scenarioSpecText());
  if (!Spec)
    reportFatalError(("--scenario: " + Spec.Error).c_str());
  SpecParse<Problem<Dim>> Built =
      ScenarioRegistry::instance().buildProblem<Dim>(*Spec.Value,
                                                     Cfg.Scheme);
  if (!Built)
    reportFatalError(("--scenario: " + Built.Error).c_str());
  return std::move(*Built.Value);
}

} // namespace sacfd

#endif // SACFD_SOLVER_SOLVERFACTORY_H
