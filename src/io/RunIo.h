//===- io/RunIo.h - io wiring for factory-built solver runs ----*- C++ -*-===//
//
// Part of SacFD, a reproduction of "Numerical Simulations of Unsteady Shock
// Wave Interactions Using SaC and Fortran-90" (PaCT 2009).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The io-side half of the SolverRun workflow.  The solver library cannot
/// call into io (the dependency points the other way), so the hooks a
/// factory-built run needs from io live here:
///
///   installEmergencyCheckpoint()  wires --guard-checkpoint onto the
///                                 run's guard via io's atomic
///                                 retry-capable save path
///   setupDurableRun()             the whole durability surface: the
///                                 emergency hook, the rotated
///                                 CheckpointStore behind
///                                 --checkpoint-dir/--checkpoint-every,
///                                 and --resume discovery with fallback
///   writeRunTelemetry()           exports the telemetry snapshot with
///                                 the run's standard metadata
///
//===----------------------------------------------------------------------===//

#ifndef SACFD_IO_RUNIO_H
#define SACFD_IO_RUNIO_H

#include "io/Checkpoint.h"
#include "io/CheckpointStore.h"
#include "io/TelemetryExport.h"
#include "solver/SolverFactory.h"
#include "telemetry/Telemetry.h"

#include <cstdio>
#include <memory>
#include <string>
#include <utility>

namespace sacfd {

/// Installs the --guard-checkpoint emergency dump onto \p Run's guard.
/// No-op when the run is unguarded or no checkpoint path was given.  The
/// dump goes through the same atomic tmp → fsync → rename path (with
/// bounded retry) as periodic checkpoints; failures surface both as a
/// structured stderr report and in the BreakdownReport.
template <unsigned Dim>
void installEmergencyCheckpoint(SolverRun<Dim> &Run) {
  StepGuard<Dim> *Guard = Run.guard();
  const std::string &Path = Run.config().Guard.CheckpointPath;
  if (!Guard || Path.empty())
    return;
  EulerSolver<Dim> *Solver = &Run.solver();
  RetryPolicy Retry{Run.config().Checkpoint.RetryAttempts,
                    Run.config().Checkpoint.RetryBackoffMs};
  Guard->setEmergencyCheckpoint(Path, [Solver, Retry](const std::string &P) {
    CheckpointStatus St = saveCheckpointWithRetry(P, *Solver, Retry);
    if (telemetry::enabled())
      telemetry::addCounter(
          telemetry::counterId(St.ok() ? "checkpoint.emergency_writes"
                                       : "checkpoint.emergency_failures"));
    if (St.ok())
      return std::string();
    reportCheckpointError("emergency checkpoint", St);
    return St.str();
  });
}

/// What setupDurableRun() established.
struct DurabilitySetup {
  /// False when --resume found checkpoint generations but none of them
  /// loaded — continuing would silently restart from step 0, so the tool
  /// should abort instead — or when a fresh run could not clear an
  /// earlier run's generations.  An empty/missing directory under
  /// --resume is a fresh start, not an error.
  bool Ok = true;
  bool Resumed = false;
  unsigned ResumeSteps = 0;
  std::string ResumePath;
  /// The rotated store behind --checkpoint-dir (null when unset).  The
  /// periodic hook shares ownership, so keeping this alive is optional.
  std::shared_ptr<CheckpointStore> Store;
};

/// Wires the full durability surface of \p Run from its RunConfig: the
/// emergency-checkpoint hook, the rotated CheckpointStore, --resume
/// recovery (newest loadable generation, falling back across corrupt
/// ones with a structured report per skipped file), and the periodic
/// checkpoint hook.  A run that writes generations without resuming
/// claims the store for a new run id first (CheckpointStore::claim).
/// Periodic write failures are reported but do not stop the run — the
/// simulation is worth more than the checkpoint.
template <unsigned Dim>
DurabilitySetup setupDurableRun(SolverRun<Dim> &Run) {
  installEmergencyCheckpoint(Run);
  DurabilitySetup Setup;
  const CheckpointCliOptions &Opt = Run.config().Checkpoint;
  if (Opt.Dir.empty())
    return Setup;
  Setup.Store = std::make_shared<CheckpointStore>(
      Opt.Dir, Opt.Keep, RetryPolicy{Opt.RetryAttempts, Opt.RetryBackoffMs});

  if (Opt.Resume) {
    CheckpointStore::ResumeOutcome Outcome = Setup.Store->resume(Run.solver());
    for (const auto &[Path, St] : Outcome.Skipped)
      reportCheckpointError(("resume: skipped " + Path).c_str(), St);
    if (Outcome.resumed()) {
      Setup.Store->adopt(Setup.Store->runId());
      Setup.Resumed = true;
      Setup.ResumeSteps = Outcome.LoadedSteps;
      Setup.ResumePath = Outcome.LoadedPath;
      // The guard's healthy-state snapshot predates the restore.
      if (StepGuard<Dim> *Guard = Run.guard())
        Guard->resync();
    } else if (Outcome.Status.Error != CheckpointError::NotFound) {
      reportCheckpointError("resume", Outcome.Status);
      Setup.Ok = false;
      return Setup;
    }
  }

  if (Opt.periodic()) {
    // A fresh run claims the store: an earlier run's newer generations
    // would otherwise shadow this run's in rotation and in a later
    // --resume.
    if (!Setup.Resumed) {
      CheckpointStatus St = Setup.Store->claim(CheckpointStore::newRunId());
      if (!St.ok()) {
        reportCheckpointError("checkpoint dir", St);
        Setup.Ok = false;
        return Setup;
      }
    }
    std::shared_ptr<CheckpointStore> Store = Setup.Store;
    EulerSolver<Dim> *Solver = &Run.solver();
    Run.setPeriodicCheckpoint(Opt.Every, [Store, Solver] {
      CheckpointStatus St = Store->write(*Solver);
      if (!St.ok())
        reportCheckpointError("periodic checkpoint", St);
    });
  }
  return Setup;
}

/// Writes the telemetry JSON report for \p Run when --telemetry was
/// given; no-op (returning true) otherwise.  The standard metadata —
/// program, scheme, engine, backend, workers, schedule, tile, step
/// mode, kernel build (simd on/off), guard — is emitted first, then
/// \p Extra entries.  On failure \p Error (when non-null) names the
/// path that failed.
template <unsigned Dim>
bool writeRunTelemetry(const SolverRun<Dim> &Run, const std::string &Program,
                       TelemetryMeta Extra = {},
                       std::string *Error = nullptr) {
  const RunConfig &Cfg = Run.config();
  if (!Cfg.Telemetry.enabled())
    return true;
  TelemetryMeta Meta = {
      {"program", Program},
      {"scheme", Cfg.Scheme.str()},
      {"engine", engineKindName(Cfg.Engine)},
      {"backend", backendKindName(Cfg.Backend)},
      {"workers", std::to_string(Run.backend().workerCount())},
      {"schedule", Cfg.Sched.str()},
      {"tile", Cfg.TileCfg.str()},
      {"simd", Cfg.Simd ? "on" : "off"},
      {"guard", Cfg.Guard.Enabled ? "on" : "off"},
  };
  for (auto &Entry : Extra)
    Meta.push_back(std::move(Entry));
  if (!writeTelemetryJson(Cfg.Telemetry.Path, telemetry::snapshot(), Meta,
                          Error))
    return false;
  std::printf("telemetry written to %s\n", Cfg.Telemetry.Path.c_str());
  return true;
}

} // namespace sacfd

#endif // SACFD_IO_RUNIO_H
