//===- solver/StepGuard.h - Breakdown detection and recovery ---*- C++ -*-===//
//
// Part of SacFD, a reproduction of "Numerical Simulations of Unsteady Shock
// Wave Interactions Using SaC and Fortran-90" (PaCT 2009).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The step guard: detect, contain, and recover from solver breakdown.
///
/// High-CFL runs, under-resolved shocks and strong interactions can push
/// the explicit schemes outside the admissible set (rho <= 0, p < 0,
/// NaN/inf).  The EOS/flux/characteristics helpers are total functions —
/// they clamp instead of asserting — so a broken state propagates rather
/// than aborts; the guard is the matching detection-and-recovery layer:
///
///   1. After every window of `Every` accepted steps, scan the interior
///      for finiteness and positivity under the floors (the solver's one
///      interior pass, EulerSolver::summarize — the same pass behind
///      fieldHealth() and the step.* gauges).
///   2. On breakdown, restore the snapshot taken at the last verified
///      healthy point, halve the dt scale, and retry — up to MaxRetries
///      times with exponential backoff.
///   3. If retries are exhausted and floors are allowed, replay the
///      window once more and clamp the offending cells to the
///      configurable density/pressure floors (positivity floors).
///   4. If even that fails, restore the last healthy state, optionally
///      write an emergency checkpoint of it, and report a structured
///      BreakdownReport (step, time, dt history, offending cells,
///      minima).  The guard then refuses further work (failed()).
///
/// Healthy runs are bit-identical to unguarded ones: the scan only reads
/// the field, the dt scale stays at 1, and snapshots are plain copies.
///
/// The emergency checkpoint is a caller-supplied callback rather than a
/// direct io/Checkpoint.h call: the io library links against the solver
/// library, so the dependency must point outward.
///
//===----------------------------------------------------------------------===//

#ifndef SACFD_SOLVER_STEPGUARD_H
#define SACFD_SOLVER_STEPGUARD_H

#include "runtime/BlockReduce.h"
#include "solver/EulerSolver.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <limits>
#include <string>
#include <utility>
#include <vector>

namespace sacfd {

/// Tuning knobs of the step guard.
struct GuardConfig {
  /// Steps between health scans (a scan window).  0 is treated as 1.
  unsigned Every = 1;
  /// Maximum dt-halving retries per window before the floor stage.
  unsigned MaxRetries = 4;
  /// Positivity floor for density: interior cells below it are flagged
  /// (and clamped to it in the floor stage).
  double DensityFloor = 1.0e-10;
  /// Positivity floor for pressure.
  double PressureFloor = 1.0e-10;
  /// Whether the floor stage may clamp cells after retries are spent.
  bool AllowFloor = true;
  /// Cap on offending-cell indices kept per scan/report.
  unsigned MaxReportedCells = 8;
};

/// How the guard resolved one scan window.
enum class GuardAction {
  Accepted, ///< window healthy on the first attempt
  Retried,  ///< healthy after >= 1 dt-halving retries
  Floored,  ///< recovered by clamping cells to the positivity floors
  Failed,   ///< unrecoverable; solver restored to last healthy state
};

inline const char *guardActionName(GuardAction A) {
  switch (A) {
  case GuardAction::Accepted:
    return "accepted";
  case GuardAction::Retried:
    return "retried";
  case GuardAction::Floored:
    return "floored";
  case GuardAction::Failed:
    return "failed";
  }
  return "unknown";
}

/// How a breakdown episode ended.
enum class BreakdownResolution {
  FloorRecovered, ///< floors clamped the bad cells; the run continues
  Failed,         ///< retries and floors exhausted; the run is over
};

/// Structured record of one breakdown episode, surfaced through
/// StepGuard::reports().
struct BreakdownReport {
  /// Step count at the window-start snapshot (the last healthy point).
  unsigned Step = 0;
  /// Simulation time at the window-start snapshot.
  double Time = 0.0;
  /// First-step dt of each attempt, in order — exponential backoff makes
  /// consecutive entries halve exactly.
  std::vector<double> DtHistory;
  /// Number of offending cells in the final (worst) scan.
  size_t BadCells = 0;
  /// Linear interior indices of the first offenders (capped).
  std::vector<size_t> OffendingCells;
  /// Scan minima at the final attempt (NaN-free cells only).
  double MinDensity = 0.0;
  double MinPressure = 0.0;
  BreakdownResolution Resolution = BreakdownResolution::Failed;
  /// Emergency checkpoint outcome (Failed episodes only).
  bool CheckpointWritten = false;
  std::string CheckpointPath;
  /// Writer diagnostic when the emergency checkpoint failed (empty on
  /// success), e.g. a CheckpointStatus::str() from io.
  std::string CheckpointErrorText;

  /// One-line human-readable summary.
  std::string str() const {
    char Buf[256];
    std::snprintf(Buf, sizeof(Buf),
                  "breakdown at step %u t=%.6g: %zu bad cells, "
                  "min rho=%.3g min p=%.3g, %zu attempts, %s",
                  Step, Time, BadCells, MinDensity, MinPressure,
                  DtHistory.size(),
                  Resolution == BreakdownResolution::FloorRecovered
                      ? "recovered by floors"
                      : "failed");
    std::string S = Buf;
    if (CheckpointWritten) {
      S += "; emergency checkpoint: ";
      S += CheckpointPath;
    } else if (!CheckpointErrorText.empty()) {
      S += "; emergency checkpoint FAILED: ";
      S += CheckpointErrorText;
    }
    return S;
  }
};

/// Outcome of one StepGuard::advanceWindow call.
struct GuardStepResult {
  GuardAction Action = GuardAction::Accepted;
  /// dt of the first step of the accepted attempt (0 when no step ran).
  double Dt = 0.0;
  /// dt-halving retries spent on this window.
  unsigned Retries = 0;
};

/// Wraps an EulerSolver's step loop with scan / snapshot-rollback /
/// dt-backoff / positivity-floor recovery.  See the file comment for the
/// policy.  The guard owns a snapshot of the last verified healthy field;
/// mutating the solver behind the guard's back invalidates it.
template <unsigned Dim> class StepGuard {
public:
  /// Persists the (already restored) last healthy state to the given
  /// path.  \returns an empty string on success, else a structured
  /// diagnostic (io passes a CheckpointStatus::str() through here —
  /// the guard cannot name io types, but it can carry their report).
  using CheckpointWriter = std::function<std::string(const std::string &)>;

  StepGuard(EulerSolver<Dim> &Solver, GuardConfig Config = GuardConfig())
      : S(Solver), Cfg(Config) {
    if (Cfg.Every == 0)
      Cfg.Every = 1;
    captureSnapshot();
  }

  /// Registers an emergency checkpoint: on terminal failure the solver is
  /// first restored to the last healthy state, then \p Writer is invoked
  /// with \p Path to persist it.
  void setEmergencyCheckpoint(std::string Path, CheckpointWriter Writer) {
    EmergencyPath = std::move(Path);
    EmergencyWriter = std::move(Writer);
  }

  /// Fault injection: poisons the given linear interior cells (all
  /// components NaN) right after the solver completes step \p AfterStep.
  /// One-shot faults disarm once fired, so a rollback replay runs clean
  /// (the transient-fault recovery path); persistent faults re-fire on
  /// every replay (the unrecoverable path, unless floors are allowed).
  void injectFault(unsigned AfterStep, std::vector<size_t> Cells,
                   bool Persistent = false) {
    Faults.push_back({AfterStep, std::move(Cells), Persistent, true});
  }

  /// Convenience: poison \p CellCount evenly spaced interior cells.
  void injectFaultSpread(unsigned AfterStep, size_t CellCount,
                         bool Persistent = false) {
    size_t N = S.problem().Domain.interiorShape().count();
    CellCount = std::min(CellCount, N);
    std::vector<size_t> Cells;
    for (size_t I = 0; I < CellCount; ++I)
      Cells.push_back(I * N / CellCount);
    injectFault(AfterStep, std::move(Cells), Persistent);
  }

  /// Runs one scan window (Cfg.Every steps, dt clamped onto
  /// \p ClampTime), then scans and recovers per the policy.
  GuardStepResult advanceWindow(
      double ClampTime = std::numeric_limits<double>::infinity()) {
    if (Failed)
      return {GuardAction::Failed, 0.0, 0};
    ++Windows;

    std::vector<double> DtHist;
    for (unsigned Attempt = 0; Attempt <= Cfg.MaxRetries; ++Attempt) {
      double FirstDt = runWindow(ClampTime);
      DtHist.push_back(FirstDt);
      LastScan = scan();
      if (LastScan.healthy()) {
        TotalRetries += Attempt;
        countGuard("guard.retries", Attempt);
        Scale = std::min(1.0, Scale * 2.0);
        captureSnapshot();
        return {Attempt == 0 ? GuardAction::Accepted : GuardAction::Retried,
                FirstDt, Attempt};
      }
      restoreSnapshot();
      countGuard("guard.rollbacks");
      Scale *= 0.5;
    }
    TotalRetries += Cfg.MaxRetries;
    countGuard("guard.retries", Cfg.MaxRetries);

    // Floor stage: replay once more, then clamp the offenders.
    if (Cfg.AllowFloor) {
      double FirstDt = runWindow(ClampTime);
      DtHist.push_back(FirstDt);
      FieldHealth<Dim> Before = scan();
      if (Before.healthy()) {
        // The extra dt halving alone rescued the replay; this is a late
        // retry, not a floor recovery -- no cells were touched.
        ++TotalRetries;
        countGuard("guard.retries");
        LastScan = Before;
        Scale = std::min(1.0, Scale * 2.0);
        captureSnapshot();
        return {GuardAction::Retried, FirstDt, Cfg.MaxRetries + 1};
      }
      size_t Fixed = applyFloors();
      LastScan = scan();
      if (LastScan.healthy()) {
        ++TotalFloorEvents;
        TotalFlooredCells += Fixed;
        countGuard("guard.floor_events");
        countGuard("guard.floored_cells", Fixed);
        Reports.push_back(
            makeReport(Before, DtHist, BreakdownResolution::FloorRecovered));
        captureSnapshot();
        return {GuardAction::Floored, FirstDt, Cfg.MaxRetries};
      }
      restoreSnapshot();
      countGuard("guard.rollbacks");
    }

    // Terminal failure: the solver sits at the last healthy state.
    Failed = true;
    countGuard("guard.failures");
    BreakdownReport R =
        makeReport(LastScan, DtHist, BreakdownResolution::Failed);
    if (EmergencyWriter) {
      R.CheckpointPath = EmergencyPath;
      R.CheckpointErrorText = EmergencyWriter(EmergencyPath);
      R.CheckpointWritten = R.CheckpointErrorText.empty();
    }
    Reports.push_back(std::move(R));
    return {GuardAction::Failed, 0.0, Cfg.MaxRetries};
  }

  /// Advances until \p EndTime (clamping onto it), scanning every window.
  /// \returns false if the run failed before reaching EndTime.
  bool advanceTo(double EndTime) {
    while (!Failed && S.time() < EndTime)
      advanceWindow(EndTime);
    return !Failed;
  }

  /// Advances (at least) \p N steps in guarded windows.  \returns false
  /// on failure.
  bool advanceSteps(unsigned N) {
    unsigned Target = S.stepCount() + N;
    while (!Failed && S.stepCount() < Target)
      advanceWindow();
    return !Failed;
  }

  /// Re-captures the healthy-state snapshot from the solver's current
  /// state.  The caller must do this after legitimately mutating the
  /// solver behind the guard's back — in practice after restoring a
  /// checkpoint into it (--resume), which invalidates the snapshot taken
  /// at construction.
  void resync() { captureSnapshot(); }

  bool failed() const { return Failed; }
  unsigned retriesTotal() const { return TotalRetries; }
  unsigned floorsTotal() const { return TotalFloorEvents; }
  size_t flooredCellsTotal() const { return TotalFlooredCells; }
  double dtScale() const { return Scale; }
  const std::vector<BreakdownReport> &reports() const { return Reports; }
  const FieldHealth<Dim> &lastScan() const { return LastScan; }
  EulerSolver<Dim> &solver() { return S; }
  const EulerSolver<Dim> &solver() const { return S; }

  /// One-line statistics summary for run reports.
  std::string summary() const {
    char Buf[192];
    std::snprintf(Buf, sizeof(Buf),
                  "guard: %zu windows, %u retries, %u floor events "
                  "(%zu cells), %zu breakdown reports, dt scale %.3g%s",
                  Windows, TotalRetries, TotalFloorEvents,
                  TotalFlooredCells, Reports.size(), Scale,
                  Failed ? ", FAILED" : "");
    return Buf;
  }

private:
  /// Runs up to Cfg.Every steps with the backed-off dt (the step rule
  /// with Cfl = computeDt() * Scale), firing armed faults after each
  /// step.  \returns the dt of the first step taken.
  double runWindow(double ClampTime) {
    double FirstDt = 0.0;
    for (unsigned I = 0; I < Cfg.Every && S.time() < ClampTime; ++I) {
      const StepEntry E = nextStep(S.time(), ClampTime,
                                   [this] { return S.computeDt() * Scale; });
      S.apply(E);
      if (E.isSnap())
        break;
      if (I == 0)
        FirstDt = E.Value;
      fireFaults();
    }
    return FirstDt;
  }

  FieldHealth<Dim> scan() const {
    countGuard("guard.scans");
    static const unsigned SpanScan = telemetry::spanId("guard.scan");
    telemetry::ScopedSpan Span(SpanScan);
    return S.summarize(Cfg.DensityFloor, Cfg.PressureFloor,
                       Cfg.MaxReportedCells);
  }

  /// Bumps the named guard counter.  Guard events are rare (a handful per
  /// breakdown episode), so the per-call name lookup is not on any hot
  /// path; when telemetry is disabled this is a single relaxed load.
  static void countGuard(const char *Name, uint64_t Delta = 1) {
    if (!telemetry::enabled() || Delta == 0)
      return;
    telemetry::addCounter(telemetry::counterId(Name), Delta);
  }

  void captureSnapshot() {
    // The const accessor: a read keeps the solver's cached GetDT maximum.
    const Field<Dim> &U = std::as_const(S).field();
    if (!Snap || Snap->shape() != U.shape())
      // Leased from the solver's pool (the guard never outlives its
      // solver); uninit is safe, the copy writes every element.  The
      // snapshot stages through the AoS interchange format.
      Snap = S.fieldPool().template acquireUninit<Cons<Dim>>(U.shape());
    U.exportTo(Snap->data());
    SnapTime = S.time();
    SnapSteps = S.stepCount();
  }

  void restoreSnapshot() {
    S.field().importFrom(Snap->data());
    S.restoreClock(SnapTime, SnapSteps);
  }

  /// Clamps every flagged interior cell to the floors: density and
  /// pressure raised to the configured minima, non-finite components
  /// zeroed.  \returns the number of cells modified.
  size_t applyFloors() {
    const Grid<Dim> &G = S.problem().Domain;
    const Gas &Gas_ = S.problem().G;
    Shape Interior = G.interiorShape();
    size_t N = Interior.count();
    Field<Dim> &U = S.field();

    auto FoldBlock = [&](size_t Lo, size_t Hi) {
      size_t Fixed = 0;
      Index Iv = Interior.delinearize(Lo);
      for (size_t L = Lo; L != Hi; ++L) {
        const Index Storage = G.toStorage(Iv);
        const Cons<Dim> Q = U.at(Storage);
        const auto [Finite, P, Flagged] =
            classifyCell(Q, Gas_, Cfg.DensityFloor, Cfg.PressureFloor);
        if (Flagged) {
          // Clamp to twice the floors: the rescan recomputes pressure
          // from the rebuilt E, and with kinetic energy much larger than
          // the floor the EOS roundtrip can lose an ulp — a cell floored
          // exactly onto the threshold could be re-flagged.  The margin
          // keeps the rebuilt cell robustly admissible.
          Prim<Dim> W;
          W.Rho = std::isfinite(Q.Rho)
                      ? std::max(Q.Rho, 2.0 * Cfg.DensityFloor)
                      : 2.0 * Cfg.DensityFloor;
          for (unsigned D = 0; D < Dim; ++D) {
            double V = Finite && Q.Rho > 0.0 ? Q.Mom[D] / Q.Rho : 0.0;
            W.Vel[D] = std::isfinite(V) ? V : 0.0;
          }
          W.P = std::isfinite(P) ? std::max(P, 2.0 * Cfg.PressureFloor)
                                 : 2.0 * Cfg.PressureFloor;
          U.set(Storage, toCons(W, Gas_));
          ++Fixed;
        }
        Interior.increment(Iv);
      }
      return Fixed;
    };

    return blockReduce(
        N, S.backend(), size_t{0}, FoldBlock,
        [](size_t A, size_t B) { return A + B; });
  }

  /// Poisons the cells of every armed fault whose trigger step has been
  /// reached.  One-shot faults disarm permanently; persistent faults
  /// re-fire whenever the (rolled-back) step count matches again.
  void fireFaults() {
    const Grid<Dim> &G = S.problem().Domain;
    Shape Interior = G.interiorShape();
    double Nan = std::numeric_limits<double>::quiet_NaN();
    for (Fault &F : Faults) {
      if (!F.Armed || S.stepCount() != F.AfterStep)
        continue;
      for (size_t L : F.Cells) {
        if (L >= Interior.count())
          continue;
        const Index Storage = G.toStorage(Interior.delinearize(L));
        Cons<Dim> Q = S.field().at(Storage);
        for (unsigned K = 0; K < NumVars<Dim>; ++K)
          Q.setComp(K, Nan);
        S.field().set(Storage, Q);
      }
      if (!F.Persistent)
        F.Armed = false;
    }
  }

  BreakdownReport makeReport(const FieldHealth<Dim> &Scan,
                             const std::vector<double> &DtHist,
                             BreakdownResolution Resolution) const {
    BreakdownReport R;
    R.Step = SnapSteps;
    R.Time = SnapTime;
    R.DtHistory = DtHist;
    R.BadCells = Scan.BadCells;
    R.OffendingCells = Scan.Offenders;
    R.MinDensity = Scan.MinDensity;
    R.MinPressure = Scan.MinPressure;
    R.Resolution = Resolution;
    return R;
  }

  struct Fault {
    unsigned AfterStep;
    std::vector<size_t> Cells;
    bool Persistent;
    bool Armed;
  };

  EulerSolver<Dim> &S;
  GuardConfig Cfg;

  /// Rollback snapshot of the last verified healthy field, leased from
  /// the solver's pool.
  FieldPool::Lease<Cons<Dim>> Snap;
  double SnapTime = 0.0;
  unsigned SnapSteps = 0;

  /// Multiplies the CFL dt; halves per failed attempt, recovers (doubles,
  /// capped at 1) per healthy window.
  double Scale = 1.0;
  bool Failed = false;

  size_t Windows = 0;
  unsigned TotalRetries = 0;
  unsigned TotalFloorEvents = 0;
  size_t TotalFlooredCells = 0;
  FieldHealth<Dim> LastScan;
  std::vector<BreakdownReport> Reports;
  std::vector<Fault> Faults;

  std::string EmergencyPath;
  CheckpointWriter EmergencyWriter;
};

} // namespace sacfd

#endif // SACFD_SOLVER_STEPGUARD_H
