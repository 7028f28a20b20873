//===- solver/EulerSolver.h - Solver engine interface ----------*- C++ -*-===//
//
// Part of SacFD, a reproduction of "Numerical Simulations of Unsteady Shock
// Wave Interactions Using SaC and Fortran-90" (PaCT 2009).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The common driver for the two solver engines under comparison.
///
/// ArraySolver (the SaC port) and FusedSolver (the Fortran original) are
/// two implementations of the same numerical method; both derive from
/// EulerSolver, which owns the field, the clock and the step executor.
/// The engines implement reduceMaxEigen() (the GetDT reduction) and
/// stepWithDt() (one full multi-stage time step, through the one stage
/// driver runStages); computeDt() serves the maximum the last step's
/// final stage already reduced when it can (see cacheMaxEigen).  For
/// identical scheme settings the two engines produce bit-identical
/// fields — the executable form of the paper's claim that the SaC code
/// is a faithful port.
///
/// Every stepping loop in SacFD — advance/advanceTo/advanceSteps here,
/// the step guard's windows, SolverRun, shard workers — asks nextStep()
/// (solver/StepRule.h) what to do and executes the answer through
/// apply(), the one place a step or clock snap mutates the solver and
/// the per-step telemetry is recorded.
///
//===----------------------------------------------------------------------===//

#ifndef SACFD_SOLVER_EULERSOLVER_H
#define SACFD_SOLVER_EULERSOLVER_H

#include "array/FieldPool.h"
#include "runtime/Backend.h"
#include "runtime/BlockReduce.h"
#include "solver/Field.h"
#include "solver/Problem.h"
#include "solver/SchemeConfig.h"
#include "solver/StepRule.h"
#include "telemetry/Telemetry.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <functional>
#include <limits>
#include <span>
#include <string>
#include <vector>

namespace sacfd {

/// Domain integrals of the conserved variables (the conservation laws'
/// invariants on closed/periodic domains).
template <unsigned Dim> struct ConservedTotals {
  double Mass = 0.0;
  std::array<double, Dim> Momentum = {};
  double Energy = 0.0;
};

/// What one interior pass (EulerSolver::summarize) learns about the
/// field: the conserved totals, the density/pressure minima over the
/// finite cells, finiteness, and the cells outside the admissible set
/// under the pass's floors (classifyCell).
template <unsigned Dim> struct FieldHealth {
  ConservedTotals<Dim> Totals;
  double MinDensity = std::numeric_limits<double>::infinity();
  double MinPressure = std::numeric_limits<double>::infinity();
  bool AllFinite = true;
  /// Cells violating finiteness or the floors.
  size_t BadCells = 0;
  /// Linear interior indices of the first offenders, ascending and
  /// capped at the pass's MaxOffenders.
  std::vector<size_t> Offenders;

  bool healthy() const { return BadCells == 0; }

  /// The minima as fieldHealth() and the step.* gauges report them: NaN
  /// when any cell is not finite ("min density 1.0" over a NaN field
  /// would mislead).
  FieldHealth &reportMinima() {
    if (!AllFinite)
      MinDensity = MinPressure = std::numeric_limits<double>::quiet_NaN();
    return *this;
  }
};

/// Abstract Euler solver: owns the field and the time loop; engines
/// supply the per-step numerics.
template <unsigned Dim> class EulerSolver {
public:
  EulerSolver(Problem<Dim> Prob, SchemeConfig Scheme, Backend &Exec,
              bool Simd = true)
      : Prob(std::move(Prob)), Scheme(Scheme), Exec(Exec),
        Fill(this->Prob.Domain, this->Prob.Boundary),
        U(Pool, this->Prob.Domain.storageShape()), SimdEnabled(Simd) {
    assert(this->Prob.Domain.ghost() >= ghostCells(Scheme.Recon) &&
           "grid ghost layers insufficient for the reconstruction");
    const Grid<Dim> &G = this->Prob.Domain;
    Shape Storage = G.storageShape();
    for (unsigned A = 0; A < Dim; ++A) {
      N[A] = G.cells(A);
      StorageDim[A] = Storage.dim(A);
    }
    // Row-major strides.
    StorageStride[Dim - 1] = 1;
    InteriorStride[Dim - 1] = 1;
    for (unsigned A = Dim - 1; A-- > 0;) {
      StorageStride[A] = StorageStride[A + 1] * StorageDim[A + 1];
      InteriorStride[A] = InteriorStride[A + 1] * N[A + 1];
    }
    Ng = G.ghost();
    for (unsigned A = 0; A < Dim; ++A)
      InvSpacing[A] = 1.0 / G.dx(A);
    initializeField();
  }
  virtual ~EulerSolver() = default;

  EulerSolver(const EulerSolver &) = delete;
  EulerSolver &operator=(const EulerSolver &) = delete;

  const Problem<Dim> &problem() const { return Prob; }
  const SchemeConfig &scheme() const { return Scheme; }
  Backend &backend() { return Exec; }

  double time() const { return Time; }
  unsigned stepCount() const { return Steps; }

  /// Result of the last GetDT reduction (0 before the first computeDt).
  /// The shard coordinator reduces these across shards to form the
  /// global CFL step.
  double lastMaxEigen() const { return LastMaxEigen; }

  /// Called at the top of every ghost fill, before the boundary
  /// conditions are applied (shard halo exchange: neighbor interiors
  /// land in the axis-0 ghost rows, then the physical BC pass fills the
  /// remaining sides — BcKind::Halo sides are left untouched by it).
  using GhostFillHook = std::function<void(Field<Dim> &U, double Time)>;

  /// Installs \p Hook; pass an empty function to remove it.  The hook
  /// runs on the driving thread once per stage fill.
  void setGhostFillHook(GhostFillHook Hook) { GhostHook = std::move(Hook); }

  /// The full field including ghost cells (shape == storageShape()).
  /// Element access goes through Field::at()/set(); bulk transfers
  /// through Field::exportTo()/importFrom().  The mutable accessor drops
  /// the cached GetDT maximum, so a reference obtained from it must not
  /// be written through after the next step (take it again instead).
  const Field<Dim> &field() const { return U; }
  Field<Dim> &field() {
    MaxEigenCached = false;
    return U;
  }

  /// Whether stage kernels may use the vectorized build.
  bool simdEnabled() const { return SimdEnabled; }

  /// Primitive state of interior cell \p Interior.
  Prim<Dim> primitiveAt(const Index &Interior) const {
    return toPrim(U.at(Prob.Domain.toStorage(Interior)), Prob.G);
  }

  /// CFL-limited time step of the current field (the GetDT kernel).  The
  /// final stage of a step reduces the updated field's max eigenvalue
  /// inside its update sweep (cacheMaxEigen); until the field is next
  /// touched — a step, the mutable field() accessor or restoreClock — that
  /// value is served without another pass.  Otherwise the engine's
  /// from-scratch reduction runs.  Max is exact under any grouping, so
  /// both sources give the same bits.  The maximum is also remembered as
  /// lastMaxEigen() for the "step.max_eigen" gauge and the shards.
  double computeDt() {
    if (!MaxEigenCached) {
      static const unsigned SpanGetDt = telemetry::spanId("solver.get_dt");
      telemetry::ScopedSpan Span(SpanGetDt);
      cacheMaxEigen(reduceMaxEigen());
    }
    LastMaxEigen = CachedMaxEigen;
    return Scheme.dtFromMaxEigen(CachedMaxEigen);
  }

  /// Executes one stepping decision: a Step runs the engine's full
  /// multi-stage step with exactly E.Value, advances the clock and
  /// records the per-step telemetry; a Snap moves the clock onto E.Value
  /// through restoreClock (engines cache state keyed on the clock, and
  /// Prescribed boundary segments read it).  \returns the dt taken (0
  /// for a snap).
  double apply(StepEntry E) {
    if (E.isSnap()) {
      restoreClock(E.Value, Steps);
      return 0.0;
    }
    MaxEigenCached = false;
    stepWithDt(E.Value);
    Time += E.Value;
    ++Steps;
    recordStepTelemetry(E.Value);
    return E.Value;
  }

  /// Advances one step with the CFL time step.  \returns the dt taken.
  double advance() {
    return apply(nextStep(Time, std::numeric_limits<double>::infinity(),
                          [this] { return computeDt(); }));
  }

  /// Advances one step with a caller-chosen dt.  \returns the dt taken.
  double advanceWithDt(double Dt) { return apply({StepEntry::Step, Dt}); }

  /// Advances exactly \p N steps (the paper's fixed-step benchmark loop).
  void advanceSteps(unsigned N) {
    for (unsigned I = 0; I < N; ++I)
      advance();
  }

  /// Advances until \p EndTime, clamping the final step onto it (a
  /// remainder below clock rounding noise is snapped, see nextStep).
  void advanceTo(double EndTime) {
    while (Time < EndTime)
      apply(nextStep(Time, EndTime, [this] { return computeDt(); }));
  }

  /// The one interior pass: conserved totals (sum times cell volume),
  /// finiteness, the density/pressure minima over the finite cells and
  /// the cells classifyCell flags under \p DensityFloor / \p
  /// PressureFloor (the first \p MaxOffenders of them by linear index).
  /// The defaults (0, 0) are the admissible set itself; conservedTotals,
  /// fieldHealth and the step.* gauges use them, the step guard passes
  /// its floors.  One parallelFor region: each axis-0 slab (the whole
  /// line in 1D) folds its cells in row-major order into its own partial,
  /// and the partials merge serially in slab order, so every result is
  /// bit-identical across backends, worker counts and tile specs.  The
  /// partials buffer is reused across calls, so concurrent calls on one
  /// solver are not allowed.
  FieldHealth<Dim> summarize(double DensityFloor = 0.0,
                             double PressureFloor = 0.0,
                             unsigned MaxOffenders = 0) const {
    const unsigned Axis = Dim - 1;
    const size_t Blocks = Dim == 1 ? 1 : N[0];
    const size_t LinesPerBlock = lineCount(Axis) / Blocks;
    SlabPartials.resize(Blocks);
    Exec.parallelFor(0, Blocks, [&](size_t BB, size_t BE) {
      for (size_t B = BB; B != BE; ++B) {
        // Fold into locals: running stores into the shared partials
        // would false-share between workers and may alias the field.
        ConservedTotals<Dim> T;
        double MinRho = std::numeric_limits<double>::infinity();
        double MinP = MinRho;
        bool AllFinite = true;
        size_t Bad = 0;
        std::vector<size_t> &Offenders = SlabPartials[B].Offenders;
        Offenders.clear();
        for (size_t Line = B * LinesPerBlock; Line != (B + 1) * LinesPerBlock;
             ++Line) {
          kernels::ConstRun<Dim> R = U.crun(lineStorageBase(Axis, Line));
          for (size_t I = 0; I < N[Axis]; ++I) {
            const Cons<Dim> Q = kernels::loadCons<Dim>(R, I);
            T.Mass += Q.Rho;
            for (unsigned A = 0; A < Dim; ++A)
              T.Momentum[A] += Q.Mom[A];
            T.Energy += Q.E;
            const CellClass C =
                classifyCell(Q, Prob.G, DensityFloor, PressureFloor);
            if (C.Finite) {
              MinRho = std::min(MinRho, Q.Rho);
              MinP = std::min(MinP, C.P);
            } else {
              AllFinite = false;
            }
            if (C.Flagged && Bad++ < MaxOffenders)
              Offenders.push_back(Line * N[Axis] + I);
          }
        }
        FieldHealth<Dim> &P = SlabPartials[B];
        P.Totals = T;
        P.MinDensity = MinRho;
        P.MinPressure = MinP;
        P.AllFinite = AllFinite;
        P.BadCells = Bad;
      }
    });

    FieldHealth<Dim> H;
    for (const FieldHealth<Dim> &P : SlabPartials) {
      H.Totals.Mass += P.Totals.Mass;
      for (unsigned A = 0; A < Dim; ++A)
        H.Totals.Momentum[A] += P.Totals.Momentum[A];
      H.Totals.Energy += P.Totals.Energy;
      H.MinDensity = std::min(H.MinDensity, P.MinDensity);
      H.MinPressure = std::min(H.MinPressure, P.MinPressure);
      H.AllFinite = H.AllFinite && P.AllFinite;
      H.BadCells += P.BadCells;
      for (size_t Cell : P.Offenders)
        if (H.Offenders.size() < MaxOffenders)
          H.Offenders.push_back(Cell);
    }
    double Volume = 1.0;
    for (unsigned A = 0; A < Dim; ++A)
      Volume *= Prob.Domain.dx(A);
    H.Totals.Mass *= Volume;
    for (unsigned A = 0; A < Dim; ++A)
      H.Totals.Momentum[A] *= Volume;
    H.Totals.Energy *= Volume;
    return H;
  }

  /// Engine name for reports ("array" / "fused").
  virtual const char *engineName() const = 0;

  /// Overwrites the solver clock; checkpoint-restore hook (the field is
  /// restored through the mutable field() accessor).  Drops the cached
  /// GetDT maximum, which belongs to the pre-restore field.
  void restoreClock(double NewTime, unsigned NewSteps) {
    Time = NewTime;
    Steps = NewSteps;
    MaxEigenCached = false;
  }

  /// The solver's buffer arena.  Engines lease every stage temporary from
  /// here; the step guard leases its rollback snapshot from it too, so the
  /// guard must not outlive the solver.
  FieldPool &fieldPool() { return Pool; }

protected:
  /// One full multi-stage step with the given dt: an engine's stage body
  /// through runStages (array materialized mode keeps its own loop).
  virtual void stepWithDt(double Dt) = 0;

  /// The SSP stage driver of both engines.  Q^n is U itself.  Per stage
  /// it picks the stage input In and output Out, fills In's ghosts, and
  /// calls \p Body(In, Out, Stage, Last), which writes Out = A*U + B*(In
  /// + dt*L(In)) on the interior and, on the Last stage, returns Out's
  /// max CFL eigenvalue (the next step's GetDT, see cacheMaxEigen).
  ///
  /// A \p WholeField body completes its residual before its update runs,
  /// so it may write its own input: RK3 runs U -> A -> A -> U, RK2 U -> A
  /// -> U and RK1 U in place.  A body that updates rows while later rows
  /// still read In (the 2D row pass) may not: RK3 runs U -> A -> B -> U,
  /// and RK1 writes A, then one region copies A's interior into U.
  /// Either way U's ghosts hold the step's first-stage fill.  The stage
  /// fields are leased for the step; every cell a stage reads is written
  /// first (the interior by the previous stage, the ghosts by the fill).
  template <typename BodyFn> void runStages(bool WholeField, BodyFn Body) {
    static const unsigned SpanBoundary = telemetry::spanId("solver.boundary");
    static const unsigned SpanUpdate = telemetry::spanId("solver.update");
    const std::span<const SspStage> Stages = sspStages(Scheme.Integrator);
    const size_t Count = Stages.size();
    // A whole-field body needs one stage field (none when RK1 runs in
    // place); the row body alternates between two (one for RK1 and RK2).
    Field<Dim> Scratch[2];
    const size_t Leased =
        WholeField ? (Count > 1 ? 1 : 0) : (Count > 2 ? 2 : 1);
    for (size_t K = 0; K < Leased; ++K)
      Scratch[K] = Field<Dim>(Pool, U.shape(), FieldInit::Uninit);

    Field<Dim> *In = &U;
    double EvMax = 0.0;
    for (size_t S = 0; S < Count; ++S) {
      const bool Last = S + 1 == Count;
      Field<Dim> *Out = &Scratch[0];
      if (Last && (Count > 1 || WholeField))
        Out = &U;
      else if (!WholeField && In == &Scratch[0])
        Out = &Scratch[1];
      {
        telemetry::ScopedSpan Sp(SpanBoundary);
        fillGhosts(*In, Time);
      }
      EvMax = Body(*In, *Out, Stages[S], Last);
      In = Out;
    }
    if (In != &U) {
      constexpr unsigned LineAxis = Dim - 1;
      telemetry::ScopedSpan Sp(SpanUpdate);
      Exec.parallelFor(0, lineCount(LineAxis), [&](size_t LB, size_t LE) {
        for (size_t Line = LB; Line != LE; ++Line) {
          size_t Base = lineStorageBase(LineAxis, Line);
          kernels::copyState<Dim>(In->crun(Base), U.run(Base), N[LineAxis],
                                  SimdEnabled);
        }
      });
    }
    cacheMaxEigen(EvMax);
  }

  /// The GetDT reduction from scratch: the max CFL eigenvalue over the
  /// interior, line by line through the maxEigen kernel (blockReduce2D over
  /// the update space, so tiled backends merge in tile order).
  virtual double reduceMaxEigen() {
    constexpr unsigned LineAxis = Dim - 1;
    return blockReduce2D(
        lineCount(LineAxis), N[LineAxis], Exec, 0.0,
        [&](size_t LineBegin, size_t LineEnd, size_t CellBegin,
            size_t CellEnd) {
          double Acc = 0.0;
          for (size_t Line = LineBegin; Line != LineEnd; ++Line)
            Acc = runMaxEigen(U, lineStorageBase(LineAxis, Line) + CellBegin,
                              CellEnd - CellBegin, Acc);
          return Acc;
        },
        [](double A, double B) { return std::max(A, B); });
  }

  /// Max CFL eigenvalue of the \p Len contiguous cells of \p F at storage
  /// offset \p Base, folded onto \p Acc (the GetDT kernel body).
  double runMaxEigen(const Field<Dim> &F, size_t Base, size_t Len,
                     double Acc) const {
    return kernels::maxEigen<Dim>(F.crun(Base), Prob.G, InvSpacing, Acc, Len,
                                  SimdEnabled);
  }

  /// Remembers \p EvMax as the current field's GetDT maximum, served by
  /// computeDt until the field is next touched.
  void cacheMaxEigen(double EvMax) {
    CachedMaxEigen = EvMax;
    MaxEigenCached = true;
  }

  /// The per-stage ghost fill of a storage-shaped field \p F (U or a
  /// stage field): the ghost-fill hook first (halo exchange), then the
  /// physical boundary conditions (one region, see BoundaryFill).  Every
  /// stage fill goes through here, so a sharded sub-solver exchanges
  /// halos exactly once per stage.
  void fillGhosts(Field<Dim> &F, double FillTime) {
    if (GhostHook)
      GhostHook(F, FillTime);
    Fill.apply(F, Exec, FillTime);
  }

  /// Line decomposition shared by the engines and the kernel routing: a
  /// "line" is a run of interior cells along \p Axis; contiguous in
  /// storage when Axis is the last (row-major) axis.

  /// Number of tangential lines perpendicular to \p Axis.
  size_t lineCount(unsigned Axis) const {
    size_t Count = 1;
    for (unsigned A = 0; A < Dim; ++A)
      if (A != Axis)
        Count *= N[A];
    return Count;
  }

  /// Storage offset of interior cell 0 of tangential line \p Line along
  /// \p Axis.
  size_t lineStorageBase(unsigned Axis, size_t Line) const {
    size_t Base = 0;
    // Decompose Line over the tangential axes in row-major order.
    for (unsigned A = Dim; A-- > 0;) {
      if (A == Axis)
        continue;
      size_t Coord = Line % N[A];
      Line /= N[A];
      Base += (Coord + Ng) * StorageStride[A];
    }
    Base += Ng * StorageStride[Axis];
    return Base;
  }

  /// Interior (residual) offset of cell 0 of the same line.
  size_t lineInteriorBase(unsigned Axis, size_t Line) const {
    size_t Base = 0;
    for (unsigned A = Dim; A-- > 0;) {
      if (A == Axis)
        continue;
      size_t Coord = Line % N[A];
      Line /= N[A];
      Base += Coord * InteriorStride[A];
    }
    return Base;
  }

  /// The per-line face path of the array engine and of the fused
  /// engine's 1D and 3D sweeps, for every reconstruction but their
  /// piecewise-constant kernel sweeps (the fused 2D row pass reads its
  /// stencils from the field instead): the fluxes of faces [FaceBegin,
  /// FaceBegin + Faces) of line \p Line along \p Axis of the stage input
  /// \p In.  The line's stencil window is staged once into SoA planes
  /// (stageLineWindow).  The window form of kernels::reconstructFaces
  /// converts its face neighbours, window cells [2, Faces + 3), once into
  /// primitive planes and turns the window into the faces' left/right
  /// states from two shifted views of them; kernels::fluxFaces solves
  /// their Riemann problems.  All of it runs on unit-stride runs, so the
  /// SIMD build vectorizes the whole path.  The window, the planes and
  /// the three face rows are one per-worker-thread, grown-only scratch
  /// (fluxScratch); the returned flux row is valid until the calling
  /// thread's next call.
  kernels::ConstRun<Dim> lineFaceFluxes(const Field<Dim> &In, unsigned Axis,
                                        size_t Line, size_t FaceBegin,
                                        size_t Faces) const {
    const size_t Len = Faces + 5;
    FluxScratch<Dim> Scratch = fluxScratch<Dim>(5, Len);
    kernels::Run<Dim> Win = Scratch.run(0);
    kernels::Run<Dim> L = Scratch.run(1);
    kernels::Run<Dim> R = Scratch.run(2);
    kernels::Run<Dim> F = Scratch.run(3);
    stageLineWindow(In, Axis, Line, FaceBegin, Len, Win);
    kernels::reconstructFaces<Dim>(Win, Scratch.prims(4), L, R, Prob.G, Axis,
                                   Scheme.Recon, Scheme.Limiter, Scheme.Vars,
                                   Faces, SimdEnabled);
    kernels::fluxFaces<Dim>(L, R, F, Prob.G, Axis, Scheme.Riemann, Faces,
                            SimdEnabled);
    return F;
  }

  /// Stages \p Len window cells of line \p Line along \p Axis of \p In
  /// into the SoA planes \p Dst: window cell K is the cell at axis offset
  /// FaceBegin + K - 3 from interior 0, clamped into storage (outermost
  /// cells are never read by the implemented schemes), so face
  /// FaceBegin + f's 6-cell stencil is window cells f..f+5.  Staging
  /// loads each cell's planes once instead of six times.
  void stageLineWindow(const Field<Dim> &In, unsigned Axis, size_t Line,
                       size_t FaceBegin, size_t Len,
                       const kernels::Run<Dim> &Dst) const {
    const std::ptrdiff_t AxisStride =
        static_cast<std::ptrdiff_t>(StorageStride[Axis]);
    const std::ptrdiff_t Lo = -static_cast<std::ptrdiff_t>(Ng);
    const std::ptrdiff_t Hi =
        static_cast<std::ptrdiff_t>(StorageDim[Axis]) - 1 + Lo;
    const std::ptrdiff_t Base =
        static_cast<std::ptrdiff_t>(lineStorageBase(Axis, Line));
    const std::ptrdiff_t First = static_cast<std::ptrdiff_t>(FaceBegin) - 3;
    kernels::ConstRun<Dim> Src = In.crun();
    for (unsigned K = 0; K < NumVars<Dim>; ++K) {
      const double *S = Src.C[K] + Base;
      double *D = Dst.C[K];
      for (size_t I = 0; I < Len; ++I) {
        std::ptrdiff_t Off = First + static_cast<std::ptrdiff_t>(I);
        D[I] = S[std::clamp(Off, Lo, Hi) * AxisStride];
      }
    }
  }

  /// Feeds the "solver.steps" counter and, at the configured gauge
  /// stride, the per-step gauges: time, dt, the GetDT max eigenvalue,
  /// and one summarize() pass (the "solver.summarize" span, one backend
  /// region) — the
  /// conserved totals (mass, momentum per axis, energy; their drift is
  /// the conservation regression's measurement channel) and the
  /// density/pressure minima.  Every value is bit-identical across
  /// backends and worker counts.
  void recordStepTelemetry(double Dt) {
    if (!telemetry::enabled())
      return;
    static const unsigned StepsTaken = telemetry::counterId("solver.steps");
    telemetry::addCounter(StepsTaken);
    if (!telemetry::gaugeDue(Steps))
      return;
    static const unsigned GaugeTime = telemetry::gaugeId("step.time");
    static const unsigned GaugeDt = telemetry::gaugeId("step.dt");
    static const unsigned GaugeEv = telemetry::gaugeId("step.max_eigen");
    static const unsigned GaugeMass = telemetry::gaugeId("step.mass");
    static const unsigned GaugeEnergy = telemetry::gaugeId("step.energy");
    static const unsigned GaugeMinRho = telemetry::gaugeId("step.min_density");
    static const unsigned GaugeMinP = telemetry::gaugeId("step.min_pressure");
    static const std::array<unsigned, Dim> GaugeMom = [] {
      std::array<unsigned, Dim> Ids{};
      for (unsigned A = 0; A < Dim; ++A) {
        std::string Name = "step.momentum" + std::to_string(A);
        Ids[A] = telemetry::gaugeId(Name.c_str());
      }
      return Ids;
    }();

    telemetry::recordGauge(GaugeTime, Steps, Time);
    telemetry::recordGauge(GaugeDt, Steps, Dt);
    telemetry::recordGauge(GaugeEv, Steps, LastMaxEigen);
    static const unsigned SpanSummarize = telemetry::spanId("solver.summarize");
    FieldHealth<Dim> H = [&] {
      telemetry::ScopedSpan Span(SpanSummarize);
      return summarize();
    }();
    H.reportMinima();
    telemetry::recordGauge(GaugeMass, Steps, H.Totals.Mass);
    for (unsigned A = 0; A < Dim; ++A)
      telemetry::recordGauge(GaugeMom[A], Steps, H.Totals.Momentum[A]);
    telemetry::recordGauge(GaugeEnergy, Steps, H.Totals.Energy);
    telemetry::recordGauge(GaugeMinRho, Steps, H.MinDensity);
    telemetry::recordGauge(GaugeMinP, Steps, H.MinPressure);

    // Pool stats are a pure function of the step structure (acquisitions
    // happen only on the driving thread), so these gauges stay
    // bit-identical across backends and worker counts.
    Pool.recordTelemetry(Steps);
  }

  void initializeField() {
    const Grid<Dim> &G = Prob.Domain;
    Shape Interior = G.interiorShape();
    Index Iv = Interior.delinearize(0);
    if (Interior.count() > 0) {
      do {
        std::array<double, Dim> X;
        for (unsigned A = 0; A < Dim; ++A)
          X[A] = G.cellCenter(A, Iv.Coord[A]);
        U.set(G.toStorage(Iv), toCons(Prob.InitialState(X), Prob.G));
      } while (Interior.increment(Iv));
    }
    Fill.apply(U, Exec, Time);
  }

  Problem<Dim> Prob;
  SchemeConfig Scheme;
  Backend &Exec;
  /// The ghost fill of Prob's grid and boundary spec, planned once.
  BoundaryFill<Dim> Fill;
  /// Declared before U and before any derived-class lease members: leases
  /// (destroyed in derived destructors, before this) return their buffers
  /// here, so the pool must be destroyed last.
  FieldPool Pool;
  Field<Dim> U;
  /// Stage kernels dispatch into the vectorized TU when set (the
  /// --no-simd ablation clears it).
  bool SimdEnabled = true;
  /// Cached grid geometry for the line decomposition.
  size_t N[Dim] = {};
  size_t StorageDim[Dim] = {};
  size_t StorageStride[Dim] = {};
  size_t InteriorStride[Dim] = {};
  double InvSpacing[Dim] = {};
  unsigned Ng = 0;
  double Time = 0.0;
  unsigned Steps = 0;
  /// Result of the last GetDT reduction (0 until computeDt runs).
  double LastMaxEigen = 0.0;
  /// The current field's GetDT maximum while MaxEigenCached holds: set by
  /// a step's final stage or a from-scratch reduction, dropped by apply,
  /// restoreClock and the mutable field() accessor.
  double CachedMaxEigen = 0.0;
  bool MaxEigenCached = false;
  /// Optional pre-BC ghost fill (shard halo exchange); empty by default.
  GhostFillHook GhostHook;
  /// summarize()'s per-slab partials, reused across calls.
  mutable std::vector<FieldHealth<Dim>> SlabPartials;
};

} // namespace sacfd

#endif // SACFD_SOLVER_EULERSOLVER_H
