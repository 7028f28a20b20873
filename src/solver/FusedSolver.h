//===- solver/FusedSolver.h - Fortran-style loop-nest engine ---*- C++ -*-===//
//
// Part of SacFD, a reproduction of "Numerical Simulations of Unsteady Shock
// Wave Interactions Using SaC and Fortran-90" (PaCT 2009).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Fortran original: explicit loop nests over raw storage.
///
/// This engine is the performance shape of the paper's Fortran-90 code
/// under an auto-parallelizing compiler:
///   - hand-fused stride-arithmetic loops, no intermediate whole-array
///     temporaries beyond the per-axis flux line buffer (fast on one
///     core — the left edge of Fig. 4);
///   - every loop nest is its own parallel region dispatched through the
///     Backend, the way -autopar parallelizes each DO loop independently.
///     One 2D RK3 time step issues 24 regions (8 per stage: 4 boundary
///     sides, RHS zeroing, 2 axis sweeps, the update); with the fork-join
///     backend each of those pays the thread-team setup cost, which is
///     the scaling collapse of Fig. 4.  The update loop also takes the
///     Q^n snapshot of each run on the first stage and reduces the next
///     step's GetDT maximum on the last, so neither is a region of its
///     own.
///
/// The loop bodies themselves are the shared kernels:: layer: snapshot,
/// RHS zeroing, the SSP update and the GetDT reduction always run as
/// contiguous line runs, and so do the face fluxes.  Piecewise-constant
/// reconstruction reads cell rows straight from the field: cellPrims
/// converts each row to primitive planes once, and fluxFaces solves a
/// face row from two shifted views of cells and planes (line-local
/// scratch, rolling rows along the 2D axis 0).  Every other scheme
/// stages each line's stencil window once and runs it through
/// reconstructFaces + fluxFaces (EulerSolver::lineFaceFluxes).  So the
/// hot loops execute the vectorized kernel build.
///
/// On a TaskBackend the engine additionally offers a dependency-DAG step
/// mode (enableDagStepping): one step becomes per-tile flux and update
/// tasks linked by exact data dependencies, so a tile can run stage s+1
/// while a distant tile is still in stage s — no global barrier between
/// the regions.  The update tasks run the same updateRange as loop mode,
/// snapshot and GetDT partial included; the partials are merged in
/// row-major tile order after the graph drains.
///
/// The numerics (reconstruction, Riemann solver, stage table) are shared
/// with ArraySolver, so for identical settings the two engines produce
/// bit-identical fields.  The DAG mode preserves that: every task covers
/// the same cell sub-ranges a tiled loop run would, per-cell arithmetic
/// order within the RHS is fixed by tile-local axis ordering, and the
/// max-reduction is grouping-independent — so fields stay bit-identical
/// to serial at every worker count.
///
//===----------------------------------------------------------------------===//

#ifndef SACFD_SOLVER_FUSEDSOLVER_H
#define SACFD_SOLVER_FUSEDSOLVER_H

#include "runtime/BlockReduce.h"
#include "runtime/TaskBackend.h"
#include "solver/EulerSolver.h"

#include <algorithm>
#include <optional>
#include <vector>

namespace sacfd {

/// The Fortran-style engine: fused stride-based loop nests.
template <unsigned Dim> class FusedSolver final : public EulerSolver<Dim> {
public:
  FusedSolver(Problem<Dim> Prob, SchemeConfig Scheme, Backend &Exec,
              bool Simd = true)
      : EulerSolver<Dim>(std::move(Prob), Scheme, Exec, Simd) {}

  const char *engineName() const override { return "fused"; }

  /// Switches stepWithDt to the dependency-DAG pipeline.  Requires the
  /// backend to support DAG dispatch (Backend::taskBackend) and Dim <= 2.
  /// \returns false (leaving the loop mode active) when unsupported.
  bool enableDagStepping() {
    if constexpr (Dim > 2)
      return false;
    DagExec = this->Exec.taskBackend();
    return DagExec != nullptr;
  }

  /// True when steps run as a task DAG rather than barrier-ed regions.
  bool dagStepping() const { return DagExec != nullptr; }

protected:
  void stepWithDt(double Dt) override {
    if (DagExec) {
      if constexpr (Dim <= 2) {
        stepWithDtDag(Dt);
        return;
      }
    }
    static const unsigned SpanBoundary = telemetry::spanId("solver.boundary");
    static const unsigned SpanFlux = telemetry::spanId("solver.flux");
    static const unsigned SpanUpdate = telemetry::spanId("solver.update");
    size_t InteriorCount = this->Prob.Domain.interiorCount();

    // Both scratch buffers are leased on first use; every element read is
    // written first (Un by the first stage's update), so the uninit mode
    // applies.
    acquireStepBuffers();

    const std::span<const SspStage> Stages =
        sspStages(this->Scheme.Integrator);
    for (size_t S = 0; S < Stages.size(); ++S) {
      {
        telemetry::ScopedSpan Sp(SpanBoundary);
        this->fillGhosts(this->Time);
      }

      {
        // RHS zeroing plus the directional sweeps (reconstruction +
        // Riemann fluxes + divergence, one region per axis).
        telemetry::ScopedSpan Sp(SpanFlux);
        this->Exec.parallelFor(0, InteriorCount, [&](size_t B, size_t E) {
          kernels::zeroState<Dim>(Res.run(B), E - B, this->SimdEnabled);
        });
        for (unsigned Axis = 0; Axis < Dim; ++Axis) {
          // (line, cell-along-axis) is the 2D iteration space; the
          // backend may tile it.  Faces are recomputed at sub-range
          // seams, so tiled and flattened sweeps are bit-identical.
          this->Exec.parallelFor2D(
              this->lineCount(Axis), this->N[Axis],
              [&, Axis](size_t LineBegin, size_t LineEnd, size_t CellBegin,
                        size_t CellEnd) {
                sweepRange(Axis, LineBegin, LineEnd, CellBegin, CellEnd);
              });
        }
      }

      // Update loop (one region): U = A*Un + B*(U + dt*Res) on interior,
      // folded with the snapshot (first stage) and GetDT (last stage).
      // Runs over the 2D (line, cell) space so the backend can tile it;
      // per-element results are grouping-independent and the max chain is
      // exact, and the blocks are those of the from-scratch GetDT.
      constexpr unsigned LineAxis = Dim - 1;
      const bool First = S == 0, Last = S + 1 == Stages.size();
      telemetry::ScopedSpan UpdateSpan(SpanUpdate);
      double EvMax = blockReduce2D(
          this->lineCount(LineAxis), this->N[LineAxis], this->Exec, 0.0,
          [&](size_t LB, size_t LE, size_t CB, size_t CE) {
            return updateRange(Stages[S], First, Last, Dt, LB, LE, CB, CE);
          },
          [](double X, double Y) { return std::max(X, Y); });
      if (Last)
        this->cacheMaxEigen(EvMax);
    }
  }

private:
  void acquireStepBuffers() {
    const Grid<Dim> &G = this->Prob.Domain;
    if (Un.shape() != this->U.shape())
      Un = Field<Dim>(this->Pool, this->U.shape(), FieldInit::Uninit);
    if (Res.shape() != G.interiorShape())
      Res = Field<Dim>(this->Pool, G.interiorShape(), FieldInit::Uninit);
  }

  /// True when the \p Axis sweep feeds kernels::fluxFaces straight from
  /// the field instead of staging stencil windows: the
  /// reconstruction must be piecewise-constant (face states are the
  /// adjacent cells), and the face rows must be contiguous in storage —
  /// the last axis always is; a 2D axis-0 sweep is restructured into
  /// row runs below.
  bool fluxKernelSweep(unsigned Axis) const {
    return kernels::fluxKernelEligible(this->Scheme.Recon) &&
           (Axis == Dim - 1 || (Dim == 2 && Axis == 0));
  }

  /// One directional sweep over lines [LineBegin, LineEnd) x cells
  /// [CellBegin, CellEnd): per line, compute all bounding face fluxes
  /// into a scratch row, then accumulate the flux differences into
  /// the RHS (accumDivergence along the last axis, a strided per-cell
  /// loop along the others).  This is the fused Fortran structure:
  /// flux and difference in one pass over the line, no global flux
  /// array.  Each cell's
  /// update reads faces I and I+1 computed from the same clamped
  /// stencils regardless of the sub-range, so tiled, flattened and
  /// task-decomposed sweeps are bit-identical (sub-range boundary faces
  /// are recomputed, not communicated).
  void sweepRange(unsigned Axis, size_t LineBegin, size_t LineEnd,
                  size_t CellBegin, size_t CellEnd) {
    if (fluxKernelSweep(Axis)) {
      if (Axis == Dim - 1) {
        sweepRangeKernelLastAxis(LineBegin, LineEnd, CellBegin, CellEnd);
      } else {
        if constexpr (Dim == 2)
          sweepRangeKernelAxis0(LineBegin, LineEnd, CellBegin, CellEnd);
      }
      return;
    }

    const double InvDx = 1.0 / this->Prob.Domain.dx(Axis);
    // Faces CellBegin..CellEnd inclusive bound this cell sub-range; local
    // face f is global face CellBegin + f.
    size_t LocalFaces = (CellEnd - CellBegin) + 1;
    for (size_t Line = LineBegin; Line != LineEnd; ++Line) {
      kernels::ConstRun<Dim> Flux =
          this->lineFaceFluxes(Axis, Line, CellBegin, LocalFaces);
      size_t RBase = this->lineInteriorBase(Axis, Line);
      if (Axis == Dim - 1) {
        // The line's cells are contiguous in the RHS too.
        kernels::accumDivergence<Dim>(Res.run(RBase + CellBegin), Flux,
                                      kernels::advance(Flux, 1), InvDx,
                                      CellEnd - CellBegin, this->SimdEnabled);
      } else if constexpr (Dim > 1) {
        size_t RStride = this->InteriorStride[Axis];
        for (size_t I = CellBegin; I != CellEnd; ++I) {
          size_t LocalF = I - CellBegin;
          size_t RI = RBase + I * RStride;
          Res.store(RI, Res.load(RI) -
                            (kernels::loadCons<Dim>(Flux, LocalF + 1) -
                             kernels::loadCons<Dim>(Flux, LocalF)) *
                                InvDx);
        }
      }
    }
  }

  /// Kernel form of the last-axis sweep, per line: one cellPrims run
  /// over the LocalFaces + 1 cells the faces touch, one fluxFaces run
  /// over the faces from two shifted views of those cells and their
  /// primitives (unit-stride SoA scratch, so the SIMD mirror applies),
  /// then one accumDivergence run into the RHS.  Face values and the
  /// per-cell accumulation are bit-identical to the staged form — the
  /// kernels mirror numericalFlux term for term.
  void sweepRangeKernelLastAxis(size_t LineBegin, size_t LineEnd,
                                size_t CellBegin, size_t CellEnd) {
    constexpr unsigned Axis = Dim - 1;
    const double InvDx = 1.0 / this->Prob.Domain.dx(Axis);
    const Gas &G = this->Prob.G;
    const RiemannKind Kind = this->Scheme.Riemann;
    const bool Simd = this->SimdEnabled;
    size_t LocalFaces = (CellEnd - CellBegin) + 1;
    FluxScratch<Dim> Scratch = fluxScratch<Dim>(2, LocalFaces + 1);
    kernels::PrimRun<Dim> Prims = Scratch.prims(0);
    kernels::Run<Dim> FluxRow = Scratch.run(1);
    for (size_t Line = LineBegin; Line != LineEnd; ++Line) {
      size_t Base = this->lineStorageBase(Axis, Line) + CellBegin;
      // Face f (local) sits between storage cells Base+f-1 and Base+f;
      // cell Base-1 is the ghost neighbor when CellBegin == 0.
      kernels::ConstRun<Dim> Cells = this->U.crun(Base - 1);
      kernels::cellPrims<Dim>(Cells, Prims, G, Kind, LocalFaces + 1, Simd);
      kernels::fluxFaces<Dim>(Cells, Prims, kernels::advance(Cells, 1),
                              kernels::advance(Prims, 1), FluxRow, G, Axis,
                              Kind, LocalFaces, Simd);
      size_t RBase = this->lineInteriorBase(Axis, Line) + CellBegin;
      kernels::ConstRun<Dim> Lo = FluxRow;
      kernels::accumDivergence<Dim>(Res.run(RBase), Lo,
                                    kernels::advance(Lo, 1), InvDx,
                                    CellEnd - CellBegin, Simd);
    }
  }

  /// Kernel form of the 2D axis-0 sweep.  The sweep space is transposed
  /// (lines = columns, cells = rows), so contiguous runs go across the
  /// line range: cell row r is converted once (cellPrims) into one of
  /// two rolling primitive rows, face row f is computed once from cell
  /// rows f-1 and f into one of two rolling flux rows, and cell row i
  /// consumes face rows i and i+1.  Each cell row is converted once per
  /// sweep range, plus the row below it at a range seam.  Same face
  /// values, same single accumulation per cell as the staged form.
  void sweepRangeKernelAxis0(size_t LineBegin, size_t LineEnd,
                             size_t CellBegin, size_t CellEnd) {
    static_assert(Dim == 2, "axis-0 kernel sweep is the 2D restructure");
    const double InvDx = 1.0 / this->Prob.Domain.dx(0);
    const Gas &G = this->Prob.G;
    const RiemannKind Kind = this->Scheme.Riemann;
    const bool Simd = this->SimdEnabled;
    const size_t S0 = this->StorageStride[0];
    size_t W = LineEnd - LineBegin;

    // Storage offset of the R-side cell row of face row f: interior row
    // f, columns [LineBegin, LineEnd).
    auto FaceRowBase = [&](size_t F) {
      return (this->Ng + F) * S0 + this->Ng + LineBegin;
    };
    auto Convert = [&](size_t Base, const kernels::PrimRun<Dim> &P) {
      kernels::cellPrims<Dim>(this->U.crun(Base), P, G, Kind, W, Simd);
    };
    auto Faces = [&](size_t F, const kernels::PrimRun<Dim> &Lo,
                     const kernels::PrimRun<Dim> &Hi,
                     const kernels::Run<Dim> &Out) {
      kernels::fluxFaces<Dim>(this->U.crun(FaceRowBase(F) - S0), Lo,
                              this->U.crun(FaceRowBase(F)), Hi, Out, G,
                              /*Axis=*/0, Kind, W, Simd);
    };

    FluxScratch<Dim> Scratch = fluxScratch<Dim>(4, W);
    kernels::PrimRun<Dim> Prims[2] = {Scratch.prims(0), Scratch.prims(1)};
    kernels::Run<Dim> Rows[2] = {Scratch.run(2), Scratch.run(3)};
    Convert(FaceRowBase(CellBegin) - S0, Prims[0]);
    Convert(FaceRowBase(CellBegin), Prims[1]);
    Faces(CellBegin, Prims[0], Prims[1], Rows[0]);
    for (size_t I = CellBegin; I != CellEnd; ++I) {
      size_t K = I - CellBegin;
      // Cell row I+1 replaces row I-1, whose last face (I) is done.
      Convert(FaceRowBase(I + 1), Prims[K % 2]);
      Faces(I + 1, Prims[(K + 1) % 2], Prims[K % 2], Rows[(K + 1) % 2]);
      size_t RBase = I * this->N[1] + LineBegin;
      kernels::accumDivergence<Dim>(Res.run(RBase), Rows[K % 2],
                                    Rows[(K + 1) % 2], InvDx, W, Simd);
    }
  }

  /// Stage \p St over lines [LB, LE) x cells [CB, CE) of the update
  /// space (lines along the last axis), one kernel run per line: on the
  /// \p First stage the run is copied into Un before it is overwritten,
  /// then U = A*Un + B*(U + dt*Res), and on the \p Last stage the updated
  /// run's max CFL eigenvalue is folded in (the next step's GetDT).
  /// \returns that maximum (0 unless \p Last).
  double updateRange(const SspStage &St, bool First, bool Last, double Dt,
                     size_t LB, size_t LE, size_t CB, size_t CE) {
    constexpr unsigned LineAxis = Dim - 1;
    double Acc = 0.0;
    for (size_t Line = LB; Line != LE; ++Line) {
      size_t SBase = this->lineStorageBase(LineAxis, Line) + CB;
      size_t RBase = Line * this->N[LineAxis] + CB;
      if (First)
        kernels::copyState<Dim>(this->U.crun(SBase), Un.run(SBase), CE - CB,
                                this->SimdEnabled);
      kernels::sspUpdate<Dim>(this->U.run(SBase), Un.crun(SBase),
                              Res.crun(RBase), St.PrevWeight, St.StageWeight,
                              Dt, CE - CB, this->SimdEnabled);
      if (Last)
        Acc = this->runMaxEigen(SBase, CE - CB, Acc);
    }
    return Acc;
  }

  //===--------------------------------------------------------------------===//
  // Dependency-DAG step mode (TaskBackend only, Dim <= 2)
  //
  // The interior is carved once into the backend's TileGrid over the
  // update space (lines x cells-along-last-axis; automatic tile sizes
  // when --tile is off).  One step becomes, per tile T and stage s:
  //
  //   Bnd(s)                  ghost fill, serial inside one task
  //   Flux(s, axis, T)        zero T's RHS (first axis only), then the
  //                           directional sweep restricted to T
  //   Upd(s, T)               updateRange on T: the snapshot U -> Un
  //                           first (s = 0), the SSP update, and T's
  //                           max-eigenvalue partial (last s)
  //
  // After the graph drains, the partials merge in row-major tile order
  // into the next step's GetDT maximum.
  //
  // Edges encode exact data dependencies, including the anti-dependencies
  // "every flux task reading a tile's U runs before that tile's update
  // overwrites it" and "a stage's boundary task waits for the previous
  // stage's updates of every edge-band tile".  Ghost-reading flux tasks
  // depend on their stage's boundary task; interior tiles don't, which is
  // precisely the pipelining headroom.  Determinism: each task covers the
  // same cell sub-ranges as a tiled loop run, the per-cell RHS sequence
  // (zero, -axis0, -axis1) is fixed by the tile-local flux chain, and the
  // dt merge is an exact max — so any steal order yields bit-identical
  // fields and telemetry gauges.
  //===--------------------------------------------------------------------===//

  enum DagNodeKind : uint64_t {
    KBnd = 0,
    KFlux = 1,
    KUpd = 2,
  };

  static uint64_t dagPayload(DagNodeKind Kind, unsigned Axis, size_t Stage,
                             size_t TileIndex) {
    return static_cast<uint64_t>(Kind) | (static_cast<uint64_t>(Axis) << 3) |
           (static_cast<uint64_t>(Stage) << 6) |
           (static_cast<uint64_t>(TileIndex) << 16);
  }

  /// Tile-row/col index of interior coordinate \p C along an axis with
  /// nominal tile size \p TileDim (TileGrid tiles cover
  /// [i*TileDim, min((i+1)*TileDim, Extent))).
  static size_t tileIndexOf(size_t C, size_t TileDim) { return C / TileDim; }

  /// True when \p R contains interior cells within Ng of any domain
  /// face — the cells applyBoundaries reads (and, for periodic, copies
  /// from the opposite band, which is also covered).
  bool rectTouchesEdgeBand(const TileRect &R, const TileGrid &G) const {
    if (Dim >= 2 && (R.RowBegin < this->Ng || R.RowEnd + this->Ng > G.rows()))
      return true;
    return R.ColBegin < this->Ng || R.ColEnd + this->Ng > G.cols();
  }

  /// The update-space tile indices whose U cells a flux task over tile
  /// \p Ti along \p Axis reads (its own tile plus up to a 3-cell stencil
  /// reach into neighbors), appended to \p Out.  \p GhostRead reports
  /// whether the clamped stencil extends into ghost cells.
  void fluxReadTiles(const TileGrid &G, unsigned Axis, size_t Ti,
                     std::vector<size_t> &Out, bool &GhostRead) const {
    TileRect R = G.rect(Ti);
    constexpr unsigned LineAxis = Dim - 1;
    if (Axis == LineAxis) {
      // Sweep along columns: reads cols [ColBegin-3, ColEnd+2] of its
      // own tile rows.
      size_t Lo = R.ColBegin < 3 ? 0 : R.ColBegin - 3;
      size_t Hi = std::min(R.ColEnd + 2, G.cols() - 1);
      GhostRead = R.ColBegin < 3 || R.ColEnd + 2 > G.cols() - 1;
      size_t TRow = Ti / G.colTiles();
      for (size_t TC = tileIndexOf(Lo, G.tileCols());
           TC <= tileIndexOf(Hi, G.tileCols()); ++TC)
        Out.push_back(TRow * G.colTiles() + TC);
      return;
    }
    // 2D axis-0 sweep along rows: reads rows [RowBegin-3, RowEnd+2] of
    // its own tile columns.
    size_t Lo = R.RowBegin < 3 ? 0 : R.RowBegin - 3;
    size_t Hi = std::min(R.RowEnd + 2, G.rows() - 1);
    GhostRead = R.RowBegin < 3 || R.RowEnd + 2 > G.rows() - 1;
    size_t TCol = Ti % G.colTiles();
    for (size_t TR = tileIndexOf(Lo, G.tileRows());
         TR <= tileIndexOf(Hi, G.tileRows()); ++TR)
      Out.push_back(TR * G.colTiles() + TCol);
  }

  void buildStepDag() {
    constexpr unsigned LineAxis = Dim - 1;
    size_t Lines = this->lineCount(LineAxis);
    Tile T = this->Exec.tile();
    if (!T.Enabled)
      T = Tile::automatic();
    DagGrid.emplace(Lines, this->N[LineAxis], T);
    const TileGrid &G = *DagGrid;
    size_t K = G.count();
    DtPartials.assign(K, 0.0);
    Dag.clear();

    const auto &Stages = sspStages(this->Scheme.Integrator);
    std::vector<size_t> PrevUpd(K), Upd(K), LastFlux(K);
    std::vector<size_t> Reads;

    for (size_t S = 0; S < Stages.size(); ++S) {
      size_t Bnd = Dag.add(dagPayload(KBnd, 0, S, 0));
      if (S > 0)
        for (size_t Ti = 0; Ti < K; ++Ti)
          if (rectTouchesEdgeBand(G.rect(Ti), G))
            Dag.addDep(PrevUpd[Ti], Bnd);

      for (size_t Ti = 0; Ti < K; ++Ti)
        Upd[Ti] = Dag.add(dagPayload(KUpd, 0, S, Ti));

      for (unsigned Axis = 0; Axis < Dim; ++Axis)
        for (size_t Ti = 0; Ti < K; ++Ti) {
          size_t F = Dag.add(dagPayload(KFlux, Axis, S, Ti));
          if (Axis > 0)
            // Per-cell RHS sequence: zero, -axis0, -axis1 — same order
            // as the loop mode, hence bit-identical accumulation.
            Dag.addDep(LastFlux[Ti], F);
          LastFlux[Ti] = F;
          bool GhostRead = false;
          Reads.clear();
          fluxReadTiles(G, Axis, Ti, Reads, GhostRead);
          for (size_t R : Reads) {
            if (S > 0)
              Dag.addDep(PrevUpd[R], F); // U produced by previous stage
            Dag.addDep(F, Upd[R]);       // before R's update overwrites U
          }
          if (GhostRead)
            Dag.addDep(Bnd, F); // ghosts filled by this stage's boundary
        }
      PrevUpd = Upd;
    }
  }

  void runDagNode(uint64_t Payload, double Dt) {
    const TileGrid &G = *DagGrid;
    auto Kind = static_cast<DagNodeKind>(Payload & 0x7);
    auto Axis = static_cast<unsigned>((Payload >> 3) & 0x7);
    auto Stage = static_cast<size_t>((Payload >> 6) & 0x3FF);
    auto Ti = static_cast<size_t>(Payload >> 16);
    constexpr unsigned LineAxis = Dim - 1;

    switch (Kind) {
    case KBnd:
      // Runs serially inside this one task (nested parallelFor calls
      // from a task body execute inline).  Same start-of-step Time for
      // every stage, matching the loops mode bit for bit.
      this->fillGhosts(this->Time);
      return;
    case KFlux: {
      TileRect R = G.rect(Ti);
      if (Axis == 0) {
        // First axis of the stage zeroes this tile's RHS before
        // accumulating into it.
        for (size_t Line = R.RowBegin; Line != R.RowEnd; ++Line) {
          size_t Base = Line * this->N[LineAxis] + R.ColBegin;
          kernels::zeroState<Dim>(Res.run(Base), R.ColEnd - R.ColBegin,
                                  this->SimdEnabled);
        }
      }
      if (Axis == LineAxis)
        sweepRange(Axis, R.RowBegin, R.RowEnd, R.ColBegin, R.ColEnd);
      else
        // The 2D axis-0 sweep space is (lines = cols, cells = rows);
        // the update-space tile maps onto it transposed.
        sweepRange(Axis, R.ColBegin, R.ColEnd, R.RowBegin, R.RowEnd);
      return;
    }
    case KUpd: {
      TileRect R = G.rect(Ti);
      const std::span<const SspStage> Stages =
          sspStages(this->Scheme.Integrator);
      const bool Last = Stage + 1 == Stages.size();
      double EvMax = updateRange(Stages[Stage], Stage == 0, Last, Dt,
                                 R.RowBegin, R.RowEnd, R.ColBegin, R.ColEnd);
      if (Last)
        DtPartials[Ti] = EvMax;
      return;
    }
    }
  }

  void stepWithDtDag(double Dt) {
    static const unsigned SpanStep = telemetry::spanId("solver.step_dag");
    telemetry::ScopedSpan Span(SpanStep);
    acquireStepBuffers();
    if (!DagGrid)
      buildStepDag();
    DagExec->runDag(Dag,
                    [&](uint64_t Payload) { runDagNode(Payload, Dt); });
    double EvMax = 0.0;
    for (double V : DtPartials)
      EvMax = std::max(EvMax, V);
    this->cacheMaxEigen(EvMax);
  }

  /// Snapshot (QN) and RHS scratch, leased from the solver pool on first
  /// step and held for the solver's lifetime.
  Field<Dim> Un;
  Field<Dim> Res;

  /// Non-null when DAG stepping is enabled (the backend, downcast once).
  TaskBackend *DagExec = nullptr;
  /// The reusable step graph and its tile decomposition.
  TaskDag Dag;
  std::optional<TileGrid> DagGrid;
  /// Per-tile GetDT partials of the last stage's update tasks (indexed
  /// by tile, merged in tile order).
  std::vector<double> DtPartials;
};

} // namespace sacfd

#endif // SACFD_SOLVER_FUSEDSOLVER_H
