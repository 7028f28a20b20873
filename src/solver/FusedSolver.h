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
///   - hand-fused stride-arithmetic loops (fast on one core — the left
///     edge of Fig. 4);
///   - every loop nest is its own parallel region dispatched through the
///     Backend, the way -autopar parallelizes each DO loop independently.
///     One 2D RK3 time step issues 6 regions (2 per stage: the ghost
///     fill of every side and the row pass, which is the whole stage);
///     with the fork-join backend each of those pays the thread-team
///     setup cost, which is the scaling collapse of Fig. 4.
///
/// Stages run through the shared driver EulerSolver::runStages: each
/// stage reads a stage input and writes its output out of place, Q^n is U
/// itself, and no Q^n snapshot exists.
///
/// The loop bodies themselves are the shared kernels:: layer: the stage
/// update and the GetDT reduction always run as contiguous line runs, and
/// so do the face fluxes.  Every 2D scheme runs one row pass per stage
/// serving both axes: once a row's face rows are solved, one stageUpdate
/// run folds both axes' flux differences into the updated row while the
/// faces are in cache, so no RHS is stored, and the row's GetDT maximum
/// is folded right after on the last stage.  Its face rows read cells
/// straight from the stage input.  Every scheme converts each
/// cell row once into a rolling primitive row (cellPrims), which feeds
/// the axis-0 faces above and below it and the row's own axis-1 faces.
/// Piecewise constant, fluxFaces solves a face row from two shifted views
/// of cells and planes.  A reconstructed scheme passes its stencils to
/// reconstructFaces as runs over the input's rows (axis 0, lanes across
/// columns) or shifted views of one row (axis 1), with the face
/// neighbours' planes beside them, and fluxFaces solves the face states.
/// The row pass keeps no
/// whole-field temporary but its stage fields, and since later rows still
/// read the input, it never writes its input.
/// 1D and 3D keep the per-axis structure: a zeroing region, one sweep
/// region per axis into a whole-field RHS, and an update region that
/// reduces GetDT on the last stage; its residual is complete before the
/// update, so a stage may write its own input.  There a reconstructed
/// scheme stages each line's stencil window once, converts its face
/// neighbours once, and runs it through reconstructFaces + fluxFaces
/// (EulerSolver::lineFaceFluxes).  So the
/// hot loops execute the vectorized kernel build.
///
/// The numerics (reconstruction, Riemann solver, stage table) and the
/// stage driver are shared with ArraySolver, so for identical settings
/// the two engines produce bit-identical fields, ghost cells included:
/// after a step U's ghosts hold the step's first-stage fill.
///
//===----------------------------------------------------------------------===//

#ifndef SACFD_SOLVER_FUSEDSOLVER_H
#define SACFD_SOLVER_FUSEDSOLVER_H

#include "runtime/BlockReduce.h"
#include "solver/EulerSolver.h"

#include <algorithm>

namespace sacfd {

/// The Fortran-style engine: fused stride-based loop nests.
template <unsigned Dim> class FusedSolver final : public EulerSolver<Dim> {
public:
  FusedSolver(Problem<Dim> Prob, SchemeConfig Scheme, Backend &Exec,
              bool Simd = true)
      : EulerSolver<Dim>(std::move(Prob), Scheme, Exec, Simd) {}

  const char *engineName() const override { return "fused"; }

protected:
  void stepWithDt(double Dt) override {
    static const unsigned SpanFlux = telemetry::spanId("solver.flux");
    auto MaxOf = [](double X, double Y) { return std::max(X, Y); };

    if constexpr (Dim == 2) {
      // The row pass is the whole stage for every scheme; it may not
      // write its input.
      const bool Stencils =
          this->Scheme.Recon != ReconstructionKind::PiecewiseConstant;
      auto RowPass = [&](const Field<Dim> &In, Field<Dim> &Out,
                         const SspStage &St, bool Last) {
        telemetry::ScopedSpan Sp(SpanFlux);
        return blockReduce2D(
            this->N[0], this->N[1], this->Exec, 0.0,
            [&](size_t RB, size_t RE, size_t CB, size_t CE) {
              return Stencils
                         ? stageRows2D<true>(St, Last, Dt, In, Out, RB, RE,
                                             CB, CE)
                         : stageRows2D<false>(St, Last, Dt, In, Out, RB, RE,
                                              CB, CE);
            },
            MaxOf);
      };
      this->runStages(/*WholeField=*/false, RowPass);
    } else {
      static const unsigned SpanUpdate = telemetry::spanId("solver.update");
      // Every RHS element is written by the zeroing region before it is
      // read.
      const Shape Interior = this->Prob.Domain.interiorShape();
      if (Res.shape() != Interior)
        Res = Field<Dim>(this->Pool, Interior, FieldInit::Uninit);
      auto PerAxis = [&](const Field<Dim> &In, Field<Dim> &Out,
                         const SspStage &St, bool Last) {
        {
          telemetry::ScopedSpan Sp(SpanFlux);
          fluxPhase(In);
        }
        // Update loop (one region): Out = A*U + B*(In + dt*Res) on the
        // interior, folded with GetDT on the last stage.  Runs over the
        // (line, cell) space so the backend can tile it; per-element
        // results are grouping-independent and the max chain is exact,
        // and the blocks are those of the from-scratch GetDT.
        constexpr unsigned LineAxis = Dim - 1;
        telemetry::ScopedSpan Sp(SpanUpdate);
        return blockReduce2D(
            this->lineCount(LineAxis), this->N[LineAxis], this->Exec, 0.0,
            [&](size_t LB, size_t LE, size_t CB, size_t CE) {
              return updateRange(St, Last, Dt, In, Out, LB, LE, CB, CE);
            },
            MaxOf);
      };
      this->runStages(/*WholeField=*/true, PerAxis);
    }
  }

private:
  /// One stage's flux phase on the per-axis path (1D and 3D): the RHS of
  /// the stage input \p In is zeroed in a region of its own, then one
  /// region sweeps each axis.  The backend may tile the 2D iteration
  /// space: faces are recomputed at sub-range seams, so tiled and
  /// flattened sweeps are bit-identical.
  void fluxPhase(const Field<Dim> &In) {
    static_assert(Dim != 2, "a 2D stage is the row pass");
    this->Exec.parallelFor(
        0, this->Prob.Domain.interiorCount(), [&](size_t B, size_t E) {
          kernels::zeroState<Dim>(Res.run(B), E - B, this->SimdEnabled);
        });
    for (unsigned Axis = 0; Axis < Dim; ++Axis) {
      // (line, cell-along-axis) is the sweep's iteration space.
      this->Exec.parallelFor2D(
          this->lineCount(Axis), this->N[Axis],
          [&, Axis](size_t LineBegin, size_t LineEnd, size_t CellBegin,
                    size_t CellEnd) {
            sweepRange(In, Axis, LineBegin, LineEnd, CellBegin, CellEnd);
          });
    }
  }

  /// One directional sweep of \p In over lines [LineBegin, LineEnd) x
  /// cells [CellBegin, CellEnd): per line, compute all bounding face fluxes
  /// into a scratch row, then accumulate the flux differences into
  /// the RHS (accumDivergence along the last axis, a strided per-cell
  /// loop along the others).  This is the fused Fortran structure:
  /// flux and difference in one pass over the line, no global flux
  /// array.  Each cell's
  /// update reads faces I and I+1 computed from the same clamped
  /// stencils regardless of the sub-range, so tiled and flattened sweeps
  /// are bit-identical (sub-range boundary faces are recomputed, not
  /// communicated).
  void sweepRange(const Field<Dim> &In, unsigned Axis, size_t LineBegin,
                  size_t LineEnd, size_t CellBegin, size_t CellEnd) {
    // Piecewise-constant faces of the last axis are contiguous face rows
    // fed to kernels::fluxFaces straight from the field.
    if (Axis == Dim - 1 && kernels::fluxKernelEligible(this->Scheme.Recon)) {
      sweepRangeKernelLastAxis(In, LineBegin, LineEnd, CellBegin, CellEnd);
      return;
    }

    const double InvDx = 1.0 / this->Prob.Domain.dx(Axis);
    // Faces CellBegin..CellEnd inclusive bound this cell sub-range; local
    // face f is global face CellBegin + f.
    size_t LocalFaces = (CellEnd - CellBegin) + 1;
    for (size_t Line = LineBegin; Line != LineEnd; ++Line) {
      kernels::ConstRun<Dim> Flux =
          this->lineFaceFluxes(In, Axis, Line, CellBegin, LocalFaces);
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
  void sweepRangeKernelLastAxis(const Field<Dim> &In, size_t LineBegin,
                                size_t LineEnd, size_t CellBegin,
                                size_t CellEnd) {
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
      kernels::ConstRun<Dim> Cells = In.crun(Base - 1);
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

  /// One 2D stage over interior rows [RB, RE) x columns [CB, CE): one
  /// pass down the rows serving both axes, reading \p In and writing the
  /// same cells of \p Out.  Two rolling flux rows hold axis-0 face rows i
  /// and i+1, and one flux row holds row i's axis-1 faces.  Per row i:
  /// solve axis-0 face row i+1 and row i's axis-1 faces, then one
  /// stageUpdate run writes Out row i = A*U + B*(In + dt*RHS) (U is Q^n)
  /// with each cell's RHS 0 - D0 - D1 formed in registers from the same
  /// face values, in the same order, as the per-axis sweeps accumulate
  /// it; on the \p Last stage the updated row's max CFL eigenvalue is
  /// folded after.
  ///
  /// Two rolling primitive rows hold cells [CB-1, CE] of rows i and
  /// i+1, so cellPrims converts each cell row once per stage (plus the
  /// row above the block at its seam); the seam rows (RB-1 and RE, ghost
  /// rows included) feed axis-0 faces only, so they are converted over
  /// columns [CB, CE).  \p Stencils picks the plane set and how a face
  /// row is solved.  Piecewise constant (false): the solver's planes, and
  /// fluxFaces reads two shifted views of cells and planes.  A
  /// reconstructed scheme (true): the reconstruction planes of the face
  /// neighbours, and reconstructFaces reads axis-0 face row F's stencil
  /// from rows F-3+s at column CB (lanes across columns) and row i's
  /// axis-1 stencils from row i shifted by s-3 columns, straight from
  /// \p In, then fluxFaces solves the face states.  With the grid's ghost
  /// layers every cell a stencilSpan run reads lies in storage, so
  /// nothing is clamped.  Either way no ghost corner is read.  A block
  /// reads only In (and U at its own cells) and writes only its own Out
  /// cells, so blocks and tiles have no seam hazards.
  /// \returns the block's maximum (0 unless \p Last).
  template <bool Stencils>
  double stageRows2D(const SspStage &St, bool Last, double Dt,
                     const Field<Dim> &In, Field<Dim> &Out, size_t RB,
                     size_t RE, size_t CB, size_t CE) {
    static_assert(Dim == 2, "the row pass is the 2D stage");
    const Gas &G = this->Prob.G;
    const SchemeConfig &SC = this->Scheme;
    const RiemannKind Kind = SC.Riemann;
    const bool Simd = this->SimdEnabled;
    const size_t S0 = this->StorageStride[0];
    const size_t W = CE - CB;

    // Storage offset of interior row R, column CB.  Primitive slot cell
    // j is column CB-1+j.
    auto RowBase = [&](size_t R) {
      return (this->Ng + R) * S0 + this->Ng + CB;
    };

    // A reconstructed scheme adds its two face-state rows.
    FluxScratch<Dim> Scratch = fluxScratch<Dim>(Stencils ? 7 : 5, W + 2);
    kernels::PrimRun<Dim> Prims[2] = {Scratch.prims(0), Scratch.prims(1)};
    kernels::Run<Dim> Rows[2] = {Scratch.run(2), Scratch.run(3)};
    kernels::Run<Dim> Row1 = Scratch.run(4);
    auto CellPrims = [&](size_t Base, const kernels::PrimRun<Dim> &P,
                         size_t Cells) {
      if constexpr (Stencils)
        kernels::cellPrims<Dim>(In.crun(Base), P, G, SC.Vars, Cells, Simd);
      else
        kernels::cellPrims<Dim>(In.crun(Base), P, G, Kind, Cells, Simd);
    };
    // The \p Faces faces along \p Axis between cells Base-Step and Base
    // (planes \p PL and \p PR) into \p Flux: a reconstructed face's
    // stencil cell s is element f of the run at Base + (s-3)*Step.
    auto SolveFaces = [&](size_t Base, size_t Step, unsigned Axis,
                          size_t Faces, const kernels::PrimRun<Dim> &PL,
                          const kernels::PrimRun<Dim> &PR,
                          const kernels::Run<Dim> &Flux) {
      if constexpr (Stencils) {
        kernels::Run<Dim> FaceL = Scratch.run(5), FaceR = Scratch.run(6);
        const kernels::StencilSpan Span = kernels::stencilSpan(SC.Recon);
        kernels::StencilRuns<Dim> Stencil;
        for (unsigned C = Span.First; C <= Span.Last; ++C)
          Stencil[C] = In.crun(Base + C * Step - 3 * Step);
        kernels::reconstructFaces<Dim>(Stencil, PL, PR, FaceL, FaceR, G, Axis,
                                       SC.Recon, SC.Limiter, SC.Vars, Faces,
                                       Simd);
        kernels::fluxFaces<Dim>(FaceL, FaceR, Flux, G, Axis, Kind, Faces,
                                Simd);
      } else {
        kernels::fluxFaces<Dim>(In.crun(Base - Step), PL, In.crun(Base), PR,
                                Flux, G, Axis, Kind, Faces, Simd);
      }
    };
    // Axis-0 face row RB+J, between rows F-1 and F, into Rows[J % 2]: row
    // F goes into the primitive slot (J+1) % 2 first, beside row F-1 in
    // slot J % 2 (converted here too when it is the block's seam row
    // RB-1).
    auto FaceRow0 = [&](size_t J) {
      const size_t F = RB + J, Hi = RowBase(F), Lo = Hi - S0;
      const kernels::PrimRun<Dim> &PLo = Prims[J % 2];
      const kernels::PrimRun<Dim> &PHi = Prims[(J + 1) % 2];
      if (J == 0)
        CellPrims(Lo, kernels::advance(PLo, 1), W);
      if (F == RE)
        CellPrims(Hi, kernels::advance(PHi, 1), W);
      else
        CellPrims(Hi - 1, PHi, W + 2);
      SolveFaces(Hi, S0, /*Axis=*/0, W, kernels::advance(PLo, 1),
                 kernels::advance(PHi, 1), Rows[J % 2]);
    };

    FaceRow0(0);
    double Acc = 0.0;
    for (size_t I = RB; I != RE; ++I) {
      size_t K = I - RB;
      // Face row I+1 replaces face row I-1, whose last cell row (I-1) is
      // done (and primitive row I+1 replaces row I-1; row I stays
      // resident for its axis-1 faces).
      FaceRow0(K + 1);

      const size_t Base = RowBase(I);
      const kernels::PrimRun<Dim> &Cur = Prims[(K + 1) % 2];
      SolveFaces(Base, 1, /*Axis=*/1, W + 1, Cur, kernels::advance(Cur, 1),
                 Row1);

      const kernels::ConstRun<Dim> Lo[Dim] = {Rows[K % 2], Row1};
      const kernels::ConstRun<Dim> Hi[Dim] = {Rows[(K + 1) % 2],
                                              kernels::advance(Row1, 1)};
      kernels::stageUpdate<Dim>(Out.run(Base), this->U.crun(Base),
                                In.crun(Base), Lo, Hi, this->InvSpacing,
                                St.PrevWeight, St.StageWeight, Dt, W, Simd);
      if (Last)
        Acc = this->runMaxEigen(Out, Base, W, Acc);
    }
    return Acc;
  }

  /// Stage \p St over lines [LB, LE) x cells [CB, CE) of the update
  /// space (lines along the last axis), one kernel run per line: Out =
  /// A*U + B*(In + dt*Res), and on the \p Last stage the updated run's max
  /// CFL eigenvalue is folded in (the next step's GetDT).  Out may be In
  /// or U: each cell reads only itself.  \returns that maximum (0 unless
  /// \p Last).
  double updateRange(const SspStage &St, bool Last, double Dt,
                     const Field<Dim> &In, Field<Dim> &Out, size_t LB,
                     size_t LE, size_t CB, size_t CE) {
    constexpr unsigned LineAxis = Dim - 1;
    double Acc = 0.0;
    for (size_t Line = LB; Line != LE; ++Line) {
      size_t SBase = this->lineStorageBase(LineAxis, Line) + CB;
      size_t RBase = Line * this->N[LineAxis] + CB;
      kernels::sspUpdate<Dim>(Out.run(SBase), this->U.crun(SBase),
                              In.crun(SBase), Res.crun(RBase), St.PrevWeight,
                              St.StageWeight, Dt, CE - CB, this->SimdEnabled);
      if (Last)
        Acc = this->runMaxEigen(Out, SBase, CE - CB, Acc);
    }
    return Acc;
  }

  /// The per-axis path's RHS scratch (1D and 3D), leased from the solver
  /// pool on the first step and held for the solver's lifetime.
  Field<Dim> Res;
};

} // namespace sacfd

#endif // SACFD_SOLVER_FUSEDSOLVER_H
