//===- solver/ArraySolver.h - SaC-style data-parallel engine ---*- C++ -*-===//
//
// Part of SacFD, a reproduction of "Numerical Simulations of Unsteady Shock
// Wave Interactions Using SaC and Fortran-90" (PaCT 2009).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The SaC port: the solver expressed as whole-array definitions.
///
/// Every numerical stage is a whole-array operation over an index space,
/// exactly mirroring the SaC listing in the paper: the GetDT reduction is
/// the paper's getDt (set notation + maxval reduction), the face sweep is
/// a genarray with-loop over the face index space, and the Runge-Kutta
/// combine is one fused modarray.  The code is rank-generic: this single
/// class instantiates the 1D Sod tube and the 2D interaction ("our code
/// makes use of this fact to reuse function bodies for a one dimensional
/// and two dimensional shockwave simulation").
///
/// Two evaluation modes model the SaC compiler's optimization level:
///   Fused        with-loops compose whole pipelines per pass (sac2c
///                after with-loop folding — the paper's "collating many
///                small operations into fewer larger operations").  A 2D
///                stage is three with-loops: the ghost fill (every side
///                in one region), one flux with-loop that yields both
///                axes' flux fields, and one combine with-loop that folds
///                the residual into the update cell by cell (one
///                kernels::stageUpdate run per row) and the next step's
///                GetDT reduction (last stage), so no residual exists,
///                not even a scratch row;
///                1D and 3D run one flux with-loop per axis.  Like a
///                with-loop, a stage defines a new
///                array: it reads its input and writes its output out of
///                place through the shared stage driver
///                (EulerSolver::runStages), Q^n is U itself, and no
///                snapshot exists.
///                The per-stage arithmetic runs through the shared
///                kernels:: layer, so contiguous runs take the vectorized
///                build — this mode models the optimized compiler output.
///                Its piecewise-constant 2D flux with-loop converts each
///                cell to primitives once per stage (cellPrims, into two
///                rolling rows that feed the axis-0 faces above and below
///                a row and the row's own axis-1 faces) and solves face
///                rows from shifted views of them, in line-local scratch:
///                no whole-field primitive array exists.
///   Materialized every intermediate array is allocated and filled (the
///                naive lowering; ablation A1 measures the gap).  It keeps
///                its own stage loop: an AoS Q^n snapshot, then every
///                stage fills U's ghosts and updates U in place.
///
/// Both modes produce bit-identical interiors: the kernels mirror the
/// reference expressions term for term (see kernels/KernelsTU.inc).
/// Fused mode matches the fused engine on full storage, ghosts included
/// (U's ghosts hold the step's first-stage fill); materialized mode
/// leaves the last stage's fill.
///
//===----------------------------------------------------------------------===//

#ifndef SACFD_SOLVER_ARRAYSOLVER_H
#define SACFD_SOLVER_ARRAYSOLVER_H

#include "array/Reductions.h"
#include "array/WithLoop.h"
#include "runtime/BlockReduce.h"
#include "solver/EulerSolver.h"

#include <algorithm>
#include <array>

namespace sacfd {

/// How aggressively the array pipeline is fused (models sac2c optimization).
enum class ArrayEvalMode {
  Fused,
  Materialized,
};

/// The SaC-style engine: whole-array with-loop formulation.
template <unsigned Dim> class ArraySolver final : public EulerSolver<Dim> {
public:
  ArraySolver(Problem<Dim> Prob, SchemeConfig Scheme, Backend &Exec,
              ArrayEvalMode Mode = ArrayEvalMode::Fused, bool Simd = true)
      : EulerSolver<Dim>(std::move(Prob), Scheme, Exec, Simd), Mode(Mode) {}

  const char *engineName() const override { return "array"; }
  ArrayEvalMode evalMode() const { return Mode; }

protected:
  void stepWithDt(double Dt) override {
    if (Mode == ArrayEvalMode::Fused)
      stepFused(Dt);
    else
      stepMaterialized(Dt);
  }

  /// The paper's getDt:
  ///   c  = sqrt(GAM * p(qp) / rho(qp));
  ///   d  = fabs(u(qp));
  ///   ev = { iv -> sum((d[iv] + c[iv]) / DELTA) };
  ///   return CFL / maxval(ev);
  /// Fused mode feeds the set notation straight into the max reduction,
  /// line by line through the shared maxEigen kernel (the EulerSolver
  /// default); after a step its combine already folded it.
  double reduceMaxEigen() override {
    if (Mode == ArrayEvalMode::Fused)
      return EulerSolver<Dim>::reduceMaxEigen();

    // Materialized: ev is an explicit temporary array, like unoptimized
    // SaC would allocate for the set notation before reducing it.  The
    // buffer is leased (every element is written, so uninit is safe).
    const Grid<Dim> &G = this->Prob.Domain;
    const Gas &Gas_ = this->Prob.G;
    auto EvAt = [this, &G, &Gas_](const Index &Iv) {
      Prim<Dim> W = toPrim(this->U.at(G.toStorage(Iv)), Gas_);
      double Ev = 0.0;
      for (unsigned A = 0; A < Dim; ++A)
        Ev += maxWaveSpeed(W, Gas_, A) * this->InvSpacing[A];
      return Ev;
    };
    FieldPool::Lease<double> Ev =
        this->Pool.template acquireUninit<double>(G.interiorShape());
    withLoopInto(*Ev, this->Exec, EvAt);
    return maxval(*Ev, this->Exec);
  }

private:
  //===--------------------------------------------------------------------===//
  // Fused mode: every stage routed through the kernels:: layer.
  //===--------------------------------------------------------------------===//

  /// One step as whole-field stages: per stage, the flux with-loop(s) of
  /// the stage input and the combine.  The combine reads only the fluxes
  /// (and U and In at its own cells), so a stage may write its input.
  void stepFused(double Dt) {
    static const unsigned SpanFlux = telemetry::spanId("solver.flux");
    static const unsigned SpanUpdate = telemetry::spanId("solver.update");
    auto Body = [&](const Field<Dim> &In, Field<Dim> &Out,
                    const SspStage &St, bool Last) {
      std::array<Field<Dim>, Dim> Flux;
      {
        // Reconstruction + Riemann fluxes: one with-loop for both axes
        // in 2D, one per axis otherwise.
        telemetry::ScopedSpan Sp(SpanFlux);
        if constexpr (Dim == 2)
          Flux = fluxBothAxes2D(In);
        else
          for (unsigned A = 0; A < Dim; ++A)
            Flux[A] = fluxAlongFused(In, A);
      }
      telemetry::ScopedSpan Sp(SpanUpdate);
      return combineFused(Flux, In, Out, St, Dt, Last);
    };
    this->runStages(/*WholeField=*/true, Body);
  }

  /// The stage's combine with-loop over the interior rows (lines along
  /// the last axis).  Per row run it folds what the unfused formulation
  /// runs as separate whole-field passes:
  ///   - the residual L(In) = -sum_axis dF_axis/dx_axis and the modarray
  ///     Out = A * U + B * (In + dt * Res), U being Q^n, as one
  ///     kernels::stageUpdate run: each cell's residual starts at 0 and
  ///     takes the axis-ordered divergences in registers — the same
  ///     per-cell sequence as the materialized sum, so fields stay
  ///     bit-identical, and no residual is stored;
  ///   - on the \p Last stage, the GetDT max eigenvalue of the updated
  ///     row.
  /// The with-loop is a blockReduce2D fold over the same space and blocks
  /// as the from-scratch GetDT, the way sac2c folds a with-loop into the
  /// reduction consuming it.  \returns the maximum (0 unless \p Last).
  double combineFused(const std::array<Field<Dim>, Dim> &Flux,
                      const Field<Dim> &In, Field<Dim> &Out,
                      const SspStage &Stage, double Dt, bool Last) {
    constexpr unsigned LineAxis = Dim - 1;
    const Shape Interior = this->Prob.Domain.interiorShape();
    const bool Simd = this->SimdEnabled;

    // Per-axis face geometry: the face shape of that axis and the stride
    // from a cell's low face to its high face.
    std::array<Shape, Dim> FaceShape;
    std::array<size_t, Dim> HiStride;
    for (unsigned A = 0; A < Dim; ++A) {
      FaceShape[A] = Interior;
      FaceShape[A].dim(A) += 1;
      size_t Stride = 1;
      for (unsigned B = Dim; B-- > A + 1;)
        Stride *= FaceShape[A].dim(B);
      HiStride[A] = Stride;
    }
    // Leading coordinates (all axes but the last) of interior row Line,
    // in the row-major order of EulerSolver::lineStorageBase.
    Shape Lead = Shape::uniform(Dim == 1 ? 1 : Dim - 1, 1);
    for (unsigned A = 0; A + 1 < Dim; ++A)
      Lead.dim(A) = Interior.dim(A);

    const double A = Stage.PrevWeight, B = Stage.StageWeight;
    return blockReduce2D(
        this->lineCount(LineAxis), this->N[LineAxis], this->Exec, 0.0,
        [&](size_t LB, size_t LE, size_t CB, size_t CE) {
          const size_t Len = CE - CB;
          double Acc = 0.0;
          for (size_t Line = LB; Line != LE; ++Line) {
            Index F = Lead.delinearize(Line);
            F.Rank = Dim;
            F.Coord[Dim - 1] = static_cast<std::ptrdiff_t>(CB);
            kernels::ConstRun<Dim> Lo[Dim], Hi[Dim];
            for (unsigned Ax = 0; Ax < Dim; ++Ax) {
              size_t Off = FaceShape[Ax].linearize(F);
              Lo[Ax] = Flux[Ax].crun(Off);
              Hi[Ax] = Flux[Ax].crun(Off + HiStride[Ax]);
            }
            size_t SBase = this->lineStorageBase(LineAxis, Line) + CB;
            kernels::stageUpdate<Dim>(Out.run(SBase), this->U.crun(SBase),
                                      In.crun(SBase), Lo, Hi,
                                      this->InvSpacing, A, B, Dt, Len, Simd);
            if (Last)
              Acc = this->runMaxEigen(Out, SBase, Len, Acc);
          }
          return Acc;
        },
        [](double X, double Y) { return std::max(X, Y); });
  }

  /// Both flux fields of the 2D stage input \p In from one with-loop: a
  /// parallelFor2D over the (N0+1) x (N1+1) rectangle bounding both face
  /// spaces, whose element (F, C) stands for axis-0 face (F, C) when C <
  /// N1 and axis-1 face (F, C) when F < N0, so each face is computed by
  /// exactly one block.  The with-loop yields two arrays, the way sac2c
  /// fuses with-loops over a shared generator.
  ///
  /// Piecewise constant: down each block's face rows F, two rolling
  /// primitive rows hold cell rows F-1 and F over columns [CB-1, CE-1]
  /// (cellPrims converts each cell row once per block, plus the row above
  /// the block at its seam); axis-0 face row F reads both, row F's axis-1
  /// faces read row F, and kernels::fluxFaces solves each face row from
  /// two shifted views of cells and planes.  The seam row and the ghost
  /// row past the last face row feed axis-0 faces only, so they are
  /// converted over columns [CB, min(CE, N1)) and no ghost corner is
  /// read.  Every other scheme runs a staged-window run per line of the
  /// block (faceRun).  A face's inputs do not depend on the block it
  /// falls in, so any blocking writes bit-identical fluxes.
  std::array<Field<Dim>, Dim> fluxBothAxes2D(const Field<Dim> &In) {
    static_assert(Dim == 2, "the one-with-loop flux is the 2D stage's");
    const Gas &G = this->Prob.G;
    const RiemannKind Kind = this->Scheme.Riemann;
    const bool Simd = this->SimdEnabled;
    const size_t N0 = this->N[0], N1 = this->N[1];
    const size_t S0 = this->StorageStride[0];
    std::array<Field<Dim>, Dim> Flux = {
        Field<Dim>(this->Pool, Shape({N0 + 1, N1}), FieldInit::Uninit),
        Field<Dim>(this->Pool, Shape({N0, N1 + 1}), FieldInit::Uninit)};

    if (!kernels::fluxKernelEligible(this->Scheme.Recon)) {
      auto Emit0 = [&](size_t Linear, const Cons<Dim> &F) {
        Flux[0].store(Linear, F);
      };
      auto Emit1 = [&](size_t Linear, const Cons<Dim> &F) {
        Flux[1].store(Linear, F);
      };
      this->Exec.parallelFor2D(
          N0 + 1, N1 + 1, [&](size_t RB, size_t RE, size_t CB, size_t CE) {
            for (size_t R = RB; R < std::min(RE, N0); ++R)
              faceRun(In, 1, R, CB, CE - CB, R * (N1 + 1) + CB, 1, Emit1);
            for (size_t C = CB; C < std::min(CE, N1); ++C)
              faceRun(In, 0, C, RB, RE - RB, RB * N1 + C, N1, Emit0);
          });
      return Flux;
    }

    this->Exec.parallelFor2D(
        N0 + 1, N1 + 1, [&](size_t RB, size_t RE, size_t CB, size_t CE) {
          const size_t W1 = CE - CB;
          const size_t W0 = std::min(CE, N1) - std::min(CB, N1);
          FluxScratch<Dim> Scratch = fluxScratch<Dim>(2, W1 + 1);
          // Primitive slot cell j is column CB-1+j.
          kernels::PrimRun<Dim> P[2] = {Scratch.prims(0), Scratch.prims(1)};
          for (size_t F = RB; F != RE; ++F) {
            const size_t J = F - RB;
            const kernels::PrimRun<Dim> &PLo = P[J % 2];
            const kernels::PrimRun<Dim> &PHi = P[(J + 1) % 2];
            // Storage offsets of cell rows F and F-1 at column CB.
            const size_t Hi = (this->Ng + F) * S0 + this->Ng + CB;
            const size_t Lo = Hi - S0;
            if (J == 0 && W0 != 0)
              kernels::cellPrims<Dim>(In.crun(Lo), kernels::advance(PLo, 1),
                                      G, Kind, W0, Simd);
            if (F < N0)
              kernels::cellPrims<Dim>(In.crun(Hi - 1), PHi, G, Kind, W1 + 1,
                                      Simd);
            else if (W0 != 0)
              kernels::cellPrims<Dim>(In.crun(Hi), kernels::advance(PHi, 1),
                                      G, Kind, W0, Simd);
            if (W0 != 0)
              kernels::fluxFaces<Dim>(In.crun(Lo), kernels::advance(PLo, 1),
                                      In.crun(Hi), kernels::advance(PHi, 1),
                                      Flux[0].run(F * N1 + CB), G,
                                      /*Axis=*/0, Kind, W0, Simd);
            if (F < N0) {
              kernels::ConstRun<Dim> Cells = In.crun(Hi - 1);
              kernels::fluxFaces<Dim>(Cells, PHi, kernels::advance(Cells, 1),
                                      kernels::advance(PHi, 1),
                                      Flux[1].run(F * (N1 + 1) + CB), G,
                                      /*Axis=*/1, Kind, W1, Simd);
            }
          }
        });
    return Flux;
  }

  /// Numerical flux field of \p In over the face index space of \p Axis
  /// (interior shape extended by one along the axis), for 1D and 3D.
  /// Piecewise-constant reconstruction takes the kernel path — whole face
  /// rows through cellPrims + kernels::fluxFaces, vectorized on
  /// unit-stride runs; every other scheme runs the staged-window
  /// with-loop (stencilFluxWithLoop).
  Field<Dim> fluxAlongFused(const Field<Dim> &In, unsigned Axis) {
    static_assert(Dim != 2, "a 2D stage runs fluxBothAxes2D");
    const Gas &Gas_ = this->Prob.G;
    const SchemeConfig &SC = this->Scheme;
    const Grid<Dim> &G = this->Prob.Domain;
    const bool Simd = this->SimdEnabled;
    constexpr unsigned LineAxis = Dim - 1;

    Shape Faces = G.interiorShape();
    Faces.dim(Axis) += 1;
    Field<Dim> Out(this->Pool, Faces, FieldInit::Uninit);

    if (kernels::fluxKernelEligible(SC.Recon)) {
      size_t RowLen = Faces.dim(LineAxis);
      size_t Rows = Faces.count() / RowLen;
      // Leading face coordinates (all axes but the last); for face row R
      // the L cells sit one axis stride below the R cells in storage.
      Shape Lead = Shape::uniform(Dim == 1 ? 1 : Dim - 1, 1);
      for (unsigned A = 0; A + 1 < Dim; ++A)
        Lead.dim(A) = Faces.dim(A);
      size_t AxisStride = this->StorageStride[Axis];
      // Storage offset of face row R's first R-side cell: interior
      // coordinates shifted by the ghost margin; along the sweep axis
      // face f's R cell is interior cell f.
      auto RowBase = [&](size_t R) {
        Index L = Lead.delinearize(R);
        size_t SBase = this->Ng; // last-axis start
        for (unsigned A = 0; A + 1 < Dim; ++A)
          SBase += (static_cast<size_t>(L.Coord[A]) + this->Ng) *
                   this->StorageStride[A];
        return SBase;
      };
      this->Exec.parallelFor(0, Rows, [&](size_t RB, size_t RE) {
        if (Axis == LineAxis) {
          // A face row's cells are contiguous: one primitive row over
          // its RowLen + 1 cells, the faces from two shifted views.
          kernels::PrimRun<Dim> P = fluxScratch<Dim>(1, RowLen + 1).prims(0);
          for (size_t R = RB; R != RE; ++R) {
            kernels::ConstRun<Dim> Cells = In.crun(RowBase(R) - 1);
            kernels::cellPrims<Dim>(Cells, P, Gas_, SC.Riemann, RowLen + 1,
                                    Simd);
            kernels::fluxFaces<Dim>(Cells, P, kernels::advance(Cells, 1),
                                    kernels::advance(P, 1),
                                    Out.run(R * RowLen), Gas_, Axis,
                                    SC.Riemann, RowLen, Simd);
          }
        } else if (Axis + 2 == Dim) {
          // 3D axis 1: consecutive face rows step along the axis, so the R-side
          // cell row of one is the L-side row of the next: two rolling
          // primitive rows convert each cell row once per block (plus
          // where a row of the block does not follow on, such as the
          // block's first).
          FluxScratch<Dim> Scratch = fluxScratch<Dim>(2, RowLen);
          kernels::PrimRun<Dim> P[2] = {Scratch.prims(0), Scratch.prims(1)};
          unsigned Lo = 0;
          size_t PrevBase = 0;
          for (size_t R = RB; R != RE; ++R) {
            size_t SBase = RowBase(R);
            if (R != RB && SBase - AxisStride == PrevBase)
              Lo ^= 1;
            else
              kernels::cellPrims<Dim>(In.crun(SBase - AxisStride),
                                      P[Lo], Gas_, SC.Riemann, RowLen, Simd);
            kernels::cellPrims<Dim>(In.crun(SBase), P[Lo ^ 1], Gas_,
                                    SC.Riemann, RowLen, Simd);
            PrevBase = SBase;
            kernels::fluxFaces<Dim>(In.crun(SBase - AxisStride), P[Lo],
                                    In.crun(SBase), P[Lo ^ 1],
                                    Out.run(R * RowLen), Gas_, Axis,
                                    SC.Riemann, RowLen, Simd);
          }
        } else {
          // 3D axis 0: consecutive face rows step along axis 1, so no
          // cell row is shared and each face converts its own states.
          for (size_t R = RB; R != RE; ++R) {
            size_t SBase = RowBase(R);
            kernels::fluxFaces<Dim>(In.crun(SBase - AxisStride),
                                    In.crun(SBase), Out.run(R * RowLen),
                                    Gas_, Axis, SC.Riemann, RowLen, Simd);
          }
        }
      });
      return Out;
    }

    stencilFluxWithLoop(In, Axis, Faces, [&](size_t Linear, const Cons<Dim> &F) {
      Out.store(Linear, F);
    });
    return Out;
  }

  /// Faces [\p FaceBegin, FaceBegin + \p Len) of line \p Line along \p
  /// Axis of \p In through the staged-window path
  /// (EulerSolver::lineFaceFluxes), handed to \p Emit(FaceLinear, Flux)
  /// from face-space offset \p OutBase, \p OutStride apart.
  template <typename EmitFn>
  void faceRun(const Field<Dim> &In, unsigned Axis, size_t Line,
               size_t FaceBegin, size_t Len, size_t OutBase, size_t OutStride,
               EmitFn &Emit) const {
    kernels::ConstRun<Dim> Flux =
        this->lineFaceFluxes(In, Axis, Line, FaceBegin, Len);
    for (size_t F = 0; F < Len; ++F)
      Emit(OutBase + F * OutStride, kernels::loadCons<Dim>(Flux, F));
  }

  /// The genarray with-loop of the paper over the face space \p Faces
  /// of \p Axis of \p In: reconstruct each face from its 6-cell stencil
  /// along the
  /// axis, solve the face Riemann problem, and hand the flux to
  /// \p Emit(FaceLinear, Flux).  Each block the backend deals (a tile
  /// in 2D, so --tile applies) is cut into runs of faces along one line;
  /// a run stages its window once and computes its flux row through the
  /// reconstructFaces + fluxFaces kernels (EulerSolver::lineFaceFluxes,
  /// shared with the fused engine).  A face's stencil does not depend on
  /// the run it falls in, so any blocking writes bit-identical fluxes.
  template <typename EmitFn>
  void stencilFluxWithLoop(const Field<Dim> &In, unsigned Axis,
                           const Shape &Faces, EmitFn Emit) {
    auto Run = [&](size_t Line, size_t FaceBegin, size_t Len, size_t OutBase,
                   size_t OutStride) {
      faceRun(In, Axis, Line, FaceBegin, Len, OutBase, OutStride, Emit);
    };
    if constexpr (Dim == 1) {
      this->Exec.parallelFor(0, Faces.count(), [&](size_t B, size_t E) {
        Run(0, B, E - B, B, 1);
      });
    } else if constexpr (Dim == 2) {
      size_t Cols = Faces.dim(1);
      this->Exec.parallelFor2D(
          Faces.dim(0), Cols,
          [&](size_t RB, size_t RE, size_t CB, size_t CE) {
            if (Axis == 1) {
              for (size_t R = RB; R != RE; ++R)
                Run(R, CB, CE - CB, R * Cols + CB, 1);
            } else {
              for (size_t C = CB; C != CE; ++C)
                Run(C, RB, RE - RB, RB * Cols + C, Cols);
            }
          });
    } else {
      // Whole lines, tangential coordinates decomposed in the row-major
      // order of EulerSolver::lineStorageBase.
      std::array<size_t, Dim> FaceStride;
      FaceStride[Dim - 1] = 1;
      for (unsigned A = Dim - 1; A-- > 0;)
        FaceStride[A] = FaceStride[A + 1] * Faces.dim(A + 1);
      this->Exec.parallelFor(
          0, this->lineCount(Axis), [&](size_t B, size_t E) {
            for (size_t Line = B; Line != E; ++Line) {
              size_t OutBase = 0, Rest = Line;
              for (unsigned A = Dim; A-- > 0;)
                if (A != Axis) {
                  OutBase += Rest % Faces.dim(A) * FaceStride[A];
                  Rest /= Faces.dim(A);
                }
              Run(Line, 0, Faces.dim(Axis), OutBase, FaceStride[Axis]);
            }
          });
    }
  }

  //===--------------------------------------------------------------------===//
  // Materialized mode: every intermediate array explicit (ablation A1).
  //===--------------------------------------------------------------------===//

  void stepMaterialized(double Dt) {
    static const unsigned SpanSnapshot = telemetry::spanId("solver.snapshot");
    static const unsigned SpanBoundary = telemetry::spanId("solver.boundary");
    static const unsigned SpanFlux = telemetry::spanId("solver.flux");
    static const unsigned SpanUpdate = telemetry::spanId("solver.update");
    const Grid<Dim> &G = this->Prob.Domain;
    Shape Interior = G.interiorShape();

    // Q^n snapshot, staged through the AoS interchange copy.
    FieldPool::Lease<Cons<Dim>> UnL =
        this->Pool.template acquireUninit<Cons<Dim>>(this->U.shape());
    NDArray<Cons<Dim>> &Un = *UnL;
    {
      telemetry::ScopedSpan S(SpanSnapshot);
      this->U.exportTo(Un.data());
    }

    for (const SspStage &Stage : sspStages(this->Scheme.Integrator)) {
      {
        telemetry::ScopedSpan S(SpanBoundary);
        this->fillGhosts(this->U, this->Time);
      }
      FieldPool::Lease<Cons<Dim>> ResL;
      {
        telemetry::ScopedSpan S(SpanFlux);
        ResL = residualMaterialized();
      }
      const NDArray<Cons<Dim>> &Res = *ResL;

      // Unfused modarray combine:
      //   U = A * Un + B * (U + dt * Res)   on the interior.
      double A = Stage.PrevWeight, B = Stage.StageWeight;
      telemetry::ScopedSpan UpdateSpan(SpanUpdate);
      forEachIndex(Interior, this->Exec,
                   [&](const Index &Iv, size_t Linear) {
                     Index S = G.toStorage(Iv);
                     this->U.set(S, Un.at(S) * A +
                                        (this->U.at(S) + Res[Linear] * Dt) *
                                            B);
                   });
    }
  }

  /// Materialized flux array along \p Axis: the staged-window with-loop
  /// writing an explicit NDArray temporary.
  FieldPool::Lease<Cons<Dim>> fluxAlongMaterialized(unsigned Axis) {
    Shape Faces = this->Prob.Domain.interiorShape();
    Faces.dim(Axis) += 1;

    FieldPool::Lease<Cons<Dim>> Out =
        this->Pool.template acquireUninit<Cons<Dim>>(Faces);
    Cons<Dim> *Data = Out->data();
    stencilFluxWithLoop(this->U, Axis, Faces,
                        [Data](size_t Linear, const Cons<Dim> &F) {
                          Data[Linear] = F;
                        });
    return Out;
  }

  /// Materialized residual: each dfDx is an explicit temporary, then
  /// summed — the unfused whole-array formulation
  ///   res = -dfDx(flux0)/dx0 - dfDx(flux1)/dx1.
  /// The temporaries stay explicit (that is what the A1 ablation
  /// measures); pooling only recycles their storage.  Res needs the
  /// value-initialized acquire: it is read before the first axis sum.
  FieldPool::Lease<Cons<Dim>> residualMaterialized() {
    Shape Interior = this->Prob.Domain.interiorShape();

    std::array<FieldPool::Lease<Cons<Dim>>, Dim> Flux;
    for (unsigned A = 0; A < Dim; ++A)
      Flux[A] = fluxAlongMaterialized(A);

    FieldPool::Lease<Cons<Dim>> Res =
        this->Pool.template acquire<Cons<Dim>>(Interior);
    for (unsigned A = 0; A < Dim; ++A) {
      Index DropSpec;
      DropSpec.Rank = Dim;
      for (unsigned B = 0; B < Dim; ++B)
        DropSpec.Coord[B] = 0;
      DropSpec.Coord[A] = 1;
      Index DropBack = DropSpec;
      DropBack.Coord[A] = -1;
      // dfDxNoBoundary(flux, dx) = (drop([1],f) - drop([-1],f)) / dx
      // (multiplied by the reciprocal so both engines and both eval
      // modes produce bit-identical fields).
      FieldPool::Lease<Cons<Dim>> DfDx =
          this->Pool.template acquireUninit<Cons<Dim>>(Interior);
      assignInto(*DfDx,
                 (drop(DropSpec, *Flux[A]) - drop(DropBack, *Flux[A])) *
                     this->InvSpacing[A],
                 this->Exec);
      FieldPool::Lease<Cons<Dim>> Sum =
          this->Pool.template acquireUninit<Cons<Dim>>(Interior);
      assignInto(*Sum, toExpr(*Res) - toExpr(*DfDx), this->Exec);
      Res = std::move(Sum);
    }
    return Res;
  }

  ArrayEvalMode Mode;
};

} // namespace sacfd

#endif // SACFD_SOLVER_ARRAYSOLVER_H
