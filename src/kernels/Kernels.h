//===- kernels/Kernels.h - Vectorized per-stage solver kernels -*- C++ -*-===//
//
// Part of SacFD, a reproduction of "Numerical Simulations of Unsteady Shock
// Wave Interactions Using SaC and Fortran-90" (PaCT 2009).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The unified kernel layer both engines lower their hot loops onto.
///
/// Every kernel operates on a contiguous run of cells described by a
/// Run/ConstRun view: one pointer per conserved component plus a shared
/// element stride.  The kernels take SoA planes only (stride 1, one
/// pointer per plane) and assert it.  The record-stride view of Cons
/// arrays (aosRun), and with it the non-unit Stride, has no caller in
/// the solver or the tests: perfbench's kernel probe is its only user.
/// No NDArray (or any container) appears in these signatures — the
/// engines translate their index spaces into runs, and this layer owns
/// the arithmetic.
///
/// The face path of a reconstructed scheme is three kernels: cellPrims
/// (the reconstruction plane set of each face neighbour), reconstructFaces
/// (face L/R states) and then fluxFaces (the Riemann solver), all over
/// SoA runs.  reconstructFaces takes a run of faces' stencils as
/// StencilRuns, one run per stencil cell indexed by face, so a caller
/// points them wherever the cells already sit: the fused 2D row pass at
/// rows (axis 0, lanes across columns) or shifted views of a row (axis 1)
/// of the stage field, with no copy; the per-line path (1D, 3D, the array
/// engine) at shifted views of a staged window.  Its characteristic
/// projection needs the two face neighbours' velocities, sqrt(rho) and h:
/// cellPrims converts each cell once into planes, and reconstructFaces
/// reads them as two PrimRuns (stencil cells 2 and 3), so the divides and
/// square roots of a cell run once per row, not once per adjacent face.
/// Piecewise-constant reconstruction has no face states of its own, so
/// its faces split straight into the solver: cellPrims converts each
/// cell of a line to the solver's primitive planes once, and the PrimRun
/// overload of fluxFaces solves every face from two shifted views of
/// those planes.  Either way an interior cell touches two faces per axis
/// and is converted once.
///
/// The stage tail is one kernel as well: stageUpdate folds every axis's
/// flux divergence into the SSP update cell by cell, so no residual is
/// stored (the fused 2D row pass and the array engine's combine).  The
/// fused 1D/3D per-axis path keeps its whole-field RHS and the three
/// kernels stageUpdate fuses: zeroState, accumDivergence per axis and
/// sspUpdate.  maxEigen folds the next step's GetDT over an updated run.
///
/// Each kernel exists twice, in scalarimpl:: (compiled with vectorization
/// disabled — the honest scalar baseline) and simdimpl:: (compiled with
/// the host ISA, OpenMP SIMD pragmas, and contraction off).  The public
/// inline wrappers dispatch on a runtime `Simd` flag.  The two builds
/// are bit-identical by construction: the SIMD bodies are elementwise
/// rewrites of the same IEEE arithmetic with branches turned into
/// selects (the f18 lowering rules: no reassociation of non-exact
/// reductions, no contraction, selected-lane arithmetic identical to the
/// branchy original), and KernelsTest asserts equality bit-for-bit,
/// ragged tails included.
///
//===----------------------------------------------------------------------===//

#ifndef SACFD_KERNELS_KERNELS_H
#define SACFD_KERNELS_KERNELS_H

#include "euler/Gas.h"
#include "euler/State.h"
#include "numerics/Reconstruction.h"
#include "numerics/RiemannSolvers.h"

#include <array>
#include <cassert>
#include <cstddef>
#include <type_traits>

namespace sacfd {
namespace kernels {

/// Mutable view of a contiguous run of cells: component pointers at the
/// run's first cell, all advanced by Stride elements per cell.
template <unsigned Dim> struct Run {
  double *C[NumVars<Dim>] = {};
  ptrdiff_t Stride = 1;
};

/// Read-only run view.
template <unsigned Dim> struct ConstRun {
  const double *C[NumVars<Dim>] = {};
  ptrdiff_t Stride = 1;

  ConstRun() = default;
  ConstRun(const Run<Dim> &R) : Stride(R.Stride) {
    for (unsigned K = 0; K < NumVars<Dim>; ++K)
      C[K] = R.C[K];
  }
};

/// The kernel layer reinterprets Cons records as component doubles; both
/// facts below are what make that well-defined.
template <unsigned Dim> constexpr void assertConsLayout() {
  static_assert(std::is_standard_layout_v<Cons<Dim>>,
                "Cons must be reinterpretable as doubles");
  static_assert(sizeof(Cons<Dim>) == NumVars<Dim> * sizeof(double),
                "Cons must pack its components with no padding");
}

/// Run over interleaved Cons records starting at \p P.  Kernels reject
/// it (non-unit stride); only perfbench's AoS kernel probe uses it.
template <unsigned Dim> inline Run<Dim> aosRun(Cons<Dim> *P) {
  assertConsLayout<Dim>();
  Run<Dim> R;
  double *B = reinterpret_cast<double *>(P);
  for (unsigned K = 0; K < NumVars<Dim>; ++K)
    R.C[K] = B + K;
  R.Stride = NumVars<Dim>;
  return R;
}
template <unsigned Dim> inline ConstRun<Dim> aosRun(const Cons<Dim> *P) {
  assertConsLayout<Dim>();
  ConstRun<Dim> R;
  const double *B = reinterpret_cast<const double *>(P);
  for (unsigned K = 0; K < NumVars<Dim>; ++K)
    R.C[K] = B + K;
  R.Stride = NumVars<Dim>;
  return R;
}

/// Run over SoA planes: component K lives at Base + K * PlaneStride,
/// and the run starts \p Offset cells into each plane.
template <unsigned Dim>
inline Run<Dim> soaRun(double *Base, size_t PlaneStride, size_t Offset) {
  Run<Dim> R;
  for (unsigned K = 0; K < NumVars<Dim>; ++K)
    R.C[K] = Base + K * PlaneStride + Offset;
  R.Stride = 1;
  return R;
}
template <unsigned Dim>
inline ConstRun<Dim> soaRun(const double *Base, size_t PlaneStride,
                            size_t Offset) {
  ConstRun<Dim> R;
  for (unsigned K = 0; K < NumVars<Dim>; ++K)
    R.C[K] = Base + K * PlaneStride + Offset;
  R.Stride = 1;
  return R;
}

/// \returns \p R advanced by \p Cells cells.
template <unsigned Dim> inline Run<Dim> advance(Run<Dim> R, ptrdiff_t Cells) {
  for (unsigned K = 0; K < NumVars<Dim>; ++K)
    R.C[K] += Cells * R.Stride;
  return R;
}
template <unsigned Dim>
inline ConstRun<Dim> advance(ConstRun<Dim> R, ptrdiff_t Cells) {
  for (unsigned K = 0; K < NumVars<Dim>; ++K)
    R.C[K] += Cells * R.Stride;
  return R;
}

/// Number of per-cell primitive planes cellPrims writes: the velocity
/// per axis, then the PrimPlane quantities.
template <unsigned Dim> constexpr unsigned NumPrimVars = Dim + 6;

/// Plane indices of a PrimRun past the Dim velocity planes.  Each plane
/// holds exactly the expression the face-state flux mirror computes for
/// a side: p (toPrim), c (Gas::soundSpeed), sqrt(max(rho, 0))
/// (roeAverage), E_t + p with E_t rebuilt from the primitives
/// (physicalFlux), h = (E_t + p) / rho (roeAverage) and E / rho
/// (hllcFlux's star state).
template <unsigned Dim> struct PrimPlane {
  static constexpr unsigned P = Dim, C = Dim + 1, SqrtRho = Dim + 2,
                            EtPlusP = Dim + 3, H = Dim + 4, EOverRho = Dim + 5;
};

/// Unit-stride view of a run of cells' primitive planes: one pointer per
/// plane, at the run's first cell.  Written by cellPrims, read by the
/// PrimRun overload of fluxFaces (the solver's plane set) or by
/// reconstructFaces (the reconstruction plane set: the velocities,
/// SqrtRho and H).
template <unsigned Dim> struct PrimRun {
  double *C[NumPrimVars<Dim>] = {};
};

/// Primitive planes at Base + K * PlaneStride, \p Offset cells in.
template <unsigned Dim>
inline PrimRun<Dim> primRun(double *Base, size_t PlaneStride, size_t Offset) {
  PrimRun<Dim> R;
  for (unsigned K = 0; K < NumPrimVars<Dim>; ++K)
    R.C[K] = Base + K * PlaneStride + Offset;
  return R;
}

/// \returns \p R advanced by \p Cells cells.
template <unsigned Dim>
inline PrimRun<Dim> advance(PrimRun<Dim> R, ptrdiff_t Cells) {
  for (unsigned K = 0; K < NumPrimVars<Dim>; ++K)
    R.C[K] += Cells;
  return R;
}

/// Scalar element access through a run (boundaries, tests, staging).
template <unsigned Dim>
inline Cons<Dim> loadCons(const ConstRun<Dim> &R, size_t I) {
  const ptrdiff_t O = static_cast<ptrdiff_t>(I) * R.Stride;
  Cons<Dim> Q;
  Q.Rho = R.C[0][O];
  for (unsigned D = 0; D < Dim; ++D)
    Q.Mom[D] = R.C[1 + D][O];
  Q.E = R.C[Dim + 1][O];
  return Q;
}
template <unsigned Dim>
inline void storeCons(const Run<Dim> &R, size_t I, const Cons<Dim> &Q) {
  const ptrdiff_t O = static_cast<ptrdiff_t>(I) * R.Stride;
  R.C[0][O] = Q.Rho;
  for (unsigned D = 0; D < Dim; ++D)
    R.C[1 + D][O] = Q.Mom[D];
  R.C[Dim + 1][O] = Q.E;
}

/// True when fluxFaces can read a face line straight from the field:
/// piecewise-constant reconstruction makes a face's L/R states the two
/// adjacent cells, so the whole face line is two shifted runs (and
/// cellPrims can convert each cell once for both its faces).  Every
/// other reconstruction runs reconstructFaces first.
constexpr bool fluxKernelEligible(ReconstructionKind Recon) {
  return Recon == ReconstructionKind::PiecewiseConstant;
}

/// The stencil of a run of faces along one axis: stencil cell s of face
/// f (the 6-cell window of numerics/Reconstruction.h, with the face
/// between cells 2 and 3) is element f of run s.  Only the runs
/// stencilSpan names are read, so a caller may leave the others empty.
template <unsigned Dim> using StencilRuns = std::array<ConstRun<Dim>, 6>;

/// The stencil cells [First, Last] a reconstruction reads.
struct StencilSpan {
  unsigned First, Last;
};
constexpr StencilSpan stencilSpan(ReconstructionKind Kind) {
  switch (Kind) {
  case ReconstructionKind::PiecewiseConstant:
    return {2, 3};
  case ReconstructionKind::Tvd2:
  case ReconstructionKind::Tvd3:
  case ReconstructionKind::Weno3:
    return {1, 4};
  case ReconstructionKind::Weno5:
    break;
  }
  return {0, 5};
}

/// True when fluxFaces runs the branch-free SIMD mirror for \p Kind —
/// the three algebraic solvers under the SIMD dispatch.  Roe's
/// eigen-decomposition, and every solver under `--no-simd`, run the
/// reference loop; for those cellPrims writes nothing and the PrimRun
/// overload of fluxFaces ignores its planes.
constexpr bool fluxMirrored(RiemannKind Kind, bool Simd) {
  return Simd && Kind != RiemannKind::Roe;
}

/// True when reconstructFaces runs the branch-free SIMD mirror: the
/// characteristic projection under the SIMD dispatch.  Primitive-variable
/// mode (an ablation), and every scheme under `--no-simd`, run the
/// reference loop; for those the reconstruction cellPrims writes nothing
/// and reconstructFaces ignores its planes.
constexpr bool reconMirrored(ReconstructVariables Vars, bool Simd) {
  return Simd && Vars == ReconstructVariables::Characteristic;
}

/// True when this build compiled simdimpl:: with host-ISA acceleration
/// (the -march/-fopenmp-simd TU); false means simdimpl is a plain
/// recompile and `--no-simd` is only a dispatch formality.
bool simdAccelerated();

// Per-TU implementations.  scalarimpl is compiled with vectorization
// disabled; simdimpl with the host ISA and contraction off.  Both are
// defined out-of-line (KernelsScalar.cpp / KernelsSimd.cpp) with
// explicit instantiations for Dim = 1, 2, 3.
#define SACFD_KERNELS_DECLARE                                                  \
  template <unsigned Dim>                                                      \
  void copyState(const ConstRun<Dim> &Src, const Run<Dim> &Dst, size_t N);     \
  template <unsigned Dim> void zeroState(const Run<Dim> &Dst, size_t N);       \
  template <unsigned Dim>                                                      \
  void sspUpdate(const Run<Dim> &Out, const ConstRun<Dim> &Un,                 \
                 const ConstRun<Dim> &X, const ConstRun<Dim> &Res, double A,   \
                 double B, double Dt, size_t N);                               \
  template <unsigned Dim>                                                      \
  double maxEigen(const ConstRun<Dim> &U, const Gas &G, const double *InvDx,   \
                  double Acc, size_t N);                                       \
  template <unsigned Dim>                                                      \
  void accumDivergence(const Run<Dim> &Res, const ConstRun<Dim> &Lo,           \
                       const ConstRun<Dim> &Hi, double InvDx, size_t N);       \
  template <unsigned Dim>                                                      \
  void stageUpdate(const Run<Dim> &Out, const ConstRun<Dim> &Un,               \
                   const ConstRun<Dim> &X, const ConstRun<Dim> *Lo,            \
                   const ConstRun<Dim> *Hi, const double *InvDx, double A,     \
                   double B, double Dt, size_t N);                             \
  template <unsigned Dim>                                                      \
  void fluxFaces(const ConstRun<Dim> &L, const ConstRun<Dim> &R,               \
                 const Run<Dim> &F, const Gas &G, unsigned Axis,               \
                 RiemannKind Kind, size_t N);

namespace scalarimpl {
SACFD_KERNELS_DECLARE
template <unsigned Dim>
void reconstructFaces(const StencilRuns<Dim> &Stencil, const Run<Dim> &L,
                      const Run<Dim> &R, const Gas &G, unsigned Axis,
                      ReconstructionKind Kind, LimiterKind Limiter,
                      ReconstructVariables Vars, size_t N);
}
namespace simdimpl {
SACFD_KERNELS_DECLARE
// The per-cell splits exist only as mirrors: the reference loops have
// nothing to split (public wrappers below).
template <unsigned Dim>
void cellPrims(const ConstRun<Dim> &U, const PrimRun<Dim> &P, const Gas &G,
               RiemannKind Kind, size_t N);
template <unsigned Dim>
void fluxFaces(const ConstRun<Dim> &L, const PrimRun<Dim> &PL,
               const ConstRun<Dim> &R, const PrimRun<Dim> &PR,
               const Run<Dim> &F, const Gas &G, unsigned Axis,
               RiemannKind Kind, size_t N);
template <unsigned Dim>
void reconPrims(const ConstRun<Dim> &U, const PrimRun<Dim> &P, const Gas &G,
                size_t N);
template <unsigned Dim>
void reconstructFaces(const StencilRuns<Dim> &Stencil, const PrimRun<Dim> &PL,
                      const PrimRun<Dim> &PR, const Run<Dim> &L,
                      const Run<Dim> &R, const Gas &G, unsigned Axis,
                      ReconstructionKind Kind, LimiterKind Limiter, size_t N);
}
#undef SACFD_KERNELS_DECLARE

// Public dispatchers: one runtime branch per kernel call (calls cover
// whole lines, so the branch is noise).

template <unsigned Dim>
inline void copyState(const ConstRun<Dim> &Src, const Run<Dim> &Dst, size_t N,
                      bool Simd) {
  (Simd ? simdimpl::copyState<Dim> : scalarimpl::copyState<Dim>)(Src, Dst, N);
}

template <unsigned Dim>
inline void zeroState(const Run<Dim> &Dst, size_t N, bool Simd) {
  (Simd ? simdimpl::zeroState<Dim> : scalarimpl::zeroState<Dim>)(Dst, N);
}

/// Out = Un*A + (X + Res*Dt)*B.  \p Out may alias \p Un or \p X cell for
/// cell (never at an offset).
template <unsigned Dim>
inline void sspUpdate(const Run<Dim> &Out, const ConstRun<Dim> &Un,
                      const ConstRun<Dim> &X, const ConstRun<Dim> &Res,
                      double A, double B, double Dt, size_t N, bool Simd) {
  (Simd ? simdimpl::sspUpdate<Dim> : scalarimpl::sspUpdate<Dim>)(
      Out, Un, X, Res, A, B, Dt, N);
}

/// The in-place form: U = Un*A + (U + Res*Dt)*B.
template <unsigned Dim>
inline void sspUpdate(const Run<Dim> &U, const ConstRun<Dim> &Un,
                      const ConstRun<Dim> &Res, double A, double B, double Dt,
                      size_t N, bool Simd) {
  sspUpdate<Dim>(U, Un, U, Res, A, B, Dt, N, Simd);
}

template <unsigned Dim>
inline double maxEigen(const ConstRun<Dim> &U, const Gas &G,
                       const double *InvDx, double Acc, size_t N, bool Simd) {
  return (Simd ? simdimpl::maxEigen<Dim> : scalarimpl::maxEigen<Dim>)(
      U, G, InvDx, Acc, N);
}

template <unsigned Dim>
inline void accumDivergence(const Run<Dim> &Res, const ConstRun<Dim> &Lo,
                            const ConstRun<Dim> &Hi, double InvDx, size_t N,
                            bool Simd) {
  (Simd ? simdimpl::accumDivergence<Dim>
        : scalarimpl::accumDivergence<Dim>)(Res, Lo, Hi, InvDx, N);
}

/// The whole stage tail in one pass: per element and component, the
/// residual R = 0.0 - (Hi[0] - Lo[0]) * InvDx[0] - ... over the Dim axes
/// in order, then Out = Un*A + (X + R*Dt)*B.  Bit for bit zeroState,
/// accumDivergence per axis and sspUpdate on a scratch residual, with no
/// residual stored.  \p Lo, \p Hi and \p InvDx hold Dim entries: axis
/// a's low and high face runs of the \p N cells and its inverse
/// spacing.  \p Out may alias \p Un or \p X cell for cell (never at an
/// offset) and never a face run.
template <unsigned Dim>
inline void stageUpdate(const Run<Dim> &Out, const ConstRun<Dim> &Un,
                        const ConstRun<Dim> &X, const ConstRun<Dim> *Lo,
                        const ConstRun<Dim> *Hi, const double *InvDx,
                        double A, double B, double Dt, size_t N, bool Simd) {
  (Simd ? simdimpl::stageUpdate<Dim> : scalarimpl::stageUpdate<Dim>)(
      Out, Un, X, Lo, Hi, InvDx, A, B, Dt, N);
}

template <unsigned Dim>
inline void fluxFaces(const ConstRun<Dim> &L, const ConstRun<Dim> &R,
                      const Run<Dim> &F, const Gas &G, unsigned Axis,
                      RiemannKind Kind, size_t N, bool Simd) {
  if (fluxMirrored(Kind, Simd))
    simdimpl::fluxFaces<Dim>(L, R, F, G, Axis, Kind, N);
  else
    scalarimpl::fluxFaces<Dim>(L, R, F, G, Axis, Kind, N);
}

/// Per-cell primitive planes of \p N cells for the \p Kind face solver
/// (only the planes that solver reads are written).  Writes nothing
/// unless fluxMirrored(Kind, Simd), so an engine can pair it with the
/// PrimRun fluxFaces below unconditionally.
template <unsigned Dim>
inline void cellPrims(const ConstRun<Dim> &U, const PrimRun<Dim> &P,
                      const Gas &G, RiemannKind Kind, size_t N, bool Simd) {
  if (fluxMirrored(Kind, Simd))
    simdimpl::cellPrims<Dim>(U, P, G, Kind, N);
}

/// fluxFaces with each side's primitives precomputed: face f's left
/// state is cell f of \p L, whose cellPrims planes are cell f of \p PL
/// (likewise \p R / \p PR).  The engines pass two shifted views of one
/// cell run and its planes, so each cell is converted once for both of
/// its faces.  Bit-identical to fluxFaces(L, R, ...): the two compose
/// the same lane arithmetic.  When !fluxMirrored(Kind, Simd) it runs the
/// reference loop on \p L and \p R and never reads the planes.
template <unsigned Dim>
inline void fluxFaces(const ConstRun<Dim> &L, const PrimRun<Dim> &PL,
                      const ConstRun<Dim> &R, const PrimRun<Dim> &PR,
                      const Run<Dim> &F, const Gas &G, unsigned Axis,
                      RiemannKind Kind, size_t N, bool Simd) {
  if (fluxMirrored(Kind, Simd))
    simdimpl::fluxFaces<Dim>(L, PL, R, PR, F, G, Axis, Kind, N);
  else
    scalarimpl::fluxFaces<Dim>(L, R, F, G, Axis, Kind, N);
}

/// The reconstruction plane set of cellPrims: the velocity, SqrtRho and
/// H planes of \p N cells, the face-neighbour primitives the
/// characteristic projection reads.  Writes nothing unless
/// reconMirrored(Vars, Simd), so an engine can pair it with
/// reconstructFaces below unconditionally.
template <unsigned Dim>
inline void cellPrims(const ConstRun<Dim> &U, const PrimRun<Dim> &P,
                      const Gas &G, ReconstructVariables Vars, size_t N,
                      bool Simd) {
  if (reconMirrored(Vars, Simd))
    simdimpl::reconPrims<Dim>(U, P, G, N);
}

/// Face states of \p N faces along \p Axis from their stencil runs:
/// face f's 6-cell stencil (numerics/Reconstruction.h) is element f of
/// \p Stencil[0..5], of which only stencilSpan(Kind) is read, and the
/// reconstruction cellPrims planes of its stencil cells 2 and 3 (the
/// face neighbours) are element f of \p PL and \p PR.  Writes face f's
/// conservative left/right states to \p L and \p R, bit-identical to
/// reconstructFaceStates on that stencil.  When !reconMirrored(Vars,
/// Simd) it runs the reference loop and never reads the planes; nor does
/// piecewise-constant reconstruction, whose face states are copies.
template <unsigned Dim>
inline void reconstructFaces(const StencilRuns<Dim> &Stencil,
                             const PrimRun<Dim> &PL, const PrimRun<Dim> &PR,
                             const Run<Dim> &L, const Run<Dim> &R,
                             const Gas &G, unsigned Axis,
                             ReconstructionKind Kind, LimiterKind Limiter,
                             ReconstructVariables Vars, size_t N, bool Simd) {
  if (reconMirrored(Vars, Simd))
    simdimpl::reconstructFaces<Dim>(Stencil, PL, PR, L, R, G, Axis, Kind,
                                    Limiter, N);
  else
    scalarimpl::reconstructFaces<Dim>(Stencil, L, R, G, Axis, Kind, Limiter,
                                      Vars, N);
}

/// The window form: \p Win holds N + 5 cells and face f's stencil is
/// window cells f..f+5, passed as six shifted views of the window.  \p P
/// is scratch planes for N + 1 cells: window cells [2, N + 3) are
/// converted into them once, and face f reads two shifted views of them
/// (cells f + 2 and f + 3), so each interior cell is converted once for
/// both of its faces.
template <unsigned Dim>
inline void reconstructFaces(const ConstRun<Dim> &Win, const PrimRun<Dim> &P,
                             const Run<Dim> &L, const Run<Dim> &R,
                             const Gas &G, unsigned Axis,
                             ReconstructionKind Kind, LimiterKind Limiter,
                             ReconstructVariables Vars, size_t N, bool Simd) {
  StencilRuns<Dim> Stencil;
  for (unsigned C = 0; C < Stencil.size(); ++C)
    Stencil[C] = advance(Win, C);
  if (Kind != ReconstructionKind::PiecewiseConstant)
    cellPrims<Dim>(Stencil[2], P, G, Vars, N + 1, Simd);
  reconstructFaces<Dim>(Stencil, P, advance(P, 1), L, R, G, Axis, Kind,
                        Limiter, Vars, N, Simd);
}

} // namespace kernels
} // namespace sacfd

#endif // SACFD_KERNELS_KERNELS_H
