//===- solver/BoundaryConditions.h - Ghost-cell boundary fill --*- C++ -*-===//
//
// Part of SacFD, a reproduction of "Numerical Simulations of Unsteady Shock
// Wave Interactions Using SaC and Fortran-90" (PaCT 2009).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Boundary conditions of the paper's two experiments:
///
///   Transmissive  zero-order extrapolation (open/outflow boundaries)
///   Reflective    solid wall: mirrored cells with the normal momentum
///                 negated
///   Inflow        frozen supersonic state (the Rankine-Hugoniot channel
///                 exits of the 2D configuration)
///
/// plus, for the workload gallery beyond the paper:
///
///   Periodic      wrap-around copies (smooth convergence cases)
///   Prescribed    ghost state as a function of the tangential coordinate
///                 and the solver time — the time-dependent shock trace
///                 the double-Mach-reflection top boundary needs
///
/// A boundary side may be split into segments along its tangential
/// coordinate — exactly the paper's left/bottom boundaries, which are
/// part channel exit and part solid wall (Fig. 2).
///
/// Ghost filling is a data-parallel loop over the tangential index space
/// and is executed through the Backend, so each side contributes one
/// parallel region per application — part of the per-step region count
/// whose cost the FIG4 experiment measures.
///
//===----------------------------------------------------------------------===//

#ifndef SACFD_SOLVER_BOUNDARYCONDITIONS_H
#define SACFD_SOLVER_BOUNDARYCONDITIONS_H

#include "array/WithLoop.h"
#include "euler/State.h"
#include "runtime/Backend.h"
#include "solver/Field.h"
#include "solver/Grid.h"

#include <array>
#include <cassert>
#include <functional>
#include <limits>
#include <vector>

namespace sacfd {

/// Boundary condition menu.
enum class BcKind {
  Transmissive,
  Reflective,
  Inflow,
  /// Wrap-around: ghost cells copy the opposite end of the axis.  Both
  /// sides of an axis must be periodic; used by the smooth-advection
  /// convergence studies.
  Periodic,
  /// Ghost state prescribed as a function of (tangential coordinate,
  /// time): the time-dependent exact-shock trace of the double Mach
  /// reflection's top boundary.  Every ghost layer of a column gets the
  /// same value (like Inflow, but varying along the side and in time).
  Prescribed,
  /// Internal shard interface: the ghost layers are owned by a
  /// neighboring shard's halo exchange, which runs *before* the
  /// boundary fill each stage.  The fill leaves them untouched.
  Halo,
};

/// One stretch of a boundary side with a single condition.
template <unsigned Dim> struct BcSegment {
  BcKind Kind = BcKind::Transmissive;
  /// Physical tangential range [TangentialLo, TangentialHi) this segment
  /// covers; meaningless in 1D (a side is a point).
  double TangentialLo = -std::numeric_limits<double>::infinity();
  double TangentialHi = std::numeric_limits<double>::infinity();
  /// Frozen ghost state for Inflow.
  Cons<Dim> InflowState = {};
  /// Ghost state for Prescribed; called per tangential column per
  /// application with the time the engines pass to applyBoundaries (the
  /// start-of-step solver clock, the same value in every RK stage — see
  /// the note on applyBoundaries).  Must be a pure function so parallel
  /// ghost fills stay deterministic.
  std::function<Cons<Dim>(double Tangential, double Time)> StateAt;
};

/// Side numbering: side = 2*axis + (0 low / 1 high).
constexpr unsigned boundarySide(unsigned Axis, bool High) {
  return 2 * Axis + (High ? 1u : 0u);
}

/// Per-side segment lists describing a full domain boundary.
template <unsigned Dim> struct BoundarySpec {
  std::array<std::vector<BcSegment<Dim>>, 2 * Dim> Side;

  /// All sides a single \p Kind (the common 1D case).
  static BoundarySpec uniform(BcKind Kind) {
    BoundarySpec Spec;
    BcSegment<Dim> Seg;
    Seg.Kind = Kind;
    for (auto &S : Spec.Side)
      S.push_back(Seg);
    return Spec;
  }

  /// Replaces one side with a single segment.
  void setSide(unsigned SideIndex, BcSegment<Dim> Seg) {
    assert(SideIndex < 2 * Dim && "side out of range");
    Side[SideIndex] = {Seg};
  }

  /// The segment covering tangential coordinate \p T on \p SideIndex.
  const BcSegment<Dim> &segmentAt(unsigned SideIndex, double T) const {
    const std::vector<BcSegment<Dim>> &Segs = Side[SideIndex];
    assert(!Segs.empty() && "side has no boundary condition");
    for (const BcSegment<Dim> &Seg : Segs)
      if (T >= Seg.TangentialLo && T < Seg.TangentialHi)
        return Seg;
    // Out-of-range tangential coordinates (corner ghosts) clamp to the
    // nearest segment.
    return T < Segs.front().TangentialLo ? Segs.front() : Segs.back();
  }
};

namespace detail {

/// Fills the ghost layers of one side.  \p Tangential iterates the full
/// tangential storage extent when \p IncludeTangentialGhosts (second-axis
/// pass, so corners get defined values).
template <unsigned Dim>
void applyBoundarySide(Field<Dim> &U, const Grid<Dim> &G,
                       const BoundarySpec<Dim> &Spec, unsigned Axis,
                       bool High, bool IncludeTangentialGhosts,
                       Backend &Exec, double Time) {
  const unsigned Ng = G.ghost();
  const unsigned SideIndex = boundarySide(Axis, High);
  const std::ptrdiff_t N = static_cast<std::ptrdiff_t>(G.cells(Axis));
  const std::ptrdiff_t NgS = static_cast<std::ptrdiff_t>(Ng);

  // Tangential iteration space (rank Dim-1; a single point in 1D).
  Shape TangentialSpace = Shape::uniform(Dim == 1 ? 1 : Dim - 1, 1);
  std::array<unsigned, Dim> TangentialAxes = {};
  unsigned NumTangential = 0;
  for (unsigned A = 0; A < Dim; ++A) {
    if (A == Axis)
      continue;
    size_t Extent = IncludeTangentialGhosts
                        ? G.cells(A) + 2 * static_cast<size_t>(Ng)
                        : G.cells(A);
    TangentialSpace.dim(NumTangential) = Extent;
    TangentialAxes[NumTangential++] = A;
  }

  forEachIndex(TangentialSpace, Exec, [&](const Index &TIx, size_t) {
    // Build the storage index template for this tangential position and
    // find the segment from the physical tangential coordinate.
    Index Storage;
    Storage.Rank = Dim;
    double TangentialCoord = 0.0;
    for (unsigned T = 0; T < NumTangential; ++T) {
      unsigned A = TangentialAxes[T];
      std::ptrdiff_t Interior =
          IncludeTangentialGhosts ? TIx.Coord[T] - NgS : TIx.Coord[T];
      Storage.Coord[A] = Interior + NgS;
      TangentialCoord = G.cellCenter(A, Interior);
    }
    const BcSegment<Dim> &Seg = Spec.segmentAt(SideIndex, TangentialCoord);

    for (std::ptrdiff_t Layer = 1; Layer <= NgS; ++Layer) {
      Index Ghost = Storage;
      Index Source = Storage;
      Ghost.Coord[Axis] = High ? NgS + N - 1 + Layer : NgS - Layer;

      switch (Seg.Kind) {
      case BcKind::Transmissive:
        Source.Coord[Axis] = High ? NgS + N - 1 : NgS;
        U.set(Ghost, U.at(Source));
        break;
      case BcKind::Reflective: {
        Source.Coord[Axis] =
            High ? NgS + N - 1 - (Layer - 1) : NgS + (Layer - 1);
        Cons<Dim> Mirrored = U.at(Source);
        Mirrored.Mom[Axis] = -Mirrored.Mom[Axis];
        U.set(Ghost, Mirrored);
        break;
      }
      case BcKind::Inflow:
        U.set(Ghost, Seg.InflowState);
        break;
      case BcKind::Periodic:
        // Low ghost layer g copies interior cell N-g; high layer g
        // copies interior cell g-1.
        Source.Coord[Axis] = High ? NgS + (Layer - 1) : NgS + N - Layer;
        U.set(Ghost, U.at(Source));
        break;
      case BcKind::Prescribed:
        assert(Seg.StateAt && "Prescribed segment without a state function");
        U.set(Ghost, Seg.StateAt(TangentialCoord, Time));
        break;
      case BcKind::Halo:
        // Filled by the shard halo exchange before this pass.
        break;
      }
    }
  });
}

} // namespace detail

/// Fills every ghost layer of \p U according to \p Spec.
///
/// Passes run axis by axis; later axes iterate the full tangential
/// storage extent so corner ghosts receive the composition of both
/// conditions (wall mirror of an inflow column, etc.).
///
/// \p Time feeds Prescribed segments only.  Engines pass the solver
/// clock at the start of the step for every RK stage fill of that step —
/// a deliberate (documented) first-order-in-time treatment that keeps
/// both engines bit-identical.
template <unsigned Dim>
void applyBoundaries(Field<Dim> &U, const Grid<Dim> &G,
                     const BoundarySpec<Dim> &Spec, Backend &Exec,
                     double Time = 0.0) {
  assert(U.shape() == G.storageShape() && "field/grid mismatch");
  for (unsigned Axis = 0; Axis < Dim; ++Axis) {
    bool IncludeTangentialGhosts = Axis > 0;
    detail::applyBoundarySide(U, G, Spec, Axis, /*High=*/false,
                              IncludeTangentialGhosts, Exec, Time);
    detail::applyBoundarySide(U, G, Spec, Axis, /*High=*/true,
                              IncludeTangentialGhosts, Exec, Time);
  }
}

} // namespace sacfd

#endif // SACFD_SOLVER_BOUNDARYCONDITIONS_H
