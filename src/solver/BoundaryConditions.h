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
/// A fill of every side is one parallel region per application
/// (BoundaryFill: one work item per interior axis-0 slab plus one for
/// the axis-0 ghost slabs, segment lookups planned once, ghost layers
/// written as contiguous row copies) — part of the per-step region count whose cost the FIG4
/// experiment measures.
///
//===----------------------------------------------------------------------===//

#ifndef SACFD_SOLVER_BOUNDARYCONDITIONS_H
#define SACFD_SOLVER_BOUNDARYCONDITIONS_H

#include "euler/State.h"
#include "runtime/Backend.h"
#include "solver/Field.h"
#include "solver/Grid.h"

#include <algorithm>
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

/// The ghost fill of one grid under one boundary spec, planned once.
///
/// apply() is one parallel region over the axis-0 storage slabs (the
/// whole storage in 1D).  Work item 0 holds every axis-0 ghost slab: it
/// fills the low, then the high axis-0 ghost layers over the interior
/// tangential extent, then runs the axis-1..Dim-1 passes on each of its
/// slabs.  Work item k >= 1 is interior slab k-1 and runs only those
/// passes.  An axis-A pass (low side, then high side, axis by axis) fills
/// the slab's axis-A ghost layers over the full storage extent of the
/// other axes, so corner ghosts receive the composition of both
/// conditions (wall mirror of an inflow column, etc.).  The axis-0 pass
/// reads only cells interior along every other axis, which no axis >= 1
/// pass writes, and an axis >= 1 pass reads only its own slab, so the
/// work items have no seam hazards and every ghost cell ends with the
/// value of the sequential axis-by-axis fill.
///
/// Copying kinds move whole runs of a component plane per ghost layer
/// (contiguous along the last axis); Inflow broadcasts its state;
/// Prescribed calls StateAt once per tangential column per fill and
/// writes the state to every layer of that column; Halo cells are left
/// to the ghost-fill hook that ran before.
///
/// The segment of a ghost column is looked up in a per-side table built
/// at construction, indexed by the storage index of the side's last
/// tangential axis: that axis's cell centre picks the segment (in 3D the
/// other tangential axis plays no part), and ghost indices clamp to the
/// nearest segment.  The plan keeps pointers into \p Spec, which must
/// outlive it unchanged.
template <unsigned Dim> class BoundaryFill {
public:
  BoundaryFill(const Grid<Dim> &G, const BoundarySpec<Dim> &Spec)
      : Ng(G.ghost()) {
    const Shape Storage = G.storageShape();
    for (unsigned A = 0; A < Dim; ++A) {
      N[A] = G.cells(A);
      Extent[A] = Storage.dim(A);
    }
    Stride[Dim - 1] = 1;
    for (unsigned A = Dim - 1; A-- > 0;)
      Stride[A] = Stride[A + 1] * Extent[A + 1];
    for (unsigned Axis = 0; Axis < Dim; ++Axis)
      for (bool High : {false, true}) {
        const unsigned SideIndex = boundarySide(Axis, High);
        std::vector<Column> &Cols = Table[SideIndex];
        if constexpr (Dim == 1) {
          Cols.push_back({&Spec.segmentAt(SideIndex, 0.0), 0.0});
        } else {
          const unsigned P = pickAxis(Axis);
          const std::ptrdiff_t NgS = static_cast<std::ptrdiff_t>(Ng);
          for (size_t S = 0; S < Extent[P]; ++S) {
            double T = G.cellCenter(P, static_cast<std::ptrdiff_t>(S) - NgS);
            Cols.push_back({&Spec.segmentAt(SideIndex, T), T});
          }
        }
      }
  }

  /// Fills every ghost layer of \p U (storage-shaped for the planned
  /// grid).  \p Time feeds Prescribed segments only.
  void apply(Field<Dim> &U, Backend &Exec, double Time) const {
    kernels::Run<Dim> R = U.run();
    const size_t Items = Dim == 1 ? 1 : 1 + N[0];
    Exec.parallelFor(0, Items, [&](size_t B, size_t E) {
      for (size_t Item = B; Item != E; ++Item) {
        if (Item != 0) {
          tangentialPasses(R, Ng + Item - 1, Time);
          continue;
        }
        for (bool High : {false, true}) {
          if constexpr (Dim == 1) {
            fillSide(R, 0, High, 0, 0, 1, Time);
          } else {
            // Axis-0 layers over the interior of the other axes: runs
            // along the last axis, one per middle-axis row in 3D.
            const size_t Rows = Dim == 3 ? N[1] : 1;
            for (size_t Row = 0; Row != Rows; ++Row)
              fillSide(R, 0, High, Dim == 3 ? (Ng + Row) * Stride[1] : 0, Ng,
                       Ng + N[Dim - 1], Time);
          }
        }
        if constexpr (Dim > 1)
          for (size_t Layer = 0; Layer != Ng; ++Layer) {
            tangentialPasses(R, Layer, Time);
            tangentialPasses(R, Ng + N[0] + Layer, Time);
          }
      }
    });
  }

private:
  struct Column {
    const BcSegment<Dim> *Seg;
    /// Tangential coordinate passed to StateAt.
    double Coord;
  };

  /// The tangential axis whose cell centre picks a side's segment: the
  /// last axis other than \p Axis.
  static constexpr unsigned pickAxis(unsigned Axis) {
    return Axis == Dim - 1 ? Dim - 2 : Dim - 1;
  }

  /// The axis-1..Dim-1 passes on axis-0 storage slab \p Slab.
  void tangentialPasses(const kernels::Run<Dim> &R, size_t Slab,
                        double Time) const {
    for (unsigned Axis = 1; Axis < Dim; ++Axis)
      for (bool High : {false, true}) {
        if constexpr (Dim == 2)
          fillSide(R, Axis, High, 0, Slab, Slab + 1, Time);
        else
          fillSide(R, Axis, High, Slab * Stride[0], 0,
                   Extent[pickAxis(Axis)], Time);
      }
  }

  /// Fills the ghost layers of side (\p Axis, \p High) over columns
  /// [\p CB, \p CE) of the side's pick axis: the cell at storage
  /// coordinate K along Axis in column C sits at Base + K * Stride[Axis]
  /// + C * Stride[pickAxis(Axis)].  Columns run in stretches of one
  /// segment.
  void fillSide(const kernels::Run<Dim> &R, unsigned Axis, bool High,
                size_t Base, size_t CB, size_t CE, double Time) const {
    const std::vector<Column> &Cols = Table[boundarySide(Axis, High)];
    const size_t SA = Stride[Axis];
    size_t SC = 0;
    if constexpr (Dim > 1)
      SC = Stride[pickAxis(Axis)];
    const size_t Len = N[Axis];
    // Storage coordinate along Axis of ghost layer L (1-based) and of
    // the cell it copies.
    auto GhostAt = [&](size_t L) { return High ? Ng + Len - 1 + L : Ng - L; };
    for (size_t C = CB; C != CE;) {
      const BcSegment<Dim> &Seg = *Cols[C].Seg;
      size_t End = C + 1;
      while (End != CE && Cols[End].Seg == &Seg)
        ++End;
      const size_t Count = End - C;
      switch (Seg.Kind) {
      case BcKind::Halo:
        // Filled by the ghost-fill hook before this pass.
        break;
      case BcKind::Prescribed:
        assert(Seg.StateAt && "Prescribed segment without a state function");
        for (size_t K = C; K != End; ++K) {
          const Cons<Dim> Q = Seg.StateAt(Cols[K].Coord, Time);
          for (size_t L = 1; L <= Ng; ++L)
            kernels::storeCons<Dim>(R, Base + GhostAt(L) * SA + K * SC, Q);
        }
        break;
      case BcKind::Inflow:
        for (size_t L = 1; L <= Ng; ++L)
          for (unsigned V = 0; V < NumVars<Dim>; ++V) {
            double *D = R.C[V] + Base + GhostAt(L) * SA + C * SC;
            const double X = Seg.InflowState.comp(V);
            for (size_t K = 0; K != Count; ++K)
              D[K * SC] = X;
          }
        break;
      case BcKind::Transmissive:
      case BcKind::Reflective:
      case BcKind::Periodic:
        for (size_t L = 1; L <= Ng; ++L) {
          size_t Src;
          if (Seg.Kind == BcKind::Transmissive)
            Src = High ? Ng + Len - 1 : Ng;
          else if (Seg.Kind == BcKind::Reflective)
            Src = High ? Ng + Len - L : Ng + L - 1;
          else // Periodic: low layer L copies interior cell N-L, high
               // layer L interior cell L-1.
            Src = High ? Ng + L - 1 : Ng + Len - L;
          for (unsigned V = 0; V < NumVars<Dim>; ++V) {
            double *D = R.C[V] + Base + GhostAt(L) * SA + C * SC;
            const double *S = R.C[V] + Base + Src * SA + C * SC;
            if (Seg.Kind == BcKind::Reflective && V == 1 + Axis)
              for (size_t K = 0; K != Count; ++K)
                D[K * SC] = -S[K * SC];
            else if (SC == 1)
              std::copy_n(S, Count, D);
            else
              for (size_t K = 0; K != Count; ++K)
                D[K * SC] = S[K * SC];
          }
        }
        break;
      }
      C = End;
    }
  }

  size_t N[Dim] = {};
  size_t Extent[Dim] = {};
  size_t Stride[Dim] = {};
  size_t Ng = 0;
  /// Per side, one entry per storage index of the side's pick axis (a
  /// single entry in 1D).
  std::array<std::vector<Column>, 2 * Dim> Table;
};

/// Fills every ghost layer of \p U according to \p Spec: plans a
/// BoundaryFill and applies it (one parallel region).  Engines keep
/// their plan and apply it per stage.
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
  BoundaryFill<Dim>(G, Spec).apply(U, Exec, Time);
}

} // namespace sacfd

#endif // SACFD_SOLVER_BOUNDARYCONDITIONS_H
