//===- tests/BoundaryTest.cpp - Ghost-cell boundary condition tests -------===//

#include "runtime/Runtime.h"
#include "runtime/SerialBackend.h"
#include "solver/BoundaryConditions.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

using namespace sacfd;

namespace {

Gas G;

Cons<1> cons1(double Rho, double U, double P) {
  Prim<1> W;
  W.Rho = Rho;
  W.Vel = {U};
  W.P = P;
  return toCons(W, G);
}

Cons<2> cons2(double Rho, double U, double V, double P) {
  Prim<2> W;
  W.Rho = Rho;
  W.Vel = {U, V};
  W.P = P;
  return toCons(W, G);
}

/// 1D field on a 4-cell grid with 2 ghosts; interior cells get distinct
/// states indexed 0..3.
struct Field1D {
  Grid<1> Gr{{4}, {0.0}, {1.0}, 2};
  FieldPool Pool;
  Field<1> U{Pool, Gr.storageShape()};

  Field1D() {
    for (std::ptrdiff_t I = 0; I < 4; ++I)
      U.set(Gr.toStorage(Index{I}),
            cons1(1.0 + static_cast<double>(I), 0.5, 2.0));
  }
};

} // namespace

TEST(Boundary1D, TransmissiveCopiesEdgeCell) {
  Field1D F;
  SerialBackend Exec;
  applyBoundaries(F.U, F.Gr, BoundarySpec<1>::uniform(BcKind::Transmissive),
                  Exec);
  // Low ghosts (storage 0,1) copy interior cell 0 (storage 2).
  EXPECT_TRUE(F.U.at(Index{0}) == F.U.at(Index{2}));
  EXPECT_TRUE(F.U.at(Index{1}) == F.U.at(Index{2}));
  // High ghosts copy interior cell 3 (storage 5).
  EXPECT_TRUE(F.U.at(Index{6}) == F.U.at(Index{5}));
  EXPECT_TRUE(F.U.at(Index{7}) == F.U.at(Index{5}));
}

TEST(Boundary1D, ReflectiveMirrorsAndNegatesNormalMomentum) {
  Field1D F;
  SerialBackend Exec;
  applyBoundaries(F.U, F.Gr, BoundarySpec<1>::uniform(BcKind::Reflective),
                  Exec);
  // Layer 1 (storage 1) mirrors interior cell 0 (storage 2); layer 2
  // (storage 0) mirrors interior cell 1 (storage 3).
  EXPECT_EQ(F.U.at(Index{1}).Rho, F.U.at(Index{2}).Rho);
  EXPECT_EQ(F.U.at(Index{1}).Mom[0], -F.U.at(Index{2}).Mom[0]);
  EXPECT_EQ(F.U.at(Index{1}).E, F.U.at(Index{2}).E);
  EXPECT_EQ(F.U.at(Index{0}).Rho, F.U.at(Index{3}).Rho);
  EXPECT_EQ(F.U.at(Index{0}).Mom[0], -F.U.at(Index{3}).Mom[0]);
  // High side.
  EXPECT_EQ(F.U.at(Index{6}).Rho, F.U.at(Index{5}).Rho);
  EXPECT_EQ(F.U.at(Index{6}).Mom[0], -F.U.at(Index{5}).Mom[0]);
  EXPECT_EQ(F.U.at(Index{7}).Rho, F.U.at(Index{4}).Rho);
}

TEST(Boundary1D, InflowWritesFrozenState) {
  Field1D F;
  SerialBackend Exec;
  Cons<1> Frozen = cons1(9.0, 3.0, 7.0);
  BoundarySpec<1> Spec = BoundarySpec<1>::uniform(BcKind::Transmissive);
  BcSegment<1> In;
  In.Kind = BcKind::Inflow;
  In.InflowState = Frozen;
  Spec.setSide(boundarySide(0, false), In);
  applyBoundaries(F.U, F.Gr, Spec, Exec);
  EXPECT_TRUE(F.U.at(Index{0}) == Frozen);
  EXPECT_TRUE(F.U.at(Index{1}) == Frozen);
  // High side still transmissive.
  EXPECT_TRUE(F.U.at(Index{7}) == F.U.at(Index{5}));
}

TEST(Boundary1D, PeriodicWrapsBothEnds) {
  Field1D F;
  SerialBackend Exec;
  applyBoundaries(F.U, F.Gr, BoundarySpec<1>::uniform(BcKind::Periodic),
                  Exec);
  // Interior cells 0..3 live at storage 2..5.  Low ghost layer 1
  // (storage 1) copies interior N-1 (storage 5); layer 2 copies N-2.
  EXPECT_TRUE(F.U.at(Index{1}) == F.U.at(Index{5}));
  EXPECT_TRUE(F.U.at(Index{0}) == F.U.at(Index{4}));
  // High ghost layer 1 (storage 6) copies interior 0 (storage 2).
  EXPECT_TRUE(F.U.at(Index{6}) == F.U.at(Index{2}));
  EXPECT_TRUE(F.U.at(Index{7}) == F.U.at(Index{3}));
}

//===----------------------------------------------------------------------===//
// 2D: segmented sides and corners
//===----------------------------------------------------------------------===//

namespace {

/// 6x6 grid on [0,1]^2 with 2 ghosts, interior marked by position.
struct Field2D {
  Grid<2> Gr{{6, 6}, {0.0, 0.0}, {1.0, 1.0}, 2};
  FieldPool Pool;
  Field<2> U{Pool, Gr.storageShape()};

  Field2D() {
    for (std::ptrdiff_t I = 0; I < 6; ++I)
      for (std::ptrdiff_t J = 0; J < 6; ++J)
        U.set(Gr.toStorage(Index{I, J}),
              cons2(1.0 + 0.1 * static_cast<double>(I) +
                        0.01 * static_cast<double>(J),
                    0.3, -0.2, 1.5));
  }
};

} // namespace

TEST(Boundary2D, AllGhostCellsGetDefinedValues) {
  Field2D F;
  SerialBackend Exec;
  // Poison the ghosts, then check every storage cell is rewritten or
  // interior.
  Shape St = F.Gr.storageShape();
  Index Iv = St.delinearize(0);
  do {
    bool Interior = Iv[0] >= 2 && Iv[0] < 8 && Iv[1] >= 2 && Iv[1] < 8;
    if (!Interior)
      F.U.set(Iv, cons2(std::nan(""), 0, 0, 1));
  } while (St.increment(Iv));

  applyBoundaries(F.U, F.Gr, BoundarySpec<2>::uniform(BcKind::Transmissive),
                  Exec);

  Iv = St.delinearize(0);
  do {
    EXPECT_TRUE(std::isfinite(F.U.at(Iv).Rho))
        << "ghost (" << Iv[0] << "," << Iv[1] << ") left undefined";
  } while (St.increment(Iv));
}

TEST(Boundary2D, ReflectiveWallNegatesOnlyNormalComponent) {
  Field2D F;
  SerialBackend Exec;
  applyBoundaries(F.U, F.Gr, BoundarySpec<2>::uniform(BcKind::Reflective),
                  Exec);
  // Left wall (axis 0 low): ghost (1, j) mirrors interior (2, j).
  for (std::ptrdiff_t J = 2; J < 8; ++J) {
    const Cons<2> &Ghost = F.U.at(Index{1, J});
    const Cons<2> &Src = F.U.at(Index{2, J});
    EXPECT_EQ(Ghost.Rho, Src.Rho);
    EXPECT_EQ(Ghost.Mom[0], -Src.Mom[0]) << "normal flipped";
    EXPECT_EQ(Ghost.Mom[1], Src.Mom[1]) << "tangential kept";
    EXPECT_EQ(Ghost.E, Src.E);
  }
  // Bottom wall (axis 1 low): ghost (i, 1) mirrors interior (i, 2).
  for (std::ptrdiff_t I = 2; I < 8; ++I) {
    const Cons<2> &Ghost = F.U.at(Index{I, 1});
    const Cons<2> &Src = F.U.at(Index{I, 2});
    EXPECT_EQ(Ghost.Mom[0], Src.Mom[0]);
    EXPECT_EQ(Ghost.Mom[1], -Src.Mom[1]);
  }
}

TEST(Boundary2D, SegmentedSideSelectsByTangentialCoordinate) {
  // The paper's left boundary: inflow for y < 0.5, wall above.
  Field2D F;
  SerialBackend Exec;
  Cons<2> Jet = cons2(2.0, 3.0, 0.0, 4.5);

  BoundarySpec<2> Spec = BoundarySpec<2>::uniform(BcKind::Transmissive);
  BcSegment<2> Exit;
  Exit.Kind = BcKind::Inflow;
  Exit.InflowState = Jet;
  Exit.TangentialLo = 0.0;
  Exit.TangentialHi = 0.5;
  BcSegment<2> Wall;
  Wall.Kind = BcKind::Reflective;
  Wall.TangentialLo = 0.5;
  Wall.TangentialHi = std::numeric_limits<double>::infinity();
  Spec.Side[boundarySide(0, false)] = {Exit, Wall};

  applyBoundaries(F.U, F.Gr, Spec, Exec);

  // Interior y cells 0..2 have centers < 0.5 (dx = 1/6): inflow.
  for (std::ptrdiff_t J = 2; J < 5; ++J) {
    EXPECT_TRUE(F.U.at(Index{1, J}) == Jet) << "j=" << J;
    EXPECT_TRUE(F.U.at(Index{0, J}) == Jet) << "j=" << J;
  }
  // Interior y cells 3..5 (centers > 0.5): reflective wall.
  for (std::ptrdiff_t J = 5; J < 8; ++J) {
    const Cons<2> &Ghost = F.U.at(Index{1, J});
    const Cons<2> &Src = F.U.at(Index{2, J});
    EXPECT_EQ(Ghost.Mom[0], -Src.Mom[0]) << "j=" << J;
    EXPECT_EQ(Ghost.Rho, Src.Rho) << "j=" << J;
  }
}

TEST(Boundary2D, PrescribedStateFollowsTangentialAndTime) {
  // The double-Mach top boundary: the ghost state is a function of the
  // tangential coordinate AND the solver clock, so the same spec must
  // fill different ghosts as time advances.
  Field2D F;
  SerialBackend Exec;
  Cons<2> Pre = cons2(1.4, 0.0, 0.0, 1.0);
  Cons<2> Post = cons2(8.0, 7.14, -4.125, 116.5);

  BoundarySpec<2> Spec = BoundarySpec<2>::uniform(BcKind::Transmissive);
  BcSegment<2> Top;
  Top.Kind = BcKind::Prescribed;
  // Moving front: post-shock left of x = 0.3 + t, pre-shock right of it.
  Top.StateAt = [Pre, Post](double Tangential, double Time) {
    return Tangential < 0.3 + Time ? Post : Pre;
  };
  Spec.setSide(boundarySide(1, true), Top);

  applyBoundaries(F.U, F.Gr, Spec, Exec, /*Time=*/0.0);
  // dx = 1/6: interior x cells 0,1 (centers 1/12, 3/12) are post-shock,
  // the rest pre-shock.
  EXPECT_TRUE(F.U.at(Index{2, 8}) == Post);
  EXPECT_TRUE(F.U.at(Index{3, 8}) == Post);
  EXPECT_TRUE(F.U.at(Index{4, 8}) == Pre);
  EXPECT_TRUE(F.U.at(Index{7, 9}) == Pre);

  // Advance the clock: the front has swept past x = 0.75.
  applyBoundaries(F.U, F.Gr, Spec, Exec, /*Time=*/0.5);
  EXPECT_TRUE(F.U.at(Index{4, 8}) == Post);
  EXPECT_TRUE(F.U.at(Index{6, 8}) == Post);
  EXPECT_TRUE(F.U.at(Index{7, 8}) == Pre);
}

TEST(Boundary2D, IdenticalAcrossBackends) {
  SerialBackend Serial;
  auto Pool = createBackend(BackendKind::SpinPool, 4);
  auto Fork = createBackend(BackendKind::ForkJoin, 3);

  Field2D A, B, C;
  BoundarySpec<2> Spec = BoundarySpec<2>::uniform(BcKind::Reflective);
  applyBoundaries(A.U, A.Gr, Spec, Serial);
  applyBoundaries(B.U, B.Gr, Spec, *Pool);
  applyBoundaries(C.U, C.Gr, Spec, *Fork);

  for (size_t I = 0; I < A.U.size(); ++I) {
    EXPECT_TRUE(A.U.load(I) == B.U.load(I)) << "cell " << I;
    EXPECT_TRUE(A.U.load(I) == C.U.load(I)) << "cell " << I;
  }
}

TEST(BoundarySpec, SegmentLookupClampsOutOfRange) {
  BoundarySpec<2> Spec;
  BcSegment<2> A, B;
  A.Kind = BcKind::Inflow;
  A.TangentialLo = 0.0;
  A.TangentialHi = 0.5;
  B.Kind = BcKind::Reflective;
  B.TangentialLo = 0.5;
  B.TangentialHi = 1.0;
  Spec.Side[0] = {A, B};

  EXPECT_EQ(Spec.segmentAt(0, 0.25).Kind, BcKind::Inflow);
  EXPECT_EQ(Spec.segmentAt(0, 0.75).Kind, BcKind::Reflective);
  // Corner-ghost coordinates outside [0, 1) clamp to nearest segment.
  EXPECT_EQ(Spec.segmentAt(0, -0.1).Kind, BcKind::Inflow);
  EXPECT_EQ(Spec.segmentAt(0, 1.2).Kind, BcKind::Reflective);
}

//===----------------------------------------------------------------------===//
// The one-region fill against the sequential two-pass rule
//===----------------------------------------------------------------------===//

namespace {

/// The sequential per-cell fill the one-region BoundaryFill replaces,
/// kept here as the reference: axis by axis, low side then high side;
/// the axis-0 pass covers the interior tangential extent, later axes the
/// full storage extent, and the last tangential axis's cell centre picks
/// the segment.  Prescribed evaluates its state once per ghost cell.
template <unsigned Dim>
void twoPassSide(Field<Dim> &U, const Grid<Dim> &G,
                 const BoundarySpec<Dim> &Spec, unsigned Axis, bool High,
                 double Time) {
  const bool AllTangential = Axis > 0;
  const std::ptrdiff_t N = static_cast<std::ptrdiff_t>(G.cells(Axis));
  const std::ptrdiff_t Ng = static_cast<std::ptrdiff_t>(G.ghost());
  Shape Space = Shape::uniform(Dim == 1 ? 1 : Dim - 1, 1);
  std::array<unsigned, Dim> Axes = {};
  unsigned NumTangential = 0;
  for (unsigned A = 0; A < Dim; ++A) {
    if (A == Axis)
      continue;
    Space.dim(NumTangential) =
        AllTangential ? G.cells(A) + 2 * G.ghost() : G.cells(A);
    Axes[NumTangential++] = A;
  }
  Index T = Space.delinearize(0);
  do {
    Index Storage;
    Storage.Rank = Dim;
    double Coord = 0.0;
    for (unsigned K = 0; K < NumTangential; ++K) {
      std::ptrdiff_t Interior = AllTangential ? T.Coord[K] - Ng : T.Coord[K];
      Storage.Coord[Axes[K]] = Interior + Ng;
      Coord = G.cellCenter(Axes[K], Interior);
    }
    const BcSegment<Dim> &Seg = Spec.segmentAt(boundarySide(Axis, High), Coord);
    for (std::ptrdiff_t L = 1; L <= Ng; ++L) {
      Index Ghost = Storage, Source = Storage;
      Ghost.Coord[Axis] = High ? Ng + N - 1 + L : Ng - L;
      switch (Seg.Kind) {
      case BcKind::Transmissive:
        Source.Coord[Axis] = High ? Ng + N - 1 : Ng;
        U.set(Ghost, U.at(Source));
        break;
      case BcKind::Reflective: {
        Source.Coord[Axis] = High ? Ng + N - 1 - (L - 1) : Ng + (L - 1);
        Cons<Dim> Q = U.at(Source);
        Q.Mom[Axis] = -Q.Mom[Axis];
        U.set(Ghost, Q);
        break;
      }
      case BcKind::Inflow:
        U.set(Ghost, Seg.InflowState);
        break;
      case BcKind::Periodic:
        Source.Coord[Axis] = High ? Ng + (L - 1) : Ng + N - L;
        U.set(Ghost, U.at(Source));
        break;
      case BcKind::Prescribed:
        U.set(Ghost, Seg.StateAt(Coord, Time));
        break;
      case BcKind::Halo:
        break;
      }
    }
  } while (Space.increment(T));
}

template <unsigned Dim>
void twoPassFill(Field<Dim> &U, const Grid<Dim> &G,
                 const BoundarySpec<Dim> &Spec, double Time) {
  for (unsigned Axis = 0; Axis < Dim; ++Axis) {
    twoPassSide(U, G, Spec, Axis, /*High=*/false, Time);
    twoPassSide(U, G, Spec, Axis, /*High=*/true, Time);
  }
}

/// A distinct, finite state for every storage cell, ghosts included, so
/// a ghost the fill leaves alone keeps a value no other cell holds.
template <unsigned Dim> void markStorage(Field<Dim> &U) {
  for (size_t I = 0; I < U.size(); ++I) {
    Cons<Dim> Q;
    double X = static_cast<double>(I);
    Q.Rho = 1.0 + 0.01 * X;
    for (unsigned A = 0; A < Dim; ++A)
      Q.Mom[A] = 0.3 * static_cast<double>(A + 1) - 0.002 * X;
    Q.E = 4.0 + 0.03 * X;
    U.store(I, Q);
  }
}

template <unsigned Dim> Cons<Dim> frozenState(double Rho) {
  Cons<Dim> Q;
  Q.Rho = Rho;
  for (unsigned A = 0; A < Dim; ++A)
    Q.Mom[A] = 0.7 * Rho + static_cast<double>(A);
  Q.E = 9.0 * Rho;
  return Q;
}

/// A pure Prescribed state of (tangential coordinate, time).
template <unsigned Dim> BcSegment<Dim> prescribedSegment() {
  BcSegment<Dim> Seg;
  Seg.Kind = BcKind::Prescribed;
  Seg.StateAt = [](double T, double Time) {
    return frozenState<Dim>(T < 0.4 + Time ? 2.0 + T : 1.0 + Time);
  };
  return Seg;
}

/// Every BcKind: each uniform, the Fig. 2 split sides (part inflow, part
/// wall) beside Prescribed and transmissive sides, and shard interfaces
/// (Halo on both axis-0 sides).
template <unsigned Dim>
std::vector<std::pair<std::string, BoundarySpec<Dim>>> fillSpecs() {
  std::vector<std::pair<std::string, BoundarySpec<Dim>>> Specs;
  const std::pair<const char *, BcKind> Uniform[] = {
      {"transmissive", BcKind::Transmissive},
      {"reflective", BcKind::Reflective},
      {"periodic", BcKind::Periodic},
      {"halo", BcKind::Halo}};
  for (auto [Name, K] : Uniform)
    Specs.push_back({std::string("uniform ") + Name,
                     BoundarySpec<Dim>::uniform(K)});
  BcSegment<Dim> Inflow;
  Inflow.Kind = BcKind::Inflow;
  Inflow.InflowState = frozenState<Dim>(3.0);
  BoundarySpec<Dim> AllInflow;
  for (auto &S : AllInflow.Side)
    S = {Inflow};
  Specs.push_back({"uniform inflow", AllInflow});
  BoundarySpec<Dim> AllPrescribed;
  for (auto &S : AllPrescribed.Side)
    S = {prescribedSegment<Dim>()};
  Specs.push_back({"uniform prescribed", AllPrescribed});

  // The paper's left and bottom sides: inflow below a tangential
  // coordinate of 0.5, wall above; the top is Prescribed.
  BoundarySpec<Dim> Split = BoundarySpec<Dim>::uniform(BcKind::Transmissive);
  BcSegment<Dim> Exit = Inflow, Wall;
  Exit.TangentialLo = 0.0;
  Exit.TangentialHi = 0.5;
  Wall.Kind = BcKind::Reflective;
  Wall.TangentialLo = 0.5;
  Split.Side[boundarySide(0, false)] = {Exit, Wall};
  if constexpr (Dim > 1) {
    Split.Side[boundarySide(1, false)] = {Exit, Wall};
    Split.setSide(boundarySide(1, true), prescribedSegment<Dim>());
  }
  Specs.push_back({"split sides", Split});

  BoundarySpec<Dim> Shard = Split;
  BcSegment<Dim> Halo;
  Halo.Kind = BcKind::Halo;
  Shard.setSide(boundarySide(0, false), Halo);
  Shard.setSide(boundarySide(0, true), Halo);
  Specs.push_back({"shard halo sides", Shard});
  return Specs;
}

/// For Ng 1..3, every spec of fillSpecs and Prescribed times 0 and 0.35:
/// applyBoundaries on serial, spin-pool(3) and fork-join(3) must leave
/// full storage (ghosts and corners included) byte-identical to the
/// two-pass rule.  Cells the rule does not write (Halo) keep their marks.
template <unsigned Dim>
void checkFillMatchesTwoPassRule(std::array<size_t, Dim> Cells) {
  SerialBackend Serial;
  auto Pool = createBackend(BackendKind::SpinPool, 3);
  auto Fork = createBackend(BackendKind::ForkJoin, 3);
  Backend *Backends[] = {&Serial, Pool.get(), Fork.get()};
  std::array<double, Dim> Lo, Hi;
  for (unsigned A = 0; A < Dim; ++A) {
    Lo[A] = 0.0;
    Hi[A] = 1.0 + static_cast<double>(A);
  }
  for (unsigned Ng = 1; Ng <= 3; ++Ng) {
    Grid<Dim> Gr(Cells, Lo, Hi, Ng);
    for (const auto &[Name, Spec] : fillSpecs<Dim>())
      for (double Time : {0.0, 0.35}) {
        FieldPool FP;
        Field<Dim> Want(FP, Gr.storageShape());
        markStorage(Want);
        twoPassFill(Want, Gr, Spec, Time);
        std::vector<Cons<Dim>> WantStorage(Want.size());
        Want.exportTo(WantStorage.data());
        for (Backend *Exec : Backends) {
          SCOPED_TRACE(Name + " Ng=" + std::to_string(Ng) +
                       " t=" + std::to_string(Time) + " on " + Exec->name());
          Field<Dim> Got(FP, Gr.storageShape());
          markStorage(Got);
          const uint64_t Regions = Exec->regionsDispatched();
          applyBoundaries(Got, Gr, Spec, *Exec, Time);
          EXPECT_EQ(Exec->regionsDispatched() - Regions, 1u);
          std::vector<Cons<Dim>> GotStorage(Got.size());
          Got.exportTo(GotStorage.data());
          EXPECT_EQ(std::memcmp(GotStorage.data(), WantStorage.data(),
                                GotStorage.size() * sizeof(Cons<Dim>)),
                    0);
        }
      }
  }
}

} // namespace

TEST(BoundaryFill, OneRegionMatchesTwoPassRule1D) {
  checkFillMatchesTwoPassRule<1>({5});
}

TEST(BoundaryFill, OneRegionMatchesTwoPassRule2D) {
  checkFillMatchesTwoPassRule<2>({7, 5});
}

TEST(BoundaryFill, OneRegionMatchesTwoPassRule3D) {
  checkFillMatchesTwoPassRule<3>({5, 4, 6});
}

TEST(BoundaryFill, PrescribedEvaluatesOncePerColumnPerFill) {
  // The top side of a 6x6 grid with 3 ghost layers: one StateAt call per
  // tangential storage column (6 + 2*3), not one per ghost cell.
  Grid<2> Gr({6, 6}, {0.0, 0.0}, {1.0, 1.0}, 3);
  FieldPool FP;
  Field<2> U(FP, Gr.storageShape());
  std::atomic<unsigned> Calls{0};
  BoundarySpec<2> Spec = BoundarySpec<2>::uniform(BcKind::Transmissive);
  BcSegment<2> Top = prescribedSegment<2>();
  Top.StateAt = [&Calls](double T, double Time) {
    Calls.fetch_add(1, std::memory_order_relaxed);
    return frozenState<2>(1.0 + T + Time);
  };
  Spec.setSide(boundarySide(1, true), Top);
  auto Pool = createBackend(BackendKind::SpinPool, 3);
  BoundaryFill<2> Fill(Gr, Spec);
  Fill.apply(U, *Pool, 0.0);
  EXPECT_EQ(Calls.load(), 12u);
  Fill.apply(U, *Pool, 0.5);
  EXPECT_EQ(Calls.load(), 24u);
}
