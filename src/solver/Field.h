//===- solver/Field.h - SoA conserved-state field --------------*- C++ -*-===//
//
// Part of SacFD, a reproduction of "Numerical Simulations of Unsteady Shock
// Wave Interactions Using SaC and Fortran-90" (PaCT 2009).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The solver's conserved-state storage.
///
/// A Field<Dim> owns one pooled buffer holding Shape::count() states as
/// NumVars 64-byte-aligned planes of doubles (SoA), each plane
/// tail-padded to a multiple of the vector width.  Element access goes
/// through at()/set() — at() returns the state by value, const-qualified
/// so a stale `field.at(I) = Q` write fails to compile instead of
/// silently updating a temporary — and bulk access goes through run() /
/// crun(), the unit-stride kernels:: views.
///
/// An array of Cons<Dim> records (AoS) is the interchange format:
/// checkpoints, snapshot staging and diagnostics move whole fields
/// through exportTo()/importFrom(), so the on-disk format is independent
/// of the in-memory planes.
///
//===----------------------------------------------------------------------===//

#ifndef SACFD_SOLVER_FIELD_H
#define SACFD_SOLVER_FIELD_H

#include "array/FieldPool.h"
#include "array/Layout.h"
#include "array/Shape.h"
#include "kernels/Kernels.h"

#include <cstddef>

namespace sacfd {

/// Whether a Field's lease is value-initialized (all-zero states) or
/// left with unspecified contents (for buffers fully overwritten before
/// being read — the pool's no-memset fast path).
enum class FieldInit { Zero, Uninit };

/// One conserved-state field of a fixed shape, stored as SoA planes.
template <unsigned Dim> class Field {
public:
  Field() = default;

  /// Leases storage for \p S.count() states from \p Pool.
  /// FieldInit::Zero matches the NDArray<Cons>(Shape) construction this
  /// replaces.
  Field(FieldPool &Pool, const Shape &S, FieldInit Init = FieldInit::Zero)
      : Dims(S), Plane(paddedCount(S.count())) {
    Shape Planes({static_cast<size_t>(NumVars<Dim>), Plane});
    Soa = Init == FieldInit::Zero ? Pool.acquire<double>(Planes)
                                  : Pool.acquireUninit<double>(Planes);
  }

  const Shape &shape() const { return Dims; }
  size_t size() const { return Dims.count(); }

  /// State at linear cell \p I.  Returned by value; const-qualified so
  /// assignment through at() is a compile error (use set()).
  const Cons<Dim> load(size_t I) const {
    return kernels::loadCons<Dim>(crun(), I);
  }
  const Cons<Dim> at(const Index &I) const { return load(Dims.linearize(I)); }

  void store(size_t I, const Cons<Dim> &Q) {
    kernels::storeCons<Dim>(run(), I, Q);
  }
  void set(const Index &I, const Cons<Dim> &Q) { store(Dims.linearize(I), Q); }

  void fill(const Cons<Dim> &Q) {
    kernels::Run<Dim> R = run();
    for (size_t I = 0, N = size(); I < N; ++I)
      kernels::storeCons<Dim>(R, I, Q);
  }

  /// Kernel view of the run of cells starting at linear offset \p Off.
  kernels::Run<Dim> run(size_t Off = 0) {
    return kernels::soaRun<Dim>(Soa->data(), Plane, Off);
  }
  kernels::ConstRun<Dim> crun(size_t Off = 0) const {
    return kernels::soaRun<Dim>(Soa->data(), Plane, Off);
  }

  /// Copies all states into \p Out (an array of size() records) in
  /// linear cell order — the AoS interchange format shared by
  /// checkpoints and snapshot staging.
  void exportTo(Cons<Dim> *Out) const {
    kernels::ConstRun<Dim> R = crun();
    for (size_t I = 0, N = size(); I < N; ++I)
      Out[I] = kernels::loadCons<Dim>(R, I);
  }
  void importFrom(const Cons<Dim> *In) {
    kernels::Run<Dim> R = run();
    for (size_t I = 0, N = size(); I < N; ++I)
      kernels::storeCons<Dim>(R, I, In[I]);
  }

private:
  Shape Dims;
  FieldPool::Lease<double> Soa;
  /// Plane stride in doubles (padded cell count).
  size_t Plane = 0;
};

/// View of the thread-local line scratch fluxScratch hands out: blocks
/// of one length, each NumPrimVars<Dim> padded SoA planes, so a block
/// holds either a conserved-state row (run(): its first NumVars planes)
/// or a cellPrims row (prims()).  Unit stride throughout, so every
/// kernel call mixing a field run with a scratch run (accumDivergence
/// in particular) admits the SIMD mirrors.
template <unsigned Dim> class FluxScratch {
public:
  FluxScratch(double *Base, size_t Plane) : Base(Base), Plane(Plane) {}

  kernels::Run<Dim> run(unsigned Block) const {
    return kernels::soaRun<Dim>(block(Block), Plane, 0);
  }
  kernels::PrimRun<Dim> prims(unsigned Block) const {
    return kernels::primRun<Dim>(block(Block), Plane, 0);
  }

private:
  double *block(unsigned Block) const {
    return Base + static_cast<size_t>(Block) * kernels::NumPrimVars<Dim> *
                      Plane;
  }

  double *Base;
  size_t Plane;
};

/// Thread-local line scratch of \p Blocks blocks of \p Len cells each.
/// Grown-only per thread: persistent worker pools allocate it once per
/// thread, fork-join teams re-pay it per region.  A call that grows it
/// reallocates, which moves every block an earlier call handed out — so
/// a sweep takes all the blocks it needs from one call, and calls
/// nothing else that takes scratch while it holds them.  Every slot is
/// written before it is read.
template <unsigned Dim>
inline FluxScratch<Dim> fluxScratch(unsigned Blocks, size_t Len) {
  size_t Plane = paddedCount(Len);
  size_t Needed = static_cast<size_t>(Blocks) * kernels::NumPrimVars<Dim> *
                  Plane;
  static thread_local NDArray<double> Buf;
  if (Buf.size() < Needed)
    Buf.reshapeDiscard(Shape{Needed});
  return FluxScratch<Dim>(Buf.data(), Plane);
}

} // namespace sacfd

#endif // SACFD_SOLVER_FIELD_H
