//===- array/Layout.h - Field memory-layout descriptor ---------*- C++ -*-===//
//
// Part of SacFD, a reproduction of "Numerical Simulations of Unsteady Shock
// Wave Interactions Using SaC and Fortran-90" (PaCT 2009).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The field memory-layout vocabulary shared by FieldPool, Field, and the
/// kernels:: layer.
///
/// Conserved fields are stored SoA: each conserved component lives in its
/// own contiguous plane, so the inner kernels see unit-stride streams the
/// compiler can vectorize.  (Arrays of Cons records remain only as the
/// interchange format of checkpoints, snapshots and diagnostics.)  Every
/// pooled buffer is aligned to kFieldAlign and planes are tail-padded to
/// a whole number of alignment blocks, so each component plane starts on
/// a 64-byte boundary regardless of the cell count.
///
//===----------------------------------------------------------------------===//

#ifndef SACFD_ARRAY_LAYOUT_H
#define SACFD_ARRAY_LAYOUT_H

#include <cstddef>

namespace sacfd {

/// How a field's conserved components are arranged in memory.  SoA is
/// the only in-memory layout; the name survives for reports.
enum class Layout : unsigned char {
  SoA = 1, ///< one contiguous, padded plane per conserved component
};

/// Alignment of every pooled buffer, and the SoA plane boundary.  One
/// cache line; wide enough for any vector ISA this code targets.
inline constexpr size_t kFieldAlign = 64;

/// Doubles per alignment block.
inline constexpr size_t kAlignDoubles = kFieldAlign / sizeof(double);

/// Rounds an element count up to a whole number of alignment blocks so
/// consecutive SoA planes all start kFieldAlign-aligned.
constexpr size_t paddedCount(size_t N) {
  return (N + kAlignDoubles - 1) / kAlignDoubles * kAlignDoubles;
}

constexpr const char *layoutName(Layout) { return "soa"; }

} // namespace sacfd

#endif // SACFD_ARRAY_LAYOUT_H
