//===- support/Hash.h - FNV-1a hashing ------------------------*- C++ -*-===//
//
// Part of SacFD, a reproduction of "Numerical Simulations of Unsteady Shock
// Wave Interactions Using SaC and Fortran-90" (PaCT 2009).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// 64-bit FNV-1a, the hash of field states: fieldStateHash, the scenario
/// gallery's pinned reference hashes (solver/Scenario) and the
/// benchmark's pinned rows all fold state bytes through it, so its values
/// are frozen wherever a reference hash is checked in.  It is byte-serial
/// (one dependent multiply per byte), which is why checkpoint files do
/// not use it: their sections carry checkpointChecksum (io/Checkpoint),
/// an FNV multiply over 8 independent word lanes with an xor-shift after
/// each step.  Both hashes share the constants below.
///
//===----------------------------------------------------------------------===//

#ifndef SACFD_SUPPORT_HASH_H
#define SACFD_SUPPORT_HASH_H

#include <cstddef>
#include <cstdint>

namespace sacfd {

inline constexpr uint64_t FnvOffsetBasis = 14695981039346656037ull;
inline constexpr uint64_t FnvPrime = 1099511628211ull;

/// FNV-1a over \p Bytes bytes, continuing from \p Seed so multi-buffer
/// hashes chain: fnv1a(B, n, fnv1a(A, m)) == hash of A ++ B.
inline uint64_t fnv1a(const void *Data, size_t Bytes,
                      uint64_t Seed = FnvOffsetBasis) {
  const auto *P = static_cast<const unsigned char *>(Data);
  uint64_t H = Seed;
  for (size_t I = 0; I < Bytes; ++I) {
    H ^= P[I];
    H *= FnvPrime;
  }
  return H;
}

} // namespace sacfd

#endif // SACFD_SUPPORT_HASH_H
