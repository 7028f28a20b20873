//===- tests/KernelsSimdProbe.cpp - Arithmetic under the SIMD TU's flags --===//
//
// Part of SacFD, a reproduction of "Numerical Simulations of Unsteady Shock
// Wave Interactions Using SaC and Fortran-90" (PaCT 2009).
//
//===----------------------------------------------------------------------===//
//
// Linked into KernelsTest and compiled with the compile options of
// src/kernels/KernelsSimd.cpp (tests/CMakeLists.txt), so an identity the
// SIMD kernel bodies rely on is checked with the codegen they get:
// host-ISA vectors (-O3 vectorizes the loop), contraction off.
//
//===----------------------------------------------------------------------===//

#include "numerics/Reconstruction.h"

#include <cstddef>

namespace sacfd {
namespace testprobe {

void squaredJumps(const double *__restrict A, const double *__restrict B,
                  double *__restrict AB, double *__restrict BA,
                  double *__restrict WAB, double *__restrict WBA, size_t N) {
  for (size_t I = 0; I < N; ++I) {
    AB[I] = (A[I] - B[I]) * (A[I] - B[I]);
    BA[I] = (B[I] - A[I]) * (B[I] - A[I]);
    WAB[I] = weno3UpperWeight(A[I], B[I]);
    WBA[I] = weno3UpperWeight(B[I], A[I]);
  }
}

} // namespace testprobe
} // namespace sacfd
