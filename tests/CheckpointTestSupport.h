//===- tests/CheckpointTestSupport.h - Checkpoint test helpers -*- C++ -*-===//
//
// Helpers shared by the checkpoint file and store tests: the bytes a
// restore must reproduce, and a whole file read into a string.
//
//===----------------------------------------------------------------------===//

#ifndef SACFD_TESTS_CHECKPOINTTESTSUPPORT_H
#define SACFD_TESTS_CHECKPOINTTESTSUPPORT_H

#include "solver/EulerSolver.h"

#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

namespace sacfd {

/// Every bit a checkpoint restores: the whole field including ghosts (as
/// the interchange records the file stores), the bitwise clock and the
/// step count.
template <unsigned Dim>
std::vector<unsigned char> restorableBytes(const EulerSolver<Dim> &S) {
  std::vector<Cons<Dim>> U(S.field().size());
  S.field().exportTo(U.data());
  const size_t FieldBytes = U.size() * sizeof(Cons<Dim>);
  const double Time = S.time();
  const unsigned Steps = S.stepCount();
  std::vector<unsigned char> Bytes(FieldBytes + sizeof(Time) +
                                   sizeof(Steps));
  std::memcpy(Bytes.data(), U.data(), FieldBytes);
  std::memcpy(Bytes.data() + FieldBytes, &Time, sizeof(Time));
  std::memcpy(Bytes.data() + FieldBytes + sizeof(Time), &Steps,
              sizeof(Steps));
  return Bytes;
}

inline std::string readBytes(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(In)),
                     std::istreambuf_iterator<char>());
}

} // namespace sacfd

#endif // SACFD_TESTS_CHECKPOINTTESTSUPPORT_H
