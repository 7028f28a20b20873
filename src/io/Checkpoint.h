//===- io/Checkpoint.h - Crash-safe checkpoint / restart -------*- C++ -*-===//
//
// Part of SacFD, a reproduction of "Numerical Simulations of Unsteady Shock
// Wave Interactions Using SaC and Fortran-90" (PaCT 2009).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Save/restore of a solver's full state (field including ghosts, clock,
/// step count) for long-run workflows: a restarted run continues
/// bit-identically to an uninterrupted one (tested, including across a
/// SIGKILL mid-write).
///
/// Format v3: a fixed header (magic, version, rank, gamma, grid geometry,
/// time, steps, payload byte count) carrying a checkpointChecksum() of
/// itself and of the field payload, followed by the raw field bytes.
/// Native endianness and IEEE-754 doubles — a single-machine format, not
/// an archival one.  Only v3 loads: a file of any other version (the
/// retired, checksum-less v1, or v2, whose layout is v3's but whose
/// checksums are byte-serial FNV-1a) is rejected as VersionSkew.
///
/// Durability contract of saveCheckpoint():
///   - the bytes are staged in `<path>.tmp`, flushed and fsynced, then
///     renamed onto the final path — a reader never observes a torn
///     file under the real name, and a failed save leaves any previous
///     checkpoint at that path intact;
///   - every file operation routes through support/FaultInjection, so
///     each failure mode is constructible in tests.
///
/// All entry points return a CheckpointStatus carrying a CheckpointError
/// from a closed taxonomy plus a human-readable detail line; there are
/// deliberately no bool-returning forms.
///
//===----------------------------------------------------------------------===//

#ifndef SACFD_IO_CHECKPOINT_H
#define SACFD_IO_CHECKPOINT_H

#include "solver/EulerSolver.h"

#include <cstddef>
#include <cstdint>
#include <string>

namespace sacfd {

/// Everything that can go wrong saving or loading a checkpoint.  Load
/// errors are ordered by detection: existence, then file integrity, then
/// compatibility with the receiving solver.
enum class CheckpointError {
  None,             ///< success
  NotFound,         ///< the file cannot be opened for reading
  Truncated,        ///< file size disagrees with the payload byte count
                    ///< (either direction: short file or trailing bytes)
  BadMagic,         ///< the leading magic is not a SacFD checkpoint's
  VersionSkew,      ///< a version this build does not read
  GeometryMismatch, ///< rank/cells/bounds/ghost/gamma differ from the
                    ///< receiving solver's problem
  ChecksumMismatch, ///< header or payload bytes fail their checksum
  WriteFailed,      ///< open/write/flush/rename failure on the save path
};

/// \returns the stable lower-case name used in reports and tests.
const char *checkpointErrorName(CheckpointError E);

/// Outcome of a checkpoint operation: an error code from the closed
/// taxonomy plus a one-line human-readable detail (paths, sizes,
/// checksums — whatever pins down this occurrence).
struct CheckpointStatus {
  CheckpointError Error = CheckpointError::None;
  std::string Detail;

  bool ok() const { return Error == CheckpointError::None; }
  explicit operator bool() const { return ok(); }

  /// "truncated: payload is 512 bytes short (...)" — name plus detail.
  std::string str() const;

  static CheckpointStatus success() { return {}; }
  static CheckpointStatus make(CheckpointError E, std::string Detail) {
    return {E, std::move(Detail)};
  }
};

/// The checksum of both v3 sections: 8 independent 64-bit lanes, lane j
/// folding the native-endian words j, j+8, ... as H = (H ^ w) * FnvPrime,
/// H ^= H >> 32, from its own seed; the Bytes mod 8 tail bytes fold one
/// at a time into the lane that the next word would reach; then the 8
/// lane values fold the same way, as words, into one hash.  Every step is
/// a bijection of H and injective in its word, so any single-word change
/// (in particular any single-bit flip) changes the result, as with
/// byte-serial FNV-1a.  The xor-shift carries each word's high bits (a
/// double's sign and exponent) down into the low half, so two flips of
/// the same bit position do not cancel as they would under the multiply
/// alone.  The lanes' steps are independent, so a checksum costs a small
/// fraction of a byte-serial one.
uint64_t checkpointChecksum(const void *Data, size_t Bytes);

/// Prints a structured one-line checkpoint failure to stderr:
/// "sacfd checkpoint [<context>]: <error-name>: <detail>".  No-op for
/// ok() statuses.
void reportCheckpointError(const char *Context, const CheckpointStatus &St);

/// Writes the solver's full state to \p Path atomically (tmp + fsync +
/// rename).  On failure no partial file is left under \p Path and any
/// previous file there is untouched.
template <unsigned Dim>
CheckpointStatus saveCheckpoint(const std::string &Path,
                                const EulerSolver<Dim> &S);

/// Bounded retry-with-backoff around saveCheckpoint for transient write
/// failures (only WriteFailed is retried; a sick geometry would never
/// heal).  Sleeps BackoffMs, 2*BackoffMs, ... between attempts.
struct RetryPolicy {
  unsigned Attempts = 3;
  unsigned BackoffMs = 2;
};
template <unsigned Dim>
CheckpointStatus saveCheckpointWithRetry(const std::string &Path,
                                         const EulerSolver<Dim> &S,
                                         const RetryPolicy &Retry = {});

/// Restores a v3 checkpoint into \p S.
///
/// The solver must already be constructed on the *same problem geometry*
/// (rank, cell counts, ghost layers, bounds, gamma); the file is
/// validated against it — including an exact file-size-vs-payload check
/// in both directions and header and payload checksums — and
/// the load is rejected with the precise CheckpointError on any
/// mismatch.  A failed load leaves the solver bit-identical.  On success
/// the field, time and step count are replaced and the run continues
/// bit-identically.
template <unsigned Dim>
CheckpointStatus loadCheckpoint(const std::string &Path, EulerSolver<Dim> &S);

extern template CheckpointStatus saveCheckpoint<1>(const std::string &,
                                                   const EulerSolver<1> &);
extern template CheckpointStatus saveCheckpoint<2>(const std::string &,
                                                   const EulerSolver<2> &);
extern template CheckpointStatus saveCheckpoint<3>(const std::string &,
                                                   const EulerSolver<3> &);
extern template CheckpointStatus
saveCheckpointWithRetry<1>(const std::string &, const EulerSolver<1> &,
                           const RetryPolicy &);
extern template CheckpointStatus
saveCheckpointWithRetry<2>(const std::string &, const EulerSolver<2> &,
                           const RetryPolicy &);
extern template CheckpointStatus
saveCheckpointWithRetry<3>(const std::string &, const EulerSolver<3> &,
                           const RetryPolicy &);
extern template CheckpointStatus loadCheckpoint<1>(const std::string &,
                                                   EulerSolver<1> &);
extern template CheckpointStatus loadCheckpoint<2>(const std::string &,
                                                   EulerSolver<2> &);
extern template CheckpointStatus loadCheckpoint<3>(const std::string &,
                                                   EulerSolver<3> &);

} // namespace sacfd

#endif // SACFD_IO_CHECKPOINT_H
