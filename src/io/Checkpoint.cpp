//===- io/Checkpoint.cpp - Crash-safe checkpoint / restart ----------------===//

#include "io/Checkpoint.h"

#include "support/FaultInjection.h"
#include "support/Hash.h"
#include "telemetry/Telemetry.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <unistd.h>

using namespace sacfd;

namespace {

constexpr uint64_t CheckpointMagic = 0x53414346'44434B50ull; // "SACFDCKP"
constexpr uint32_t FormatVersion = 3;

struct AxisRecord {
  uint64_t Cells;
  double Lo;
  double Hi;
};

/// The leading part of the header, read before the version is known.
/// Field order and types are frozen: 112 bytes, no padding.
struct HeaderPrefix {
  uint64_t Magic;
  uint32_t Version;
  uint32_t Rank;
  uint32_t Ghost;
  uint32_t Steps;
  double Gamma;
  double Time;
  AxisRecord Axis[MaxRank];
};
static_assert(sizeof(HeaderPrefix) == 112, "frozen on-disk layout");

/// v3 = prefix + payload byte count + two checkpointChecksum()s.  The
/// header checksum covers every byte of the header before itself.
struct Header {
  HeaderPrefix P;
  uint64_t PayloadBytes;
  uint64_t PayloadChecksum;
  uint64_t HeaderChecksum;
};
static_assert(sizeof(Header) == sizeof(HeaderPrefix) + 24,
              "frozen on-disk layout");

uint64_t headerChecksum(const Header &H) {
  return checkpointChecksum(&H, offsetof(Header, HeaderChecksum));
}

/// RAII FILE handle.
struct FileCloser {
  void operator()(std::FILE *F) const {
    if (F)
      std::fclose(F);
  }
};
using FileHandle = std::unique_ptr<std::FILE, FileCloser>;

template <unsigned Dim>
HeaderPrefix makePrefix(const EulerSolver<Dim> &S) {
  const Grid<Dim> &G = S.problem().Domain;
  HeaderPrefix H = {};
  H.Magic = CheckpointMagic;
  H.Version = FormatVersion;
  H.Rank = Dim;
  H.Ghost = G.ghost();
  H.Steps = S.stepCount();
  H.Gamma = S.problem().G.Gamma;
  H.Time = S.time();
  for (unsigned A = 0; A < Dim; ++A)
    H.Axis[A] = {static_cast<uint64_t>(G.cells(A)), G.lo(A), G.hi(A)};
  return H;
}

/// Compatibility check of a (magic/version-validated) header against the
/// receiving solver.  \returns an empty string on match, else what
/// differs.
template <unsigned Dim>
std::string geometryMismatch(const HeaderPrefix &H,
                             const EulerSolver<Dim> &S) {
  const Grid<Dim> &G = S.problem().Domain;
  if (H.Rank != Dim)
    return "rank " + std::to_string(H.Rank) + " vs solver rank " +
           std::to_string(Dim);
  if (H.Ghost != G.ghost())
    return "ghost layers " + std::to_string(H.Ghost) + " vs " +
           std::to_string(G.ghost());
  if (H.Gamma != S.problem().G.Gamma)
    return "gamma differs";
  for (unsigned A = 0; A < Dim; ++A) {
    if (H.Axis[A].Cells != static_cast<uint64_t>(G.cells(A)))
      return "axis " + std::to_string(A) + " cells " +
             std::to_string(H.Axis[A].Cells) + " vs " +
             std::to_string(G.cells(A));
    if (H.Axis[A].Lo != G.lo(A) || H.Axis[A].Hi != G.hi(A))
      return "axis " + std::to_string(A) + " bounds differ";
  }
  return {};
}

std::string errnoDetail(const std::string &What) {
  if (errno == 0)
    return What;
  return What + ": " + std::strerror(errno);
}

void countCheckpoint(const char *Name, uint64_t Delta = 1) {
  if (!telemetry::enabled())
    return;
  telemetry::addCounter(telemetry::counterId(Name), Delta);
}

/// Best-effort fsync of the directory containing \p Path, so the rename
/// that published a checkpoint survives power loss too.
void syncParentDir(const std::string &Path) {
  size_t Slash = Path.find_last_of('/');
  std::string Dir = Slash == std::string::npos ? "." : Path.substr(0, Slash);
  int Fd = ::open(Dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (Fd >= 0) {
    ::fsync(Fd);
    ::close(Fd);
  }
}

/// Size of \p F via seek/tell; -1 on failure.
long fileSize(std::FILE *F) {
  if (std::fseek(F, 0, SEEK_END) != 0)
    return -1;
  long Size = std::ftell(F);
  if (std::fseek(F, 0, SEEK_SET) != 0)
    return -1;
  return Size;
}

} // namespace

uint64_t sacfd::checkpointChecksum(const void *Data, size_t Bytes) {
  constexpr size_t Lanes = 8;
  const auto *P = static_cast<const unsigned char *>(Data);
  uint64_t H[Lanes];
  for (size_t J = 0; J < Lanes; ++J)
    H[J] = FnvOffsetBasis + J;
  // The multiply only carries a word's bits upward; the xor-shift folds
  // the high half back down, so the top (sign, exponent) bits of every
  // word reach every bit of the lane and no pair of flips of one bit
  // position cancels structurally.
  auto Fold = [](uint64_t &Lane, uint64_t W) {
    Lane = (Lane ^ W) * FnvPrime;
    Lane ^= Lane >> 32;
  };
  auto Word = [P](size_t I) {
    uint64_t W;
    std::memcpy(&W, P + I * sizeof(W), sizeof(W));
    return W;
  };

  const size_t Words = Bytes / sizeof(uint64_t);
  size_t I = 0;
  for (; I + Lanes <= Words; I += Lanes)
#pragma GCC unroll 8
    for (size_t J = 0; J < Lanes; ++J)
      Fold(H[J], Word(I + J));
  for (; I < Words; ++I)
    Fold(H[I % Lanes], Word(I));
  for (size_t B = Words * sizeof(uint64_t); B < Bytes; ++B)
    Fold(H[Words % Lanes], P[B]);

  uint64_t Sum = FnvOffsetBasis;
  for (uint64_t Lane : H)
    Fold(Sum, Lane);
  return Sum;
}

const char *sacfd::checkpointErrorName(CheckpointError E) {
  switch (E) {
  case CheckpointError::None:
    return "ok";
  case CheckpointError::NotFound:
    return "not-found";
  case CheckpointError::Truncated:
    return "truncated";
  case CheckpointError::BadMagic:
    return "bad-magic";
  case CheckpointError::VersionSkew:
    return "version-skew";
  case CheckpointError::GeometryMismatch:
    return "geometry-mismatch";
  case CheckpointError::ChecksumMismatch:
    return "checksum-mismatch";
  case CheckpointError::WriteFailed:
    return "write-failed";
  }
  return "unknown";
}

std::string CheckpointStatus::str() const {
  std::string S = checkpointErrorName(Error);
  if (!Detail.empty()) {
    S += ": ";
    S += Detail;
  }
  return S;
}

void sacfd::reportCheckpointError(const char *Context,
                                  const CheckpointStatus &St) {
  if (St.ok())
    return;
  std::fprintf(stderr, "sacfd checkpoint [%s]: %s\n", Context,
               St.str().c_str());
}

template <unsigned Dim>
CheckpointStatus sacfd::saveCheckpoint(const std::string &Path,
                                       const EulerSolver<Dim> &S) {
  static const unsigned SpanWrite = telemetry::spanId("checkpoint.write");
  telemetry::ScopedSpan Span(SpanWrite);

  auto Fail = [&](std::string Detail) {
    countCheckpoint("checkpoint.write_failures");
    return CheckpointStatus::make(CheckpointError::WriteFailed,
                                  std::move(Detail));
  };

  static_assert(std::is_trivially_copyable_v<Cons<Dim>>,
                "checkpoint writes raw state bytes");
  // Stage through the AoS interchange format: the on-disk payload is
  // independent of the in-memory SoA planes, so checkpoints written
  // before fields became SoA-only still resume bit-exactly.
  std::vector<Cons<Dim>> U(S.field().size());
  S.field().exportTo(U.data());
  size_t PayloadBytes = U.size() * sizeof(Cons<Dim>);

  Header H = {};
  H.P = makePrefix(S);
  H.PayloadBytes = PayloadBytes;
  H.PayloadChecksum = checkpointChecksum(U.data(), PayloadBytes);
  H.HeaderChecksum = headerChecksum(H);

  // Stage into a temp file next to the target so the final rename stays
  // on one filesystem and is atomic.
  std::string Tmp = Path + ".tmp";
  errno = 0;
  {
    FileHandle File(iofault::fopenChecked(Tmp.c_str(), "wb"));
    if (!File)
      return Fail(errnoDetail("cannot open " + Tmp));

    if (iofault::fwriteChecked(&H, sizeof(H), 1, File.get()) != 1) {
      std::remove(Tmp.c_str());
      return Fail(errnoDetail("header write to " + Tmp + " failed"));
    }
    if (iofault::fwriteChecked(U.data(), sizeof(Cons<Dim>), U.size(),
                               File.get()) != U.size()) {
      std::remove(Tmp.c_str());
      return Fail(errnoDetail("payload write to " + Tmp + " failed"));
    }
    if (std::fflush(File.get()) != 0 || ::fsync(fileno(File.get())) != 0) {
      std::remove(Tmp.c_str());
      return Fail(errnoDetail("flush of " + Tmp + " failed"));
    }
  }

  errno = 0;
  if (iofault::renameChecked(Tmp.c_str(), Path.c_str()) != 0) {
    std::remove(Tmp.c_str());
    return Fail(errnoDetail("rename " + Tmp + " -> " + Path + " failed"));
  }
  syncParentDir(Path);

  countCheckpoint("checkpoint.writes");
  return CheckpointStatus::success();
}

template <unsigned Dim>
CheckpointStatus sacfd::saveCheckpointWithRetry(const std::string &Path,
                                               const EulerSolver<Dim> &S,
                                               const RetryPolicy &Retry) {
  unsigned Attempts = std::max(1u, Retry.Attempts);
  CheckpointStatus St;
  for (unsigned A = 0; A < Attempts; ++A) {
    if (A > 0) {
      countCheckpoint("checkpoint.write_retries");
      std::this_thread::sleep_for(
          std::chrono::milliseconds(Retry.BackoffMs << (A - 1)));
    }
    St = saveCheckpoint(Path, S);
    // Only WriteFailed is plausibly transient; anything else (there is
    // nothing else today on the save path) would not heal by retrying.
    if (St.Error != CheckpointError::WriteFailed)
      return St;
  }
  return St;
}

template <unsigned Dim>
CheckpointStatus sacfd::loadCheckpoint(const std::string &Path,
                                       EulerSolver<Dim> &S) {
  errno = 0;
  FileHandle File(iofault::fopenChecked(Path.c_str(), "rb"));
  if (!File)
    return CheckpointStatus::make(CheckpointError::NotFound,
                                  errnoDetail("cannot open " + Path));

  long Size = fileSize(File.get());
  if (Size < 0)
    return CheckpointStatus::make(CheckpointError::Truncated,
                                  "cannot determine size of " + Path);
  uint64_t FileBytes = static_cast<uint64_t>(Size);

  // Magic first: an 8-byte read so corruption of the leading bytes is
  // distinguishable from a short file.
  uint64_t Magic = 0;
  if (FileBytes < sizeof(Magic) ||
      iofault::freadChecked(&Magic, sizeof(Magic), 1, File.get()) != 1)
    return CheckpointStatus::make(
        CheckpointError::Truncated,
        Path + " is smaller than a checkpoint magic");
  if (Magic != CheckpointMagic)
    return CheckpointStatus::make(CheckpointError::BadMagic,
                                  Path + " is not a SacFD checkpoint");

  Header H = {};
  H.P.Magic = Magic;
  if (iofault::freadChecked(reinterpret_cast<char *>(&H.P) + sizeof(Magic),
                            sizeof(HeaderPrefix) - sizeof(Magic), 1,
                            File.get()) != 1)
    return CheckpointStatus::make(CheckpointError::Truncated,
                                  Path + " ends inside the header");

  if (H.P.Version != FormatVersion)
    return CheckpointStatus::make(
        CheckpointError::VersionSkew,
        Path + " is format v" + std::to_string(H.P.Version) +
            "; this build reads v" + std::to_string(FormatVersion));

  if (iofault::freadChecked(&H.PayloadBytes,
                            sizeof(Header) - sizeof(HeaderPrefix), 1,
                            File.get()) != 1)
    return CheckpointStatus::make(CheckpointError::Truncated,
                                  Path + " ends inside the header tail");
  // Integrity before compatibility: a corrupt header must not be
  // reported as a geometry mismatch.
  if (headerChecksum(H) != H.HeaderChecksum)
    return CheckpointStatus::make(CheckpointError::ChecksumMismatch,
                                  "header checksum mismatch in " + Path);
  if (std::string Why = geometryMismatch(H.P, S); !Why.empty())
    return CheckpointStatus::make(CheckpointError::GeometryMismatch,
                                  Path + ": " + Why);
  uint64_t ExpectedPayload =
      static_cast<uint64_t>(S.field().size()) * sizeof(Cons<Dim>);
  if (H.PayloadBytes != ExpectedPayload)
    return CheckpointStatus::make(
        CheckpointError::GeometryMismatch,
        Path + ": payload of " + std::to_string(H.PayloadBytes) +
            " bytes vs solver field of " + std::to_string(ExpectedPayload));

  // Exact size validation, both directions: a short payload and trailing
  // garbage are equally disqualifying for a bit-identical restart.
  if (uint64_t Expected = sizeof(Header) + ExpectedPayload;
      FileBytes != Expected) {
    std::string Detail =
        FileBytes < Expected
            ? Path + " is " + std::to_string(Expected - FileBytes) +
                  " bytes short of its payload"
            : Path + " has " + std::to_string(FileBytes - Expected) +
                  " trailing bytes after its payload";
    return CheckpointStatus::make(CheckpointError::Truncated,
                                  std::move(Detail));
  }

  // Stage the payload: a failed load must leave the live field
  // bit-identical, so nothing is copied in before every check has
  // passed.
  std::vector<Cons<Dim>> Staged(S.field().size());
  if (iofault::freadChecked(Staged.data(), sizeof(Cons<Dim>), Staged.size(),
                            File.get()) != Staged.size())
    return CheckpointStatus::make(CheckpointError::Truncated,
                                  "payload read of " + Path + " came short");
  if (checkpointChecksum(Staged.data(), ExpectedPayload) !=
      H.PayloadChecksum)
    return CheckpointStatus::make(CheckpointError::ChecksumMismatch,
                                  "payload checksum mismatch in " + Path);

  S.field().importFrom(Staged.data());
  S.restoreClock(H.P.Time, H.P.Steps);
  return CheckpointStatus::success();
}

template CheckpointStatus sacfd::saveCheckpoint<1>(const std::string &,
                                                   const EulerSolver<1> &);
template CheckpointStatus sacfd::saveCheckpoint<2>(const std::string &,
                                                   const EulerSolver<2> &);
template CheckpointStatus sacfd::saveCheckpoint<3>(const std::string &,
                                                   const EulerSolver<3> &);
template CheckpointStatus
sacfd::saveCheckpointWithRetry<1>(const std::string &, const EulerSolver<1> &,
                                  const RetryPolicy &);
template CheckpointStatus
sacfd::saveCheckpointWithRetry<2>(const std::string &, const EulerSolver<2> &,
                                  const RetryPolicy &);
template CheckpointStatus
sacfd::saveCheckpointWithRetry<3>(const std::string &, const EulerSolver<3> &,
                                  const RetryPolicy &);
template CheckpointStatus sacfd::loadCheckpoint<1>(const std::string &,
                                                   EulerSolver<1> &);
template CheckpointStatus sacfd::loadCheckpoint<2>(const std::string &,
                                                   EulerSolver<2> &);
template CheckpointStatus sacfd::loadCheckpoint<3>(const std::string &,
                                                   EulerSolver<3> &);
