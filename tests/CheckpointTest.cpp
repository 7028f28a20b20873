//===- tests/CheckpointTest.cpp - Save/restart correctness ----------------===//
//
// Round-trip and restart bit-identity of the v2 checkpoint format, the
// full CheckpointError taxonomy (every variant constructed, most through
// the fault-injection layer), rejection of the retired v1 format, exact
// file-size validation in both directions, an exhaustive truncation and
// bit-flip sweep of one small file, the atomic save path, and the
// retry-with-backoff wrapper.
//
//===----------------------------------------------------------------------===//

#include "io/Checkpoint.h"
#include "runtime/SerialBackend.h"
#include "solver/ArraySolver.h"
#include "solver/Diagnostics.h"
#include "solver/FusedSolver.h"
#include "solver/Problems.h"
#include "support/FaultInjection.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <vector>

#include <fcntl.h>
#include <unistd.h>

using namespace sacfd;

namespace {

SerialBackend Exec;

std::string tempPath(const char *Name) {
  return std::string(::testing::TempDir()) + "/" + Name;
}

/// Disarms any leftover fault plan when a test exits early.
struct FaultGuard {
  FaultGuard() { iofault::clear(); }
  ~FaultGuard() { iofault::clear(); }
};

/// Byte count of \p Path; 0 if missing.
uint64_t sizeOf(const std::string &Path) {
  std::error_code Ec;
  uint64_t Size = std::filesystem::file_size(Path, Ec);
  return Ec ? 0 : Size;
}

std::string readBytes(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(In)),
                     std::istreambuf_iterator<char>());
}

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

} // namespace

//===----------------------------------------------------------------------===//
// Round trips and restart bit-identity
//===----------------------------------------------------------------------===//

TEST(Checkpoint, RoundTripPreservesEverything) {
  ArraySolver<1> S(sodProblem(64), SchemeConfig::figureScheme(), Exec);
  S.advanceSteps(7);
  std::string Path = tempPath("roundtrip.ckp");
  ASSERT_TRUE(saveCheckpoint(Path, S).ok());

  ArraySolver<1> Fresh(sodProblem(64), SchemeConfig::figureScheme(), Exec);
  ASSERT_TRUE(loadCheckpoint(Path, Fresh).ok());
  EXPECT_DOUBLE_EQ(Fresh.time(), S.time());
  EXPECT_EQ(Fresh.stepCount(), S.stepCount());
  EXPECT_EQ(maxFieldDifference(S, Fresh), 0.0);
  std::remove(Path.c_str());
}

TEST(Checkpoint, RestartContinuesBitIdentically) {
  // run A: 20 uninterrupted steps.  run B: 10 steps, checkpoint, restore
  // into a fresh solver, 10 more.  Fields must agree bitwise.
  SchemeConfig C = SchemeConfig::figureScheme();
  ArraySolver<1> A(sodProblem(96), C, Exec);
  A.advanceSteps(20);

  ArraySolver<1> B1(sodProblem(96), C, Exec);
  B1.advanceSteps(10);
  std::string Path = tempPath("restart.ckp");
  ASSERT_TRUE(saveCheckpoint(Path, B1).ok());

  ArraySolver<1> B2(sodProblem(96), C, Exec);
  ASSERT_TRUE(loadCheckpoint(Path, B2).ok());
  B2.advanceSteps(10);

  EXPECT_DOUBLE_EQ(A.time(), B2.time());
  EXPECT_EQ(A.stepCount(), B2.stepCount());
  EXPECT_EQ(maxFieldDifference(A, B2), 0.0);
  std::remove(Path.c_str());
}

TEST(Checkpoint, PrescribedBoundaryAfterRollback) {
  // Double Mach reflection drives its top wall from a time-dependent
  // Prescribed state, so the ghost rows encode the solver clock.  Roll
  // a run back mid-flight (load an earlier checkpoint into the same
  // solver) and require every cell -- ghost rows included -- to match
  // an uninterrupted run bit for bit.  A stale clock after the rewind
  // would feed the prescribed state the wrong time on the next fill.
  SchemeConfig C = SchemeConfig::benchmarkScheme();
  C.Cfl = 0.3;
  Problem<2> P = doubleMachReflection(16);

  FusedSolver<2> A(P, C, Exec);
  A.advanceSteps(6);

  FusedSolver<2> B(P, C, Exec);
  B.advanceSteps(4);
  std::string Path = tempPath("dmr-rollback.ckp");
  ASSERT_TRUE(saveCheckpoint(Path, B).ok());
  B.advanceSteps(2); // run ahead of the checkpoint...
  ASSERT_TRUE(loadCheckpoint(Path, B).ok()); // ...then roll back
  EXPECT_EQ(B.stepCount(), 4u);
  B.advanceSteps(2);

  EXPECT_DOUBLE_EQ(A.time(), B.time());
  EXPECT_EQ(A.stepCount(), B.stepCount());
  ASSERT_EQ(A.field().size(), B.field().size());
  std::vector<Cons<2>> Sa(A.field().size()), Sb(B.field().size());
  A.field().exportTo(Sa.data());
  B.field().exportTo(Sb.data());
  EXPECT_EQ(std::memcmp(Sa.data(), Sb.data(), Sa.size() * sizeof(Cons<2>)),
            0);
  std::remove(Path.c_str());
}

TEST(Checkpoint, AdvanceToSnapAfterRollback) {
  // advanceTo clamps the final dt and snaps the clock onto the target
  // through restoreClock.  Drive a rolled-back double-Mach run through
  // the same advanceTo as an uninterrupted one, then take one more
  // step so the prescribed wall is refilled from the snapped clock;
  // the full storage must still agree bitwise.
  SchemeConfig C = SchemeConfig::benchmarkScheme();
  C.Cfl = 0.3;
  Problem<2> P = doubleMachReflection(16);

  FusedSolver<2> A(P, C, Exec);
  A.advanceSteps(3);
  const double Target = A.time() * 1.5; // not step-aligned: forces a snap
  A.advanceTo(Target);
  A.advanceSteps(1);

  FusedSolver<2> B(P, C, Exec);
  B.advanceSteps(3);
  std::string Path = tempPath("dmr-snap.ckp");
  ASSERT_TRUE(saveCheckpoint(Path, B).ok());
  B.advanceSteps(3);
  ASSERT_TRUE(loadCheckpoint(Path, B).ok());
  B.advanceTo(Target);
  B.advanceSteps(1);

  EXPECT_DOUBLE_EQ(A.time(), B.time());
  EXPECT_EQ(A.stepCount(), B.stepCount());
  std::vector<Cons<2>> Sa(A.field().size()), Sb(B.field().size());
  A.field().exportTo(Sa.data());
  B.field().exportTo(Sb.data());
  EXPECT_EQ(std::memcmp(Sa.data(), Sb.data(), Sa.size() * sizeof(Cons<2>)),
            0);
  std::remove(Path.c_str());
}

TEST(Checkpoint, CrossEngineRestore) {
  // A checkpoint is engine-independent state: save from the array
  // engine, restore into the fused engine.
  SchemeConfig C = SchemeConfig::benchmarkScheme();
  ArraySolver<2> A(riemann2D(12), C, Exec);
  A.advanceSteps(4);
  std::string Path = tempPath("crossengine.ckp");
  ASSERT_TRUE(saveCheckpoint(Path, A).ok());

  FusedSolver<2> F(riemann2D(12), C, Exec);
  ASSERT_TRUE(loadCheckpoint(Path, F).ok());
  EXPECT_EQ(maxFieldDifference(A, F), 0.0);

  // And both continue identically.
  A.advanceSteps(4);
  F.advanceSteps(4);
  EXPECT_EQ(maxFieldDifference(A, F), 0.0);
  std::remove(Path.c_str());
}

TEST(Checkpoint, ThreeDimensionalRoundTrip) {
  ArraySolver<3> S(sphericalBlast3D(6), SchemeConfig::benchmarkScheme(),
                   Exec);
  S.advanceSteps(2);
  std::string Path = tempPath("rank3.ckp");
  ASSERT_TRUE(saveCheckpoint(Path, S).ok());
  ArraySolver<3> T(sphericalBlast3D(6), SchemeConfig::benchmarkScheme(),
                   Exec);
  ASSERT_TRUE(loadCheckpoint(Path, T).ok());
  EXPECT_EQ(maxFieldDifference(S, T), 0.0);
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// The error taxonomy, file-surgery edition
//===----------------------------------------------------------------------===//

TEST(Checkpoint, MissingFileIsNotFound) {
  ArraySolver<1> T(sodProblem(16), SchemeConfig::benchmarkScheme(), Exec);
  CheckpointStatus St = loadCheckpoint(tempPath("missing.ckp"), T);
  EXPECT_EQ(St.Error, CheckpointError::NotFound);
  EXPECT_NE(St.str().find("not-found"), std::string::npos);
}

TEST(Checkpoint, RejectsGeometryMismatch) {
  ArraySolver<1> S(sodProblem(64), SchemeConfig::figureScheme(), Exec);
  std::string Path = tempPath("mismatch.ckp");
  ASSERT_TRUE(saveCheckpoint(Path, S).ok());

  ArraySolver<1> WrongCells(sodProblem(128), SchemeConfig::figureScheme(),
                            Exec);
  EXPECT_EQ(loadCheckpoint(Path, WrongCells).Error,
            CheckpointError::GeometryMismatch);

  ArraySolver<1> WrongGhost(sodProblem(64, /*GhostLayers=*/3),
                            SchemeConfig::figureScheme(), Exec);
  CheckpointStatus St = loadCheckpoint(Path, WrongGhost);
  EXPECT_EQ(St.Error, CheckpointError::GeometryMismatch);
  EXPECT_NE(St.Detail.find("ghost"), std::string::npos);

  Problem<1> OtherGamma = sodProblem(64);
  OtherGamma.G = Gas(1.67);
  ArraySolver<1> WrongGas(OtherGamma, SchemeConfig::figureScheme(), Exec);
  EXPECT_EQ(loadCheckpoint(Path, WrongGas).Error,
            CheckpointError::GeometryMismatch);
  std::remove(Path.c_str());
}

TEST(Checkpoint, V1FileIsVersionSkew) {
  // v1 (no checksums, no payload count) is retired: a file whose version
  // field says 1 is refused by name, before any of its bytes reach the
  // live field.
  ArraySolver<1> Source(sodProblem(32), SchemeConfig::benchmarkScheme(),
                        Exec);
  Source.advanceSteps(5);
  std::string Path = tempPath("v1.ckp");
  ASSERT_TRUE(saveCheckpoint(Path, Source).ok());
  {
    // The version field is the uint32 right after the 8-byte magic.
    std::fstream F(Path, std::ios::binary | std::ios::in | std::ios::out);
    F.seekp(8);
    const uint32_t V1 = 1;
    F.write(reinterpret_cast<const char *>(&V1), sizeof(V1));
  }

  ArraySolver<1> T(sodProblem(32), SchemeConfig::benchmarkScheme(), Exec);
  T.advanceSteps(2);
  ArraySolver<1> Reference(sodProblem(32), SchemeConfig::benchmarkScheme(),
                           Exec);
  Reference.advanceSteps(2);

  CheckpointStatus St = loadCheckpoint(Path, T);
  EXPECT_EQ(St.Error, CheckpointError::VersionSkew);
  EXPECT_NE(St.Detail.find("v1"), std::string::npos) << St.str();
  EXPECT_EQ(maxFieldDifference(T, Reference), 0.0)
      << "failed load must not touch the field";
  EXPECT_EQ(T.stepCount(), Reference.stepCount());
  std::remove(Path.c_str());
}

TEST(Checkpoint, RejectsWrongRank) {
  ArraySolver<2> S2(riemann2D(8), SchemeConfig::benchmarkScheme(), Exec);
  std::string Path = tempPath("rank.ckp");
  ASSERT_TRUE(saveCheckpoint(Path, S2).ok());
  ArraySolver<1> S1(sodProblem(8), SchemeConfig::benchmarkScheme(), Exec);
  CheckpointStatus St = loadCheckpoint(Path, S1);
  EXPECT_EQ(St.Error, CheckpointError::GeometryMismatch);
  EXPECT_NE(St.Detail.find("rank"), std::string::npos);
  std::remove(Path.c_str());
}

TEST(Checkpoint, ShortFileIsTruncatedWithExactByteCount) {
  ArraySolver<1> S(sodProblem(32), SchemeConfig::benchmarkScheme(), Exec);
  std::string Path = tempPath("trunc.ckp");
  ASSERT_TRUE(saveCheckpoint(Path, S).ok());
  uint64_t Full = sizeOf(Path);

  // Drop exactly 16 payload bytes; the detail must count them.
  {
    std::ifstream In(Path, std::ios::binary);
    std::string Bytes((std::istreambuf_iterator<char>(In)),
                      std::istreambuf_iterator<char>());
    Bytes.resize(Bytes.size() - 16);
    std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
    Out.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
  }
  ASSERT_EQ(sizeOf(Path), Full - 16);
  ArraySolver<1> T(sodProblem(32), SchemeConfig::benchmarkScheme(), Exec);
  CheckpointStatus St = loadCheckpoint(Path, T);
  EXPECT_EQ(St.Error, CheckpointError::Truncated);
  EXPECT_NE(St.Detail.find("16 bytes short"), std::string::npos) << St.str();

  // Garbage magic.
  {
    std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
    Out << "not a checkpoint at all, but long enough for the magic read";
  }
  EXPECT_EQ(loadCheckpoint(Path, T).Error, CheckpointError::BadMagic);

  // Sub-magic-size file.
  {
    std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
    Out << "tiny";
  }
  EXPECT_EQ(loadCheckpoint(Path, T).Error, CheckpointError::Truncated);
  std::remove(Path.c_str());
}

TEST(Checkpoint, TrailingGarbageIsTruncatedWithExactByteCount) {
  ArraySolver<1> S(sodProblem(16), SchemeConfig::benchmarkScheme(), Exec);
  std::string Path = tempPath("trailing.ckp");
  ASSERT_TRUE(saveCheckpoint(Path, S).ok());
  {
    std::ofstream Out(Path, std::ios::binary | std::ios::app);
    Out << "junk";
  }
  ArraySolver<1> T(sodProblem(16), SchemeConfig::benchmarkScheme(), Exec);
  CheckpointStatus St = loadCheckpoint(Path, T);
  EXPECT_EQ(St.Error, CheckpointError::Truncated);
  EXPECT_NE(St.Detail.find("4 trailing bytes"), std::string::npos)
      << St.str();
  std::remove(Path.c_str());
}

TEST(Checkpoint, FailedTruncatedLoadPreservesField) {
  // Regression: the loader used to fread straight into the live field, so
  // a truncated payload partially overwrote it before the failure was
  // detected.  A failed load must leave the solver bit-identical.
  ArraySolver<1> Source(sodProblem(32), SchemeConfig::benchmarkScheme(),
                        Exec);
  Source.advanceSteps(5);
  std::string Path = tempPath("truncpreserve.ckp");
  ASSERT_TRUE(saveCheckpoint(Path, Source).ok());
  {
    std::ifstream In(Path, std::ios::binary);
    std::string Bytes((std::istreambuf_iterator<char>(In)),
                      std::istreambuf_iterator<char>());
    // Keep the header and half the payload.
    Bytes.resize(Bytes.size() / 2);
    std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
    Out.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
  }

  ArraySolver<1> T(sodProblem(32), SchemeConfig::benchmarkScheme(), Exec);
  T.advanceSteps(2);
  ArraySolver<1> Reference(sodProblem(32), SchemeConfig::benchmarkScheme(),
                           Exec);
  Reference.advanceSteps(2);

  EXPECT_EQ(loadCheckpoint(Path, T).Error, CheckpointError::Truncated);
  EXPECT_EQ(maxFieldDifference(T, Reference), 0.0)
      << "failed load must not touch the field";
  EXPECT_DOUBLE_EQ(T.time(), Reference.time());
  EXPECT_EQ(T.stepCount(), Reference.stepCount());

  // And the intact reference checkpoint still loads after the failure.
  std::string Good = tempPath("truncpreserve_good.ckp");
  ASSERT_TRUE(saveCheckpoint(Good, Source).ok());
  ASSERT_TRUE(loadCheckpoint(Good, T).ok());
  EXPECT_EQ(maxFieldDifference(T, Source), 0.0);
  std::remove(Path.c_str());
  std::remove(Good.c_str());
}

TEST(Checkpoint, FailedChecksumLoadPreservesField) {
  // Same invariant for the corruption path: the payload stages through a
  // scratch buffer, so a checksum failure cannot leave a half-copied
  // field behind.
  ArraySolver<1> Source(sodProblem(32), SchemeConfig::benchmarkScheme(),
                        Exec);
  Source.advanceSteps(5);
  std::string Path = tempPath("sumpreserve.ckp");
  ASSERT_TRUE(saveCheckpoint(Path, Source).ok());
  {
    // Flip one payload byte on disk; size and header stay valid.
    std::fstream F(Path, std::ios::binary | std::ios::in | std::ios::out);
    F.seekp(-8, std::ios::end);
    char B = 0;
    F.read(&B, 1);
    F.seekp(-8, std::ios::end);
    B = static_cast<char>(B ^ 1);
    F.write(&B, 1);
  }

  ArraySolver<1> T(sodProblem(32), SchemeConfig::benchmarkScheme(), Exec);
  T.advanceSteps(2);
  ArraySolver<1> Reference(sodProblem(32), SchemeConfig::benchmarkScheme(),
                           Exec);
  Reference.advanceSteps(2);

  EXPECT_EQ(loadCheckpoint(Path, T).Error,
            CheckpointError::ChecksumMismatch);
  EXPECT_EQ(maxFieldDifference(T, Reference), 0.0);
  EXPECT_EQ(T.stepCount(), Reference.stepCount());
  std::remove(Path.c_str());
}

TEST(Checkpoint, EveryTruncationAndBitFlipFailsCleanlyOrLoadsExactly) {
  // Exhaustive corruption of one small 2D v2 file: every truncation
  // length and every single-bit flip, loaded through one reused path.
  // Each load must either return a CheckpointError and leave the target
  // bit-identical to its state before the load, or restore exactly the
  // saved bits.  A crash, or different bits loaded without an error,
  // fails.
  const SchemeConfig C = SchemeConfig::benchmarkScheme();
  FusedSolver<2> Source(riemann2D(8), C, Exec);
  Source.advanceSteps(3);
  const std::string Path = tempPath("corruption_sweep.ckp");
  ASSERT_TRUE(saveCheckpoint(Path, Source).ok());
  const std::string Good = readBytes(Path);
  const std::vector<unsigned char> Saved = restorableBytes(Source);

  FusedSolver<2> Target(riemann2D(8), C, Exec);
  Target.advanceSteps(1);
  ASSERT_NE(restorableBytes(Target), Saved);

  size_t CleanLoads = 0;
  // Loads whatever the file holds now.  \returns the violated rule, or
  // "" if the load kept to the contract.
  auto Violation = [&]() -> std::string {
    const std::vector<unsigned char> Prior = restorableBytes(Target);
    const CheckpointStatus St = loadCheckpoint(Path, Target);
    if (St.ok()) {
      ++CleanLoads;
      return restorableBytes(Target) == Saved
                 ? ""
                 : "loaded different bits without an error";
    }
    return restorableBytes(Target) == Prior
               ? ""
               : "failed load (" + St.str() + ") changed the solver";
  };

  // The file is edited in place through one descriptor: truncations
  // shrink it a byte at a time, then each flip patches one byte and puts
  // it back.  Rewriting it whole per case costs over 10x as much on ext4,
  // which flushes a file truncated to zero when it is closed.
  const int Fd = ::open(Path.c_str(), O_WRONLY);
  ASSERT_GE(Fd, 0);
  for (size_t Len = Good.size(); Len-- > 0;) {
    ASSERT_EQ(::ftruncate(Fd, static_cast<off_t>(Len)), 0);
    ASSERT_EQ(Violation(), "") << "truncated to " << Len << " bytes";
  }
  ASSERT_EQ(::pwrite(Fd, Good.data(), Good.size(), 0),
            static_cast<ssize_t>(Good.size()));
  for (size_t Bit = 0; Bit < Good.size() * 8; ++Bit) {
    const off_t At = static_cast<off_t>(Bit / 8);
    const char Flipped = static_cast<char>(Good[Bit / 8] ^ (1 << (Bit % 8)));
    ASSERT_EQ(::pwrite(Fd, &Flipped, 1, At), 1);
    ASSERT_EQ(Violation(), "") << "bit " << Bit << " flipped";
    ASSERT_EQ(::pwrite(Fd, &Good[Bit / 8], 1, At), 1);
  }
  ::close(Fd);
  // Every byte of a v2 file is under the magic, the version or one of the
  // two checksums, so no corrupted variant loads at all.
  EXPECT_EQ(CleanLoads, 0u);

  // The intact file still restores exactly after the whole sweep.
  ASSERT_EQ(Violation(), "");
  EXPECT_EQ(CleanLoads, 1u);
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// The error taxonomy, fault-injection edition: every CheckpointError
// variant constructed through support/FaultInjection.
//===----------------------------------------------------------------------===//

TEST(CheckpointFaults, FailOpenOnLoadIsNotFound) {
  FaultGuard FG;
  ArraySolver<1> S(sodProblem(16), SchemeConfig::benchmarkScheme(), Exec);
  std::string Path = tempPath("fi_notfound.ckp");
  ASSERT_TRUE(saveCheckpoint(Path, S).ok());

  iofault::Plan P;
  P.FailOpenNth = 1;
  iofault::setPlan(P);
  EXPECT_EQ(loadCheckpoint(Path, S).Error, CheckpointError::NotFound);
  EXPECT_EQ(iofault::faultsFired(), 1u);
  // One-shot: the very next load runs clean.
  EXPECT_TRUE(loadCheckpoint(Path, S).ok());
  std::remove(Path.c_str());
}

TEST(CheckpointFaults, WriteFaultsAreWriteFailedAndLeaveNoFile) {
  FaultGuard FG;
  ArraySolver<1> S(sodProblem(16), SchemeConfig::benchmarkScheme(), Exec);
  std::string Path = tempPath("fi_writefail.ckp");

  for (const char *Spec :
       {"fail-open=1", "fail-write=1", "short-write=2", "fail-rename"}) {
    iofault::Plan P;
    std::string Err;
    ASSERT_TRUE(iofault::parsePlan(Spec, P, Err)) << Err;
    iofault::setPlan(P);
    CheckpointStatus St = saveCheckpoint(Path, S);
    EXPECT_EQ(St.Error, CheckpointError::WriteFailed) << Spec;
    EXPECT_EQ(sizeOf(Path), 0u) << Spec << ": no file under the real name";
    EXPECT_EQ(sizeOf(Path + ".tmp"), 0u) << Spec << ": temp cleaned up";
    iofault::clear();
  }
}

TEST(CheckpointFaults, FailedSaveKeepsPreviousCheckpoint) {
  FaultGuard FG;
  ArraySolver<1> S(sodProblem(16), SchemeConfig::benchmarkScheme(), Exec);
  std::string Path = tempPath("fi_keepold.ckp");
  ASSERT_TRUE(saveCheckpoint(Path, S).ok());
  uint64_t OldSize = sizeOf(Path);
  ASSERT_GT(OldSize, 0u);

  S.advanceSteps(3);
  iofault::Plan P;
  P.FailRename = true;
  iofault::setPlan(P);
  EXPECT_EQ(saveCheckpoint(Path, S).Error, CheckpointError::WriteFailed);
  iofault::clear();

  // The old generation survived the failed overwrite, bit-for-bit enough
  // to load.
  EXPECT_EQ(sizeOf(Path), OldSize);
  ArraySolver<1> T(sodProblem(16), SchemeConfig::benchmarkScheme(), Exec);
  ASSERT_TRUE(loadCheckpoint(Path, T).ok());
  EXPECT_EQ(T.stepCount(), 0u);
  std::remove(Path.c_str());
}

TEST(CheckpointFaults, TornWriteSurfacesAsTruncatedAtLoad) {
  FaultGuard FG;
  ArraySolver<1> S(sodProblem(16), SchemeConfig::benchmarkScheme(), Exec);
  std::string Path = tempPath("fi_torn.ckp");

  // The lying disk: the payload write drops half its bytes but reports
  // success, so the save "succeeds" and the tear only surfaces at load
  // as an exact-size mismatch.
  iofault::Plan P;
  P.TornWriteNth = 2; // write 1 = header, write 2 = payload
  iofault::setPlan(P);
  ASSERT_TRUE(saveCheckpoint(Path, S).ok());
  iofault::clear();

  CheckpointStatus St = loadCheckpoint(Path, S);
  EXPECT_EQ(St.Error, CheckpointError::Truncated);
  EXPECT_NE(St.Detail.find("short of its payload"), std::string::npos)
      << St.str();
  std::remove(Path.c_str());
}

TEST(CheckpointFaults, BitFlipOnMagicReadIsBadMagic) {
  FaultGuard FG;
  ArraySolver<1> S(sodProblem(16), SchemeConfig::benchmarkScheme(), Exec);
  std::string Path = tempPath("fi_magic.ckp");
  ASSERT_TRUE(saveCheckpoint(Path, S).ok());

  iofault::Plan P;
  P.BitFlipReadNth = 1; // read 1 = the 8-byte magic
  P.BitFlipByte = 0;
  iofault::setPlan(P);
  EXPECT_EQ(loadCheckpoint(Path, S).Error, CheckpointError::BadMagic);
  std::remove(Path.c_str());
}

TEST(CheckpointFaults, BitFlipOnVersionReadIsVersionSkew) {
  FaultGuard FG;
  ArraySolver<1> S(sodProblem(16), SchemeConfig::benchmarkScheme(), Exec);
  std::string Path = tempPath("fi_version.ckp");
  ASSERT_TRUE(saveCheckpoint(Path, S).ok());

  // Read 2 covers the header prefix after the magic; its byte 0 is the
  // version field, and 2 xor 1 = 3 is a version this build refuses.
  iofault::Plan P;
  P.BitFlipReadNth = 2;
  P.BitFlipByte = 0;
  iofault::setPlan(P);
  CheckpointStatus St = loadCheckpoint(Path, S);
  EXPECT_EQ(St.Error, CheckpointError::VersionSkew);
  EXPECT_NE(St.Detail.find("v3"), std::string::npos) << St.str();
  std::remove(Path.c_str());
}

TEST(CheckpointFaults, BitFlipOnHeaderReadIsChecksumMismatch) {
  FaultGuard FG;
  ArraySolver<1> S(sodProblem(16), SchemeConfig::benchmarkScheme(), Exec);
  std::string Path = tempPath("fi_hdrsum.ckp");
  ASSERT_TRUE(saveCheckpoint(Path, S).ok());

  // Byte 16 of read 2 is the step count — covered by the v2 header
  // checksum but not by the magic/version gates, so the flip must be
  // reported as corruption, not as a geometry mismatch.
  iofault::Plan P;
  P.BitFlipReadNth = 2;
  P.BitFlipByte = 16;
  iofault::setPlan(P);
  CheckpointStatus St = loadCheckpoint(Path, S);
  EXPECT_EQ(St.Error, CheckpointError::ChecksumMismatch);
  EXPECT_NE(St.Detail.find("header"), std::string::npos) << St.str();
  std::remove(Path.c_str());
}

TEST(CheckpointFaults, BitFlipOnPayloadReadIsChecksumMismatch) {
  FaultGuard FG;
  ArraySolver<1> S(sodProblem(16), SchemeConfig::benchmarkScheme(), Exec);
  S.advanceSteps(3);
  std::string Path = tempPath("fi_paysum.ckp");
  ASSERT_TRUE(saveCheckpoint(Path, S).ok());

  iofault::Plan P;
  P.BitFlipReadNth = 4; // reads: magic, prefix, v2 tail, payload
  iofault::setPlan(P);
  ArraySolver<1> T(sodProblem(16), SchemeConfig::benchmarkScheme(), Exec);
  CheckpointStatus St = loadCheckpoint(Path, T);
  EXPECT_EQ(St.Error, CheckpointError::ChecksumMismatch);
  EXPECT_NE(St.Detail.find("payload"), std::string::npos) << St.str();
  EXPECT_EQ(T.stepCount(), 0u) << "failed load must not restore the clock";
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// Retry with backoff
//===----------------------------------------------------------------------===//

TEST(CheckpointFaults, RetryRecoversFromTransientWriteFault) {
  FaultGuard FG;
  ArraySolver<1> S(sodProblem(16), SchemeConfig::benchmarkScheme(), Exec);
  std::string Path = tempPath("fi_retry.ckp");

  iofault::Plan P;
  P.FailWriteNth = 1;
  iofault::setPlan(P);
  RetryPolicy Retry{/*Attempts=*/3, /*BackoffMs=*/1};
  EXPECT_TRUE(saveCheckpointWithRetry(Path, S, Retry).ok())
      << "one-shot fault, attempt 2 must succeed";
  EXPECT_EQ(iofault::faultsFired(), 1u);
  ASSERT_TRUE(loadCheckpoint(Path, S).ok());
  std::remove(Path.c_str());
}

TEST(CheckpointFaults, RetryGivesUpAfterBudget) {
  FaultGuard FG;
  ArraySolver<1> S(sodProblem(16), SchemeConfig::benchmarkScheme(), Exec);
  std::string Path = tempPath("fi_retry_exhaust.ckp");

  // Three one-shot faults, one per attempt: every attempt fails.
  iofault::Plan P;
  P.FailWriteNth = 1;  // attempt 1: header write (op 1) fails
  P.ShortWriteNth = 3; // attempt 2: header is op 2, payload op 3 tears
  P.FailOpenNth = 3;   // attempt 3: its open is the third one
  iofault::setPlan(P);
  RetryPolicy Retry{/*Attempts=*/3, /*BackoffMs=*/1};
  EXPECT_EQ(saveCheckpointWithRetry(Path, S, Retry).Error,
            CheckpointError::WriteFailed);
  EXPECT_EQ(sizeOf(Path), 0u);
  std::remove(Path.c_str());
}
