//===- tests/CheckpointStoreTest.cpp - Rotation + resume fallback ---------===//
//
// The rotated checkpoint directory: generation naming, keep-last-K
// pruning, manifest ∪ directory-scan discovery (the crash window between
// "rename checkpoint" and "update manifest"), and resume's newest-first
// fallback across corrupt generations with per-file error reporting.
//
//===----------------------------------------------------------------------===//

#include "io/CheckpointStore.h"
#include "runtime/SerialBackend.h"
#include "solver/ArraySolver.h"
#include "solver/Diagnostics.h"
#include "solver/Problems.h"
#include "support/FaultInjection.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

using namespace sacfd;

namespace fs = std::filesystem;

namespace {

SerialBackend Exec;

/// A fresh, empty store directory per test.
std::string freshDir(const char *Name) {
  std::string Dir = std::string(::testing::TempDir()) + "/" + Name;
  fs::remove_all(Dir);
  return Dir;
}

struct FaultGuard {
  FaultGuard() { iofault::clear(); }
  ~FaultGuard() { iofault::clear(); }
};

} // namespace

TEST(CheckpointStore, GenerationNamesEncodeTheStepCount) {
  EXPECT_EQ(CheckpointStore::generationFileName(0), "ckpt-00000000.sacfd");
  EXPECT_EQ(CheckpointStore::generationFileName(1234),
            "ckpt-00001234.sacfd");
}

TEST(CheckpointStore, WritePublishesGenerationAndManifest) {
  std::string Dir = freshDir("store_write");
  CheckpointStore Store(Dir, /*Keep=*/3);
  ArraySolver<1> S(sodProblem(32), SchemeConfig::benchmarkScheme(), Exec);
  S.advanceSteps(4);
  ASSERT_TRUE(Store.write(S).ok());

  auto Gens = Store.generations();
  ASSERT_EQ(Gens.size(), 1u);
  EXPECT_EQ(Gens[0].Steps, 4u);
  EXPECT_TRUE(fs::exists(Gens[0].Path));

  std::ifstream Manifest(Store.manifestPath());
  ASSERT_TRUE(Manifest.good());
  std::string Line;
  std::getline(Manifest, Line);
  EXPECT_EQ(Line.front(), '#') << "leading comment line";
  std::getline(Manifest, Line);
  EXPECT_EQ(Line, "ckpt-00000004.sacfd");
  fs::remove_all(Dir);
}

TEST(CheckpointStore, RotationKeepsOnlyTheLastK) {
  std::string Dir = freshDir("store_rotate");
  CheckpointStore Store(Dir, /*Keep=*/2);
  ArraySolver<1> S(sodProblem(32), SchemeConfig::benchmarkScheme(), Exec);
  for (int I = 0; I < 4; ++I) {
    S.advanceSteps(3);
    ASSERT_TRUE(Store.write(S).ok());
  }

  auto Gens = Store.generations();
  ASSERT_EQ(Gens.size(), 2u) << "keep=2 prunes the rest";
  EXPECT_EQ(Gens[0].Steps, 12u) << "newest first";
  EXPECT_EQ(Gens[1].Steps, 9u);
  EXPECT_FALSE(fs::exists(Dir + "/ckpt-00000003.sacfd"));
  EXPECT_FALSE(fs::exists(Dir + "/ckpt-00000006.sacfd"));
  fs::remove_all(Dir);
}

TEST(CheckpointStore, WriteSweepsOrphanedTmpFiles) {
  // A SIGKILL between "stage to .tmp" and "rename into place" strands the
  // .tmp forever (DurabilityTest manufactures exactly this with its
  // kill-write fault).  The next writer must reclaim such leftovers —
  // and must never touch foreign files that happen to live in the
  // directory or the real generations.
  std::string Dir = freshDir("store_tmp_sweep");
  CheckpointStore Store(Dir, /*Keep=*/3);
  ArraySolver<1> S(sodProblem(32), SchemeConfig::benchmarkScheme(), Exec);
  S.advanceSteps(2);
  ASSERT_TRUE(Store.write(S).ok());

  std::ofstream(Dir + "/ckpt-00000099.sacfd.tmp") << "torn payload";
  std::ofstream(Dir + "/manifest.txt.tmp") << "torn manifest";
  std::ofstream(Dir + "/unrelated.tmp") << "not ours";
  std::ofstream(Dir + "/notes.txt") << "not ours either";

  S.advanceSteps(2);
  ASSERT_TRUE(Store.write(S).ok());
  EXPECT_FALSE(fs::exists(Dir + "/ckpt-00000099.sacfd.tmp"));
  EXPECT_FALSE(fs::exists(Dir + "/manifest.txt.tmp"));
  EXPECT_TRUE(fs::exists(Dir + "/unrelated.tmp"))
      << "only our own staging names may be swept";
  EXPECT_TRUE(fs::exists(Dir + "/notes.txt"));

  auto Gens = Store.generations();
  ASSERT_EQ(Gens.size(), 2u) << "real generations survive the sweep";
  EXPECT_EQ(Gens[0].Steps, 4u);
  EXPECT_EQ(Gens[1].Steps, 2u);
  fs::remove_all(Dir);
}

TEST(CheckpointStore, ResumeSweepsOrphanedTmpFiles) {
  std::string Dir = freshDir("store_tmp_sweep_resume");
  CheckpointStore Store(Dir, /*Keep=*/3);
  ArraySolver<1> S(sodProblem(32), SchemeConfig::benchmarkScheme(), Exec);
  S.advanceSteps(3);
  ASSERT_TRUE(Store.write(S).ok());
  std::ofstream(Dir + "/ckpt-00000007.sacfd.tmp") << "torn";

  ArraySolver<1> R(sodProblem(32), SchemeConfig::benchmarkScheme(), Exec);
  auto Out = Store.resume(R);
  ASSERT_TRUE(Out.resumed());
  EXPECT_EQ(Out.LoadedSteps, 3u);
  EXPECT_FALSE(fs::exists(Dir + "/ckpt-00000007.sacfd.tmp"))
      << "resume reclaims crash leftovers";
  fs::remove_all(Dir);
}

TEST(CheckpointStore, DiscoveryUnionsManifestWithDirectoryScan) {
  std::string Dir = freshDir("store_union");
  CheckpointStore Store(Dir, /*Keep=*/3);
  ArraySolver<1> S(sodProblem(32), SchemeConfig::benchmarkScheme(), Exec);
  S.advanceSteps(2);
  ASSERT_TRUE(Store.write(S).ok());

  // The crash window: a generation renamed into place whose manifest
  // update never happened.  The scan must still surface it as newest.
  S.advanceSteps(2);
  ASSERT_TRUE(
      saveCheckpoint(Dir + "/" + CheckpointStore::generationFileName(4), S)
          .ok());
  auto Gens = Store.generations();
  ASSERT_EQ(Gens.size(), 2u);
  EXPECT_EQ(Gens[0].Steps, 4u) << "unmanifested newest generation found";

  // The reverse: a manifest entry whose file is gone is ignored, and a
  // deleted manifest does not hide the files.
  fs::remove(Store.manifestPath());
  Gens = Store.generations();
  EXPECT_EQ(Gens.size(), 2u);

  std::ofstream(Store.manifestPath())
      << "# comment\nckpt-00009999.sacfd\nnot-a-checkpoint.txt\n\n";
  Gens = Store.generations();
  EXPECT_EQ(Gens.size(), 2u) << "stale + malformed entries ignored";
  fs::remove_all(Dir);
}

TEST(CheckpointStore, ResumeLoadsTheNewestGeneration) {
  std::string Dir = freshDir("store_resume");
  CheckpointStore Store(Dir, /*Keep=*/3);
  ArraySolver<1> S(sodProblem(32), SchemeConfig::benchmarkScheme(), Exec);
  for (int I = 0; I < 3; ++I) {
    S.advanceSteps(5);
    ASSERT_TRUE(Store.write(S).ok());
  }

  ArraySolver<1> T(sodProblem(32), SchemeConfig::benchmarkScheme(), Exec);
  CheckpointStore::ResumeOutcome Out = Store.resume(T);
  ASSERT_TRUE(Out.resumed()) << Out.Status.str();
  EXPECT_EQ(Out.LoadedSteps, 15u);
  EXPECT_TRUE(Out.Skipped.empty());
  EXPECT_EQ(T.stepCount(), 15u);
  EXPECT_EQ(maxFieldDifference(S, T), 0.0);
  fs::remove_all(Dir);
}

TEST(CheckpointStore, ResumeOfEmptyStoreIsNotFound) {
  std::string Dir = freshDir("store_empty");
  CheckpointStore Store(Dir, /*Keep=*/3);
  ArraySolver<1> T(sodProblem(32), SchemeConfig::benchmarkScheme(), Exec);
  CheckpointStore::ResumeOutcome Out = Store.resume(T);
  EXPECT_FALSE(Out.resumed());
  EXPECT_EQ(Out.Status.Error, CheckpointError::NotFound);
  EXPECT_EQ(T.stepCount(), 0u);
}

TEST(CheckpointStore, ResumeFallsBackAcrossCorruptNewestGeneration) {
  FaultGuard FG;
  std::string Dir = freshDir("store_fallback");
  CheckpointStore Store(Dir, /*Keep=*/3);
  ArraySolver<1> S(sodProblem(32), SchemeConfig::benchmarkScheme(), Exec);
  S.advanceSteps(5);
  ASSERT_TRUE(Store.write(S).ok());
  ArraySolver<1> Reference(sodProblem(32), SchemeConfig::benchmarkScheme(),
                           Exec);
  Reference.advanceSteps(5); // state at generation 5
  S.advanceSteps(5);
  ASSERT_TRUE(Store.write(S).ok());

  // Fault injection corrupts the newest generation's payload read
  // (reads 1-4 are magic/prefix/tail/payload of ckpt-...10); the
  // fallback load of generation 5 runs clean.
  iofault::Plan P;
  P.BitFlipReadNth = 4;
  iofault::setPlan(P);
  ArraySolver<1> T(sodProblem(32), SchemeConfig::benchmarkScheme(), Exec);
  CheckpointStore::ResumeOutcome Out = Store.resume(T);
  ASSERT_TRUE(Out.resumed()) << Out.Status.str();
  EXPECT_EQ(Out.LoadedSteps, 5u) << "fell back to generation N-1";
  ASSERT_EQ(Out.Skipped.size(), 1u) << "the skipped newest is reported";
  EXPECT_NE(Out.Skipped[0].first.find("ckpt-00000010"), std::string::npos);
  EXPECT_EQ(Out.Skipped[0].second.Error, CheckpointError::ChecksumMismatch);
  EXPECT_EQ(T.stepCount(), 5u);
  EXPECT_EQ(maxFieldDifference(Reference, T), 0.0)
      << "resume state is the uncorrupted generation, bit-identical";
  fs::remove_all(Dir);
}

TEST(CheckpointStore, ResumeFallsBackAcrossTornNewestGeneration) {
  // Same fallback, disk edition: the newest generation is physically
  // truncated (a tear that beat the rename, or media loss).
  std::string Dir = freshDir("store_torn");
  CheckpointStore Store(Dir, /*Keep=*/3);
  ArraySolver<1> S(sodProblem(32), SchemeConfig::benchmarkScheme(), Exec);
  S.advanceSteps(3);
  ASSERT_TRUE(Store.write(S).ok());
  S.advanceSteps(3);
  ASSERT_TRUE(Store.write(S).ok());

  std::string Newest = Dir + "/" + CheckpointStore::generationFileName(6);
  ASSERT_TRUE(fs::exists(Newest));
  fs::resize_file(Newest, fs::file_size(Newest) / 2);

  ArraySolver<1> T(sodProblem(32), SchemeConfig::benchmarkScheme(), Exec);
  CheckpointStore::ResumeOutcome Out = Store.resume(T);
  ASSERT_TRUE(Out.resumed()) << Out.Status.str();
  EXPECT_EQ(Out.LoadedSteps, 3u);
  ASSERT_EQ(Out.Skipped.size(), 1u);
  EXPECT_EQ(Out.Skipped[0].second.Error, CheckpointError::Truncated);
  fs::remove_all(Dir);
}

TEST(CheckpointStore, ResumeWithEveryGenerationCorruptReportsAll) {
  std::string Dir = freshDir("store_allbad");
  CheckpointStore Store(Dir, /*Keep=*/3);
  ArraySolver<1> S(sodProblem(32), SchemeConfig::benchmarkScheme(), Exec);
  for (int I = 0; I < 2; ++I) {
    S.advanceSteps(2);
    ASSERT_TRUE(Store.write(S).ok());
  }
  for (const auto &G : Store.generations())
    fs::resize_file(G.Path, 40); // inside the header

  ArraySolver<1> T(sodProblem(32), SchemeConfig::benchmarkScheme(), Exec);
  T.advanceSteps(1);
  CheckpointStore::ResumeOutcome Out = Store.resume(T);
  EXPECT_FALSE(Out.resumed());
  EXPECT_EQ(Out.Status.Error, CheckpointError::Truncated)
      << "the newest generation's error wins";
  EXPECT_NE(Out.Status.Detail.find("no loadable generation among 2"),
            std::string::npos)
      << Out.Status.str();
  EXPECT_EQ(Out.Skipped.size(), 2u);
  EXPECT_EQ(T.stepCount(), 1u) << "solver untouched";
  fs::remove_all(Dir);
}

TEST(CheckpointStore, ManifestWriteFailureStillKeepsTheCheckpoint) {
  FaultGuard FG;
  std::string Dir = freshDir("store_manifestfail");
  CheckpointStore Store(Dir, /*Keep=*/3);
  ArraySolver<1> S(sodProblem(32), SchemeConfig::benchmarkScheme(), Exec);
  S.advanceSteps(2);

  // Ops during write(): checkpoint header (1), payload (2), then the
  // manifest body is write 3 — fail exactly that one.
  iofault::Plan P;
  P.FailWriteNth = 3;
  iofault::setPlan(P);
  CheckpointStatus St = Store.write(S);
  iofault::clear();
  EXPECT_EQ(St.Error, CheckpointError::WriteFailed);
  EXPECT_NE(St.Detail.find("manifest"), std::string::npos) << St.str();

  // The generation itself is durably on disk and resumable.
  ArraySolver<1> T(sodProblem(32), SchemeConfig::benchmarkScheme(), Exec);
  CheckpointStore::ResumeOutcome Out = Store.resume(T);
  ASSERT_TRUE(Out.resumed()) << Out.Status.str();
  EXPECT_EQ(Out.LoadedSteps, 2u);
  fs::remove_all(Dir);
}

TEST(CheckpointStore, ClaimClearsAnEarlierRunAndStampsItsId) {
  std::string Dir = freshDir("store_claim");
  ArraySolver<1> S(sodProblem(32), SchemeConfig::benchmarkScheme(), Exec);
  {
    CheckpointStore Earlier(Dir, /*Keep=*/3);
    S.advanceSteps(4);
    ASSERT_TRUE(Earlier.write(S).ok());
    S.advanceSteps(4);
    ASSERT_TRUE(Earlier.write(S).ok());
    EXPECT_EQ(Earlier.runId(), "") << "no run claimed the store yet";
  }
  { std::ofstream(Dir + "/notes.txt") << "not ours\n"; }

  ArraySolver<1> Fresh(sodProblem(32), SchemeConfig::benchmarkScheme(), Exec);
  CheckpointStore Store(Dir, /*Keep=*/3);
  ASSERT_TRUE(Store.claim("run-b").ok());
  EXPECT_TRUE(Store.generations().empty())
      << "the earlier run's newer generations must be gone";
  EXPECT_TRUE(fs::exists(Dir + "/notes.txt")) << "foreign files survive";
  Fresh.advanceSteps(2);
  ASSERT_TRUE(Store.write(Fresh).ok());
  ASSERT_EQ(Store.generations().size(), 1u);
  EXPECT_EQ(Store.generations()[0].Steps, 2u);
  EXPECT_EQ(Store.runId(), "run-b");

  // A resumed run adopts the stamp it finds and keeps writing it.
  CheckpointStore Resumed(Dir, /*Keep=*/3);
  Resumed.adopt(Resumed.runId());
  Fresh.advanceSteps(1);
  ASSERT_TRUE(Resumed.write(Fresh).ok());
  EXPECT_EQ(Resumed.runId(), "run-b");
  EXPECT_EQ(Resumed.generations().size(), 2u);
  EXPECT_NE(CheckpointStore::newRunId(), CheckpointStore::newRunId());
  fs::remove_all(Dir);
}
