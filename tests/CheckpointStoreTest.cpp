//===- tests/CheckpointStoreTest.cpp - Rotation + resume fallback ---------===//
//
// The rotated checkpoint directory: generation naming, keep-last-K
// pruning, directory-scan discovery (a manifest, stale or missing, never
// changes what is found), the once-per-run manifest stamp, resume's
// newest-first fallback across corrupt generations with per-file error
// reporting, and an exhaustive truncation and bit-flip sweep of a store's
// newest generation and of its manifest.
//
//===----------------------------------------------------------------------===//

#include "CheckpointTestSupport.h"
#include "io/CheckpointStore.h"
#include "runtime/SerialBackend.h"
#include "solver/ArraySolver.h"
#include "solver/Diagnostics.h"
#include "solver/FusedSolver.h"
#include "solver/Problems.h"
#include "support/FaultInjection.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <vector>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

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
  ASSERT_TRUE(Store.claim("run-a").ok());

  // claim() stamps the manifest before any generation exists: a comment
  // line and the run line, no generation list.
  auto ManifestLines = [&] {
    std::ifstream Manifest(Store.manifestPath());
    std::vector<std::string> Lines;
    for (std::string Line; std::getline(Manifest, Line);)
      Lines.push_back(Line);
    return Lines;
  };
  std::vector<std::string> Lines = ManifestLines();
  ASSERT_EQ(Lines.size(), 2u);
  EXPECT_EQ(Lines[0].front(), '#') << "leading comment line";
  EXPECT_EQ(Lines[1], "# run run-a");
  EXPECT_TRUE(Store.generations().empty());

  // Stamped once: writes publish generations without replacing the
  // manifest (a rewrite renames a new inode into place).
  struct stat Before = {}, After = {};
  ASSERT_EQ(::stat(Store.manifestPath().c_str(), &Before), 0);
  ArraySolver<1> S(sodProblem(32), SchemeConfig::benchmarkScheme(), Exec);
  S.advanceSteps(4);
  ASSERT_TRUE(Store.write(S).ok());
  auto Gens = Store.generations();
  ASSERT_EQ(Gens.size(), 1u);
  EXPECT_EQ(Gens[0].Steps, 4u);
  EXPECT_TRUE(fs::exists(Gens[0].Path));
  S.advanceSteps(1);
  ASSERT_TRUE(Store.write(S).ok());
  ASSERT_EQ(::stat(Store.manifestPath().c_str(), &After), 0);
  EXPECT_EQ(Before.st_ino, After.st_ino) << "the manifest was rewritten";
  EXPECT_EQ(ManifestLines(), Lines);
  EXPECT_EQ(Store.generations().size(), 2u);
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
  // Discovery is the directory scan: no manifest content, stale, malformed
  // or missing, changes what it finds.
  std::string Dir = freshDir("store_union");
  CheckpointStore Store(Dir, /*Keep=*/3);
  ArraySolver<1> S(sodProblem(32), SchemeConfig::benchmarkScheme(), Exec);
  S.advanceSteps(2);
  ASSERT_TRUE(Store.write(S).ok());

  // A generation renamed into place by a writer that never reached the
  // store's bookkeeping.  The scan must still surface it as newest.
  S.advanceSteps(2);
  ASSERT_TRUE(
      saveCheckpoint(Dir + "/" + CheckpointStore::generationFileName(4), S)
          .ok());
  auto Gens = Store.generations();
  ASSERT_EQ(Gens.size(), 2u);
  EXPECT_EQ(Gens[0].Steps, 4u) << "unmanifested newest generation found";

  // A deleted manifest does not hide the files, and an old-style manifest
  // listing a pruned generation and a malformed name adds neither.
  fs::remove(Store.manifestPath());
  Gens = Store.generations();
  EXPECT_EQ(Gens.size(), 2u);

  std::ofstream(Store.manifestPath())
      << "# comment\nckpt-00009999.sacfd\nnot-a-checkpoint.txt\n\n";
  Gens = Store.generations();
  ASSERT_EQ(Gens.size(), 2u) << "stale + malformed entries ignored";
  EXPECT_EQ(Gens[0].Steps, 4u);
  EXPECT_EQ(Gens[1].Steps, 2u);
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

  // The manifest body is claim()'s one write — fail exactly that one.
  // The failure is claim's, named as the manifest's, and leaves neither
  // a stamp nor its staging file.
  iofault::Plan P;
  P.FailWriteNth = 1;
  iofault::setPlan(P);
  CheckpointStatus St = Store.claim("run-c");
  iofault::clear();
  EXPECT_EQ(St.Error, CheckpointError::WriteFailed);
  EXPECT_NE(St.Detail.find("manifest"), std::string::npos) << St.str();
  EXPECT_FALSE(fs::exists(Store.manifestPath()));
  EXPECT_FALSE(fs::exists(Store.manifestPath() + ".tmp"));

  // write() never touches the manifest, so checkpoints are written and
  // resumable regardless of it.
  ASSERT_TRUE(Store.write(S).ok());
  EXPECT_FALSE(fs::exists(Store.manifestPath()));
  ArraySolver<1> T(sodProblem(32), SchemeConfig::benchmarkScheme(), Exec);
  CheckpointStore::ResumeOutcome Out = Store.resume(T);
  ASSERT_TRUE(Out.resumed()) << Out.Status.str();
  EXPECT_EQ(Out.LoadedSteps, 2u);

  // A repeated claim stamps the run.
  ASSERT_TRUE(Store.claim("run-c").ok());
  EXPECT_EQ(Store.runId(), "run-c");
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
    EXPECT_FALSE(fs::exists(Earlier.manifestPath())) << "writes never stamp";
  }
  { std::ofstream(Dir + "/notes.txt") << "not ours\n"; }

  ArraySolver<1> Fresh(sodProblem(32), SchemeConfig::benchmarkScheme(), Exec);
  CheckpointStore Store(Dir, /*Keep=*/3);
  ASSERT_TRUE(Store.claim("run-b").ok());
  EXPECT_TRUE(Store.generations().empty())
      << "the earlier run's newer generations must be gone";
  EXPECT_EQ(Store.runId(), "run-b") << "stamped by the claim itself";
  EXPECT_TRUE(fs::exists(Dir + "/notes.txt")) << "foreign files survive";
  Fresh.advanceSteps(2);
  ASSERT_TRUE(Store.write(Fresh).ok());
  ASSERT_EQ(Store.generations().size(), 1u);
  EXPECT_EQ(Store.generations()[0].Steps, 2u);
  EXPECT_EQ(Store.runId(), "run-b");

  // A resumed run writes under the stamp it finds.
  CheckpointStore Resumed(Dir, /*Keep=*/3);
  Fresh.advanceSteps(1);
  ASSERT_TRUE(Resumed.write(Fresh).ok());
  EXPECT_EQ(Resumed.runId(), "run-b");
  EXPECT_EQ(Resumed.generations().size(), 2u);
  EXPECT_NE(CheckpointStore::newRunId(), CheckpointStore::newRunId());
  fs::remove_all(Dir);
}

TEST(CheckpointStore, EveryTruncationAndBitFlipResumesCleanlyOrExactly) {
  // Exhaustive corruption of a 2-generation store of a small 2D solver:
  // every truncation length and every single-bit flip of the newest
  // generation file, then of the manifest.  Each resume must either load
  // a generation with exactly its saved bits, or fail with a
  // CheckpointError and leave the target bit-identical to its state
  // before the resume.  A crash, or different bits loaded without an
  // error, fails.
  const SchemeConfig C = SchemeConfig::benchmarkScheme();
  const std::string Dir = freshDir("store_corruption_sweep");
  CheckpointStore Store(Dir, /*Keep=*/2);
  ASSERT_TRUE(Store.claim("run-sweep").ok());
  FusedSolver<2> Source(riemann2D(8), C, Exec);
  Source.advanceSteps(2);
  std::map<unsigned, std::vector<unsigned char>> Saved;
  ASSERT_TRUE(Store.write(Source).ok());
  Saved[2] = restorableBytes(Source);
  Source.advanceSteps(2);
  ASSERT_TRUE(Store.write(Source).ok());
  Saved[4] = restorableBytes(Source);
  ASSERT_EQ(Store.generations().size(), 2u);

  FusedSolver<2> Target(riemann2D(8), C, Exec);
  Target.advanceSteps(1);

  // Resumes from whatever the store holds now.  \returns the violated
  // rule, or "" if the resume kept to the contract; counts the
  // generation each clean resume loaded.
  std::map<unsigned, size_t> Loaded;
  auto Violation = [&]() -> std::string {
    const std::vector<unsigned char> Prior = restorableBytes(Target);
    const CheckpointStore::ResumeOutcome Out = Store.resume(Target);
    if (Out.resumed()) {
      ++Loaded[Out.LoadedSteps];
      const auto It = Saved.find(Out.LoadedSteps);
      return It != Saved.end() && restorableBytes(Target) == It->second
                 ? ""
                 : "resumed generation " + std::to_string(Out.LoadedSteps) +
                       " with different bits and no error";
    }
    return restorableBytes(Target) == Prior
               ? ""
               : "failed resume (" + Out.Status.str() +
                     ") changed the solver";
  };

  // Each file is edited in place through one descriptor, as in the
  // single-file sweep of CheckpointTest: truncations shrink it a byte at
  // a time, then each flip patches one byte and puts it back.
  auto Sweep = [&](const std::string &Path) {
    const std::string Good = readBytes(Path);
    ASSERT_FALSE(Good.empty()) << Path;
    const int Fd = ::open(Path.c_str(), O_WRONLY);
    ASSERT_GE(Fd, 0) << Path;
    for (size_t Len = Good.size(); Len-- > 0;) {
      ASSERT_EQ(::ftruncate(Fd, static_cast<off_t>(Len)), 0);
      ASSERT_EQ(Violation(), "") << Path << " truncated to " << Len;
    }
    ASSERT_EQ(::pwrite(Fd, Good.data(), Good.size(), 0),
              static_cast<ssize_t>(Good.size()));
    for (size_t Bit = 0; Bit < Good.size() * 8; ++Bit) {
      const off_t At = static_cast<off_t>(Bit / 8);
      const char Flipped =
          static_cast<char>(Good[Bit / 8] ^ (1 << (Bit % 8)));
      ASSERT_EQ(::pwrite(Fd, &Flipped, 1, At), 1);
      ASSERT_EQ(Violation(), "") << Path << " bit " << Bit << " flipped";
      ASSERT_EQ(::pwrite(Fd, &Good[Bit / 8], 1, At), 1);
    }
    ::close(Fd);
  };

  // The newest generation: no corrupted variant of it loads, and the
  // intact older one is found every time.
  const std::string NewestPath = Store.generations().front().Path;
  const size_t GenerationCases = readBytes(NewestPath).size() * 9;
  Sweep(NewestPath);
  if (HasFatalFailure())
    return;
  EXPECT_EQ(Loaded[2], GenerationCases);
  EXPECT_EQ(Loaded[4], 0u);

  // The manifest is a run-id stamp, not the list of generations: no
  // corruption of it changes what resume finds.
  Loaded.clear();
  const size_t ManifestCases = readBytes(Store.manifestPath()).size() * 9;
  Sweep(Store.manifestPath());
  if (HasFatalFailure())
    return;
  EXPECT_EQ(Loaded[4], ManifestCases);
  EXPECT_EQ(Loaded[2], 0u);
  fs::remove_all(Dir);
}
