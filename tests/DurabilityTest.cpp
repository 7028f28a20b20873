//===- tests/DurabilityTest.cpp - Kill-at-step crash/resume harness -------===//
//
// The end-to-end durability story: a child process is SIGKILLed in the
// middle of a checkpoint write (deterministically, via the kill-write
// fault), and the parent proves that --resume restores the newest intact
// generation and continues bit-identically to a run that was never
// interrupted.  Runs the matrix the acceptance criteria name: 1D and 2D,
// serial and a threaded backend.  Also the step-guard e2e: breakdown →
// emergency checkpoint through the atomic path → resume → continue.
//
// Fork discipline: the parent never holds live worker threads at fork
// time — every SolverRun before a fork lives in a scope whose end joins
// the backend's threads.
//
//===----------------------------------------------------------------------===//

#include "io/RunIo.h"
#include "runtime/SerialBackend.h"
#include "solver/Diagnostics.h"
#include "solver/Problems.h"
#include "support/FaultInjection.h"

#include <gtest/gtest.h>

#include <csignal>
#include <cstring>
#include <filesystem>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

using namespace sacfd;

namespace fs = std::filesystem;

namespace {

std::string freshDir(const char *Name) {
  std::string Dir = std::string(::testing::TempDir()) + "/" + Name;
  fs::remove_all(Dir);
  return Dir;
}

struct FaultGuard {
  FaultGuard() { iofault::clear(); }
  ~FaultGuard() { iofault::clear(); }
};

template <unsigned Dim> Problem<Dim> killProblem();
template <> Problem<1> killProblem<1>() { return sodProblem(64); }
template <> Problem<2> killProblem<2>() { return riemann2D(16); }

template <unsigned Dim>
RunConfig durableConfig(BackendKind Backend, unsigned Threads,
                        const std::string &Dir, unsigned Every,
                        EngineKind Engine = EngineKind::Array) {
  RunConfig Cfg;
  Cfg.Scheme = SchemeConfig::benchmarkScheme();
  Cfg.Engine = Engine;
  Cfg.Backend = Backend;
  Cfg.Threads = Threads;
  Cfg.Checkpoint.Dir = Dir;
  Cfg.Checkpoint.Every = Every;
  Cfg.Checkpoint.Keep = 2;
  return Cfg;
}

/// The whole scenario: reference run, child killed mid-checkpoint,
/// resume, bit-identity check.
///
/// \p KillWriteNth picks the fwrite that murders the child.  The fresh
/// run's claim stamps the manifest (write 1), and each store generation
/// then costs two writes (checkpoint header, payload).  So op 7 dies
/// inside the third generation's payload (its tmp file is never renamed
/// — the generation does not exist) and op 1 dies inside the manifest
/// stamp, before any generation exists: \p ExpectResumeSteps 0 means
/// the --resume run finds nothing and starts fresh.
template <unsigned Dim>
void runKillResumeScenario(BackendKind Backend, unsigned Threads,
                           unsigned TotalSteps, unsigned Every,
                           unsigned KillWriteNth, unsigned ExpectResumeSteps,
                           const char *DirName,
                           EngineKind Engine = EngineKind::Array) {
  FaultGuard FG;
  std::string Dir = freshDir(DirName);

  // Uninterrupted reference, scoped so any worker threads are joined
  // before the fork below.
  std::vector<Cons<Dim>> RefField;
  double RefTime = 0.0;
  {
    RunConfig Cfg = durableConfig<Dim>(Backend, Threads, "", 0, Engine);
    SolverRun<Dim> Ref(killProblem<Dim>(), Cfg);
    ASSERT_TRUE(Ref.advanceSteps(TotalSteps));
    RefField.resize(Ref.solver().field().size());
    Ref.solver().field().exportTo(RefField.data());
    RefTime = Ref.solver().time();
  }

  pid_t Child = fork();
  ASSERT_GE(Child, 0) << "fork failed";
  if (Child == 0) {
    // Sacrificial child: checkpoint periodically until the armed
    // kill-write raises SIGKILL mid-write.  No gtest machinery in here —
    // reaching _exit means the fault never fired, and the parent fails
    // on the exit status.
    iofault::Plan P;
    P.KillWriteNth = KillWriteNth;
    iofault::setPlan(P);
    RunConfig Cfg = durableConfig<Dim>(Backend, Threads, Dir, Every, Engine);
    SolverRun<Dim> Run(killProblem<Dim>(), Cfg);
    setupDurableRun(Run);
    Run.advanceSteps(TotalSteps);
    _exit(2);
  }

  int Status = 0;
  ASSERT_EQ(waitpid(Child, &Status, 0), Child);
  ASSERT_TRUE(WIFSIGNALED(Status))
      << "child must die from the injected kill, not exit (status "
      << Status << ")";
  EXPECT_EQ(WTERMSIG(Status), SIGKILL);

  // Resume in the parent: discover the newest intact generation, finish
  // the run, and match the uninterrupted reference bit for bit.
  RunConfig Cfg = durableConfig<Dim>(Backend, Threads, Dir, Every, Engine);
  Cfg.Checkpoint.Resume = true;
  SolverRun<Dim> Run(killProblem<Dim>(), Cfg);
  DurabilitySetup Setup = setupDurableRun(Run);
  ASSERT_TRUE(Setup.Ok);
  ASSERT_EQ(Setup.Resumed, ExpectResumeSteps != 0)
      << "a generation must have survived the kill, if one was written";
  EXPECT_EQ(Setup.ResumeSteps, ExpectResumeSteps);
  EXPECT_EQ(Run.solver().stepCount(), ExpectResumeSteps);

  // The SIGKILL stranded a staged .tmp (that is the point of the fault);
  // resume must have swept it.
  for (const fs::directory_entry &E : fs::directory_iterator(Dir))
    EXPECT_NE(E.path().extension(), ".tmp")
        << "orphaned staging file survived resume: " << E.path();

  ASSERT_TRUE(Run.advanceSteps(TotalSteps - Setup.ResumeSteps));
  std::vector<Cons<Dim>> Got(Run.solver().field().size());
  Run.solver().field().exportTo(Got.data());
  ASSERT_EQ(Got.size(), RefField.size());
  EXPECT_EQ(std::memcmp(Got.data(), RefField.data(),
                        RefField.size() * sizeof(Cons<Dim>)),
            0)
      << "resumed run must be bit-identical to the uninterrupted one";
  EXPECT_EQ(Run.solver().time(), RefTime);
  EXPECT_EQ(Run.solver().stepCount(), TotalSteps);
  fs::remove_all(Dir);
}

} // namespace

//===----------------------------------------------------------------------===//
// Kill-at-step matrix: 1D/2D x serial/threaded
//===----------------------------------------------------------------------===//

TEST(Durability, KillMidPayloadWrite1DSerial) {
  // Write op 7 = payload of the step-15 generation: its tmp is never
  // renamed, so the disk holds generations 5 and 10.
  runKillResumeScenario<1>(BackendKind::Serial, 1, /*TotalSteps=*/40,
                           /*Every=*/5, /*KillWriteNth=*/7,
                           /*ExpectResumeSteps=*/10, "kill_1d_serial");
}

TEST(Durability, KillMidManifestWrite1DSerial) {
  // Write op 1 = the claim's manifest stamp: no generation and no
  // manifest exist, only the stamp's staging file.  The resume sweeps
  // it, claims the store afresh and must still match the reference.
  runKillResumeScenario<1>(BackendKind::Serial, 1, /*TotalSteps=*/40,
                           /*Every=*/5, /*KillWriteNth=*/1,
                           /*ExpectResumeSteps=*/0, "kill_1d_manifest");
}

TEST(Durability, KillMidPayloadWrite2DSerial) {
  runKillResumeScenario<2>(BackendKind::Serial, 1, /*TotalSteps=*/30,
                           /*Every=*/5, /*KillWriteNth=*/7,
                           /*ExpectResumeSteps=*/10, "kill_2d_serial");
}

TEST(Durability, KillMidPayloadWrite1DThreaded) {
  runKillResumeScenario<1>(BackendKind::SpinPool, 2, /*TotalSteps=*/40,
                           /*Every=*/5, /*KillWriteNth=*/7,
                           /*ExpectResumeSteps=*/10, "kill_1d_spinpool");
}

TEST(Durability, KillMidPayloadWrite2DThreaded) {
  runKillResumeScenario<2>(BackendKind::SpinPool, 2, /*TotalSteps=*/30,
                           /*Every=*/5, /*KillWriteNth=*/7,
                           /*ExpectResumeSteps=*/10, "kill_2d_spinpool");
}

TEST(Durability, KillMidPayloadWrite2DForkJoin) {
  runKillResumeScenario<2>(BackendKind::ForkJoin, 2, /*TotalSteps=*/30,
                           /*Every=*/5, /*KillWriteNth=*/7,
                           /*ExpectResumeSteps=*/10, "kill_2d_forkjoin");
}

TEST(Durability, KillMidPayloadWrite2DFusedEngine) {
  // The fused engine serves the GetDT maximum its last stage folded.  A
  // resume restores the field and the clock, and must not serve a dt
  // cached for any other field, or the post-resume trajectory diverges
  // from the uninterrupted reference.
  runKillResumeScenario<2>(BackendKind::SpinPool, 2, /*TotalSteps=*/30,
                           /*Every=*/5, /*KillWriteNth=*/7,
                           /*ExpectResumeSteps=*/10, "kill_2d_fused",
                           EngineKind::Fused);
}

//===----------------------------------------------------------------------===//
// Periodic checkpointing is invisible to the physics
//===----------------------------------------------------------------------===//

TEST(Durability, PeriodicCheckpointingIsBitIdentical) {
  std::string Dir = freshDir("periodic_identity");

  RunConfig Plain = durableConfig<1>(BackendKind::Serial, 1, "", 0);
  SolverRun<1> A(killProblem<1>(), Plain);
  ASSERT_TRUE(A.advanceTo(0.12));

  RunConfig Durable = durableConfig<1>(BackendKind::Serial, 1, Dir, 3);
  SolverRun<1> B(killProblem<1>(), Durable);
  setupDurableRun(B);
  ASSERT_TRUE(B.advanceTo(0.12));

  EXPECT_EQ(A.solver().stepCount(), B.solver().stepCount());
  EXPECT_EQ(A.solver().time(), B.solver().time());
  EXPECT_EQ(maxFieldDifference(A.solver(), B.solver()), 0.0)
      << "the chunked checkpoint loop must replicate advanceTo exactly";
  EXPECT_FALSE(CheckpointStore(Dir).generations().empty())
      << "and it must actually have checkpointed";
  fs::remove_all(Dir);
}

// A fresh run in a directory an earlier, longer run left behind must
// not be shadowed by that run's newer generations: neither in rotation
// (which keeps the newest) nor in a later --resume.
TEST(Durability, FreshRunClaimsADirtyCheckpointDir) {
  std::string Dir = freshDir("dirty_dir");
  {
    SolverRun<1> Earlier(killProblem<1>(),
                         durableConfig<1>(BackendKind::Serial, 1, Dir, 2));
    ASSERT_TRUE(setupDurableRun(Earlier).Ok);
    ASSERT_TRUE(Earlier.advanceSteps(10));
  }
  SolverRun<1> Fresh(killProblem<1>(),
                     durableConfig<1>(BackendKind::Serial, 1, Dir, 2));
  ASSERT_TRUE(setupDurableRun(Fresh).Ok);
  ASSERT_TRUE(Fresh.advanceSteps(4));

  RunConfig Cfg = durableConfig<1>(BackendKind::Serial, 1, Dir, 2);
  Cfg.Checkpoint.Resume = true;
  SolverRun<1> Resumed(killProblem<1>(), Cfg);
  DurabilitySetup Setup = setupDurableRun(Resumed);
  ASSERT_TRUE(Setup.Ok);
  ASSERT_TRUE(Setup.Resumed);
  EXPECT_EQ(Setup.ResumeSteps, 4u);
  EXPECT_EQ(maxFieldDifference(Fresh.solver(), Resumed.solver()), 0.0);
  fs::remove_all(Dir);
}

TEST(Durability, GuardedPeriodicCheckpointingIsBitIdentical) {
  std::string Dir = freshDir("periodic_guarded");

  RunConfig Plain = durableConfig<1>(BackendKind::Serial, 1, "", 0);
  Plain.Guard.Enabled = true;
  Plain.Guard.Every = 4;
  SolverRun<1> A(killProblem<1>(), Plain);
  ASSERT_TRUE(A.advanceTo(0.12));

  RunConfig Durable = durableConfig<1>(BackendKind::Serial, 1, Dir, 5);
  Durable.Guard.Enabled = true;
  Durable.Guard.Every = 4;
  SolverRun<1> B(killProblem<1>(), Durable);
  setupDurableRun(B);
  ASSERT_TRUE(B.advanceTo(0.12));

  EXPECT_EQ(A.solver().stepCount(), B.solver().stepCount());
  EXPECT_EQ(maxFieldDifference(A.solver(), B.solver()), 0.0);
  fs::remove_all(Dir);
}

//===----------------------------------------------------------------------===//
// Step-guard e2e: breakdown → emergency checkpoint → resume → continue
//===----------------------------------------------------------------------===//

TEST(Durability, EmergencyCheckpointRoundTripAfterBreakdown) {
  std::string Dir = freshDir("emergency_e2e");
  fs::create_directories(Dir);
  std::string Emergency = Dir + "/emergency.sacfd";

  RunConfig Cfg = durableConfig<1>(BackendKind::Serial, 1, "", 0);
  Cfg.Guard.Enabled = true;
  Cfg.Guard.Retries = 2;
  Cfg.Guard.NoFloor = true;
  Cfg.Guard.CheckpointPath = Emergency;
  Cfg.Guard.PoisonStep = 6; // persistent poison => unrecoverable
  Cfg.Guard.PoisonCells = 4;
  SolverRun<1> Run(killProblem<1>(), Cfg);
  setupDurableRun(Run);

  EXPECT_FALSE(Run.advanceTo(0.2)) << "persistent fault must fail the run";
  ASSERT_EQ(Run.guard()->reports().size(), 1u);
  const BreakdownReport &R = Run.guard()->reports().front();
  EXPECT_TRUE(R.CheckpointWritten) << R.CheckpointErrorText;
  EXPECT_EQ(R.CheckpointPath, Emergency);
  EXPECT_TRUE(R.CheckpointErrorText.empty());
  EXPECT_EQ(R.Step, 5u) << "last healthy state is the window-start snapshot";
  EXPECT_FALSE(fs::exists(Emergency + ".tmp"))
      << "the atomic path leaves no staging file";

  // Resume from the emergency checkpoint and continue without the fault:
  // the continuation must match a clean run restarted from the same
  // healthy state.
  RunConfig Clean = durableConfig<1>(BackendKind::Serial, 1, "", 0);
  SolverRun<1> Resumed(killProblem<1>(), Clean);
  ASSERT_TRUE(loadCheckpoint(Emergency, Resumed.solver()).ok());
  EXPECT_EQ(Resumed.solver().stepCount(), R.Step);
  EXPECT_EQ(maxFieldDifference(Resumed.solver(), Run.solver()), 0.0)
      << "emergency checkpoint is the guard's restored healthy state";

  SolverRun<1> Reference(killProblem<1>(), Clean);
  ASSERT_TRUE(Reference.advanceSteps(R.Step));
  ASSERT_TRUE(Resumed.advanceSteps(10));
  ASSERT_TRUE(Reference.advanceSteps(10));
  EXPECT_EQ(maxFieldDifference(Resumed.solver(), Reference.solver()), 0.0)
      << "post-resume trajectory matches an uninterrupted healthy run";
  fs::remove_all(Dir);
}
