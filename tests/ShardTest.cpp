//===- tests/ShardTest.cpp - Multi-process shard decomposition ------------===//
//
// The shard runtime's contract is bit-identity: an N-shard run over
// row-block sub-grids with shared-memory halo exchange must reproduce
// the single-process run bit for bit — field hash, clock and step count
// — on every workload, including ragged partitions, periodic rings and
// time-dependent prescribed boundaries.  The fault-injection tests then
// pin the elastic-recovery story: SIGKILLing one shard mid-run resumes
// it from its own checkpoint store (others wait) and still converges on
// the same bitwise final state; without durability the fleet rewinds
// globally and replays to the same state.
//
// The ghost-row suite compares each shard's full local storage against
// the single-process storage.  Internal halo ghost rows are excluded
// from the direct comparison: both runs step through the one stage
// driver, which fills the ghosts of each RK stage's input, so after a
// step U's physical ghost rows hold the same first-stage fill in both
// runs, but the single-process counterpart of an internal halo row is an
// interior cell the final update refreshed.  Interior bit-identity (the
// hash checks) covers those rows instead.
//
//===----------------------------------------------------------------------===//

#include "shard/ShardCoordinator.h"
#include "shard/ShardPlan.h"
#include "solver/Problems.h"
#include "solver/Scenario.h"
#include "solver/SolverFactory.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

using namespace sacfd;

namespace {

std::string freshDir(const std::string &Name) {
  std::string Dir = std::string(::testing::TempDir()) + "/" + Name;
  std::filesystem::remove_all(Dir);
  std::filesystem::create_directories(Dir);
  return Dir;
}

/// The worker-equivalent single-process configuration: fused engine on
/// the serial backend.
RunConfig serialConfig(const SchemeConfig &Scheme) {
  RunConfig Cfg;
  Cfg.Scheme = Scheme;
  Cfg.Engine = EngineKind::Fused;
  Cfg.Backend = BackendKind::Serial;
  Cfg.Threads = 1;
  return Cfg;
}

ShardOptions shardOptions(const SchemeConfig &Scheme, unsigned Shards) {
  ShardOptions Opt;
  Opt.Shards = Shards;
  Opt.Scheme = Scheme;
  Opt.Engine = EngineKind::Fused;
  return Opt;
}

bool sameBits(double A, double B) {
  return std::memcmp(&A, &B, sizeof(double)) == 0;
}

bool sameCell(const Cons<2> &A, const Cons<2> &B) {
  return sameBits(A.Rho, B.Rho) && sameBits(A.Mom[0], B.Mom[0]) &&
         sameBits(A.Mom[1], B.Mom[1]) && sameBits(A.E, B.E);
}

/// Runs the single-process reference \p Steps steps and returns the
/// solver (for hash and storage comparison).
SolverRun<2> referenceRun(const Problem<2> &Prob, const SchemeConfig &Scheme,
                          unsigned Steps) {
  SolverRun<2> Run(Prob, serialConfig(Scheme));
  Run.solver().advanceSteps(Steps);
  return Run;
}

/// Asserts that an N-shard run of \p Prob matches the single-process
/// reference: same hash, clock and step count.  With \p CheckStorage,
/// additionally compares every shard's full local storage (ghost rows
/// included) against the single-process storage, masking internal halo
/// ghost rows as documented in the file header.
void expectShardedMatches(const Problem<2> &Prob, const SchemeConfig &Scheme,
                          unsigned Steps, unsigned Shards,
                          bool CheckStorage = false) {
  SCOPED_TRACE("shards=" + std::to_string(Shards));
  SolverRun<2> Ref = referenceRun(Prob, Scheme, Steps);
  const uint64_t RefHash = fieldStateHash(Ref.solver());

  ShardOptions Opt = shardOptions(Scheme, Shards);
  Opt.StorageDump = CheckStorage;
  ShardCoordinator Coord(Prob, Opt);
  ASSERT_TRUE(Coord.start());
  ASSERT_TRUE(Coord.advanceSteps(Steps));
  EXPECT_EQ(Coord.stepCount(), Ref.solver().stepCount());
  EXPECT_TRUE(sameBits(Coord.time(), Ref.solver().time()))
      << Coord.time() << " vs " << Ref.solver().time();
  EXPECT_EQ(Coord.stateHash(), RefHash);

  if (!CheckStorage)
    return;
  const Grid<2> &G = Prob.Domain;
  const unsigned Ng = G.ghost();
  const size_t Rows = G.cells(0), Cols = G.cells(1);
  const size_t StorageCols = Cols + 2 * Ng;
  std::vector<Cons<2>> Global(Ref.solver().field().size());
  Ref.solver().field().exportTo(Global.data());
  const bool Ring = Shards > 1 && rowAxisPeriodic(Prob);
  for (unsigned K = 0; K < Shards; ++K) {
    SCOPED_TRACE("shard=" + std::to_string(K));
    const RowBlock B = Coord.blocks()[K];
    std::vector<Cons<2>> Local;
    ASSERT_TRUE(Coord.exportShardStorage(K, Local));
    ASSERT_EQ(Local.size(), (B.Count + 2 * Ng) * StorageCols);
    const bool LowInternal = Shards > 1 && (K > 0 || Ring);
    const bool HighInternal = Shards > 1 && (K + 1 < Shards || Ring);
    // A ring wrap still maps onto global *ghost* rows, which the
    // single-process periodic fill wrote at the same stage time — those
    // stay in the comparison.
    for (size_t SR = 0; SR < B.Count + 2 * Ng; ++SR) {
      const bool LowGhost = SR < Ng;
      const bool HighGhost = SR >= Ng + B.Count;
      const size_t GR = B.Begin + SR; // global storage row
      const bool MapsToGlobalGhost = GR < Ng || GR >= Ng + Rows;
      if (((LowGhost && LowInternal) || (HighGhost && HighInternal)) &&
          !MapsToGlobalGhost)
        continue; // internal halo row: single-process holds fresher data
      for (size_t C = 0; C < StorageCols; ++C) {
        const Cons<2> &Want = Global[GR * StorageCols + C];
        const Cons<2> &Got = Local[SR * StorageCols + C];
        ASSERT_TRUE(sameCell(Want, Got))
            << "row " << SR << " col " << C << ": rho " << Got.Rho << " vs "
            << Want.Rho;
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// Static decomposition
//===----------------------------------------------------------------------===//

TEST(ShardPlan, EvenPartition) {
  std::vector<RowBlock> B = rowBlocks(16, 4);
  ASSERT_EQ(B.size(), 4u);
  for (unsigned K = 0; K < 4; ++K) {
    EXPECT_EQ(B[K].Begin, 4u * K);
    EXPECT_EQ(B[K].Count, 4u);
  }
}

TEST(ShardPlan, RaggedPartitionSpreadsRemainder) {
  std::vector<RowBlock> B = rowBlocks(10, 3);
  ASSERT_EQ(B.size(), 3u);
  EXPECT_EQ(B[0].Count, 4u); // the one extra row leads
  EXPECT_EQ(B[1].Count, 3u);
  EXPECT_EQ(B[2].Count, 3u);
  size_t Next = 0;
  for (const RowBlock &Blk : B) {
    EXPECT_EQ(Blk.Begin, Next); // contiguous, in order
    Next += Blk.Count;
  }
  EXPECT_EQ(Next, 10u);
}

TEST(ShardPlan, RowSliceGeometryIsBitwiseGlobal) {
  Problem<2> P = shockInteraction2D(40);
  Grid<2> Slice = Grid<2>::rowSlice(P.Domain, 13, 9);
  EXPECT_EQ(Slice.cells(0), 9u);
  EXPECT_EQ(Slice.cells(1), P.Domain.cells(1));
  for (unsigned A = 0; A < 2; ++A)
    EXPECT_TRUE(sameBits(Slice.dx(A), P.Domain.dx(A)));
  for (size_t I = 0; I < 9; ++I)
    EXPECT_TRUE(sameBits(Slice.cellCenter(0, I),
                         P.Domain.cellCenter(0, I + 13)));
  for (size_t J = 0; J < Slice.cells(1); ++J)
    EXPECT_TRUE(sameBits(Slice.cellCenter(1, J), P.Domain.cellCenter(1, J)));
}

TEST(ShardPlan, HaloSidesReplaceInternalInterfaces) {
  Problem<2> P = shockInteraction2D(40);
  std::vector<RowBlock> B = rowBlocks(P.Domain.cells(0), 3);
  Problem<2> Mid = shardProblem(P, B[1], /*LowHalo=*/true, /*HighHalo=*/true);
  for (bool High : {false, true}) {
    const auto &Segs = Mid.Boundary.Side[boundarySide(0, High)];
    ASSERT_EQ(Segs.size(), 1u);
    EXPECT_EQ(Segs.front().Kind, BcKind::Halo);
  }
  // Tangential sides keep the global physical segments.
  EXPECT_EQ(Mid.Boundary.Side[boundarySide(1, false)].size(),
            P.Boundary.Side[boundarySide(1, false)].size());
}

//===----------------------------------------------------------------------===//
// Bit-identity vs the single-process reference
//===----------------------------------------------------------------------===//

// The gallery's 2D pinned workload: Prescribed (frozen inflow) +
// Reflecting segments on the low row side, Outflow on the high — three
// BC kinds landing on shard edges.  Shards 3 exercises the ragged path
// (40 % 3 != 0); storage checks compare the ghost rows themselves.
TEST(ShardIdentity, ShockInteraction) {
  Problem<2> P = shockInteraction2D(40);
  SchemeConfig Scheme = SchemeConfig::figureScheme();
  for (unsigned Shards : {1u, 2u, 3u, 4u})
    expectShardedMatches(P, Scheme, /*Steps=*/6, Shards,
                         /*CheckStorage=*/true);
}

// Double Mach reflection: Prescribed post-shock state on the low row
// side and the time-dependent prescribed trace along the top — the
// clock-sensitive BC path, on the scenario's pinned tuning (CFL 0.3).
TEST(ShardIdentity, DoubleMach) {
  Problem<2> P = doubleMachReflection(16);
  SchemeConfig Scheme = SchemeConfig::figureScheme();
  Scheme.Cfl = 0.3;
  for (unsigned Shards : {1u, 2u, 4u})
    expectShardedMatches(P, Scheme, /*Steps=*/4, Shards,
                         /*CheckStorage=*/true);
}

// Periodic rows close the shard chain into a ring; the wrap-around halo
// exchange must reproduce the single-process periodic fill bit for bit
// (the global ghost rows stay in the storage comparison).  Ghost depth 3
// here (WENO-ready advection problem) — slabs deeper than the default.
TEST(ShardIdentity, PeriodicRing) {
  Problem<2> P = smoothAdvection2D(24);
  SchemeConfig Scheme = SchemeConfig::figureScheme();
  for (unsigned Shards : {2u, 4u})
    expectShardedMatches(P, Scheme, /*Steps=*/5, Shards,
                         /*CheckStorage=*/true);
}

// advanceTo must reproduce the single-process clamp-and-snap arithmetic
// (final partial step, then the restoreClock snap) across shards.
TEST(ShardIdentity, AdvanceToClampAndSnap) {
  Problem<2> P = shockInteraction2D(32);
  SchemeConfig Scheme = SchemeConfig::figureScheme();
  SolverRun<2> Ref(P, serialConfig(Scheme));
  Ref.solver().advanceTo(30.0);
  ShardCoordinator Coord(P, shardOptions(Scheme, 2));
  ASSERT_TRUE(Coord.start());
  ASSERT_TRUE(Coord.advanceTo(30.0));
  EXPECT_EQ(Coord.stepCount(), Ref.solver().stepCount());
  EXPECT_TRUE(sameBits(Coord.time(), Ref.solver().time()));
  EXPECT_EQ(Coord.stateHash(), fieldStateHash(Ref.solver()));
}

//===----------------------------------------------------------------------===//
// Fault injection and durability
//===----------------------------------------------------------------------===//

// Kill one shard at a step barrier with a current checkpoint: only that
// shard restarts (elastic path — no global rewind), resumes from its own
// store, and the run converges on the uninterrupted bitwise final state.
TEST(ShardFault, KillOneShardResumesFromItsStore) {
  Problem<2> P = shockInteraction2D(32);
  SchemeConfig Scheme = SchemeConfig::figureScheme();
  SolverRun<2> Ref = referenceRun(P, Scheme, 6);
  const uint64_t WantHash = fieldStateHash(Ref.solver());

  ShardOptions Opt = shardOptions(Scheme, 2);
  Opt.CheckpointDir = freshDir("shard-kill-one");
  Opt.CheckpointEvery = 1;
  ShardCoordinator Coord(P, Opt);
  ASSERT_TRUE(Coord.start());
  ASSERT_TRUE(Coord.advanceSteps(3));
  Coord.killShard(1);
  ASSERT_TRUE(Coord.advanceSteps(3));
  EXPECT_EQ(Coord.stepCount(), 6u);
  EXPECT_EQ(Coord.restartCount(), 1u);
  EXPECT_EQ(Coord.fullRestartCount(), 0u);
  EXPECT_EQ(Coord.stateHash(), WantHash);
}

// Without durability the only recovery is the global rewind: the whole
// fleet restarts from the initial state and replays — deterministically
// onto the same final hash.
TEST(ShardFault, KillWithoutCheckpointsRewindsGlobally) {
  Problem<2> P = shockInteraction2D(32);
  SchemeConfig Scheme = SchemeConfig::figureScheme();
  SolverRun<2> Ref = referenceRun(P, Scheme, 5);

  ShardCoordinator Coord(P, shardOptions(Scheme, 2));
  ASSERT_TRUE(Coord.start());
  ASSERT_TRUE(Coord.advanceSteps(3));
  Coord.killShard(0);
  ASSERT_TRUE(Coord.advanceSteps(2));
  EXPECT_EQ(Coord.stepCount(), 5u);
  EXPECT_GE(Coord.fullRestartCount(), 1u);
  EXPECT_EQ(Coord.stateHash(), fieldStateHash(Ref.solver()));
}

// A shard that dies *inside* AdvanceDt — here shard 1, at the top of
// step 4's first RK-stage halo fill, before publishing anything — wedges
// shard 0 in its mailbox receive spin, so shard 0's ack never arrives
// and the pid the coordinator must notice is not the one whose ack it is
// waiting on.  Nothing of the step was published (the barrier criterion
// still holds) and the checkpoint is current, so the elastic path
// restarts just the victim, which re-drives the interrupted step and
// unwedges its neighbor; the run still lands on the uninterrupted bits.
TEST(ShardFault, DiesMidStepBeforePublishElasticRestart) {
  Problem<2> P = shockInteraction2D(32);
  SchemeConfig Scheme = SchemeConfig::figureScheme();
  SolverRun<2> Ref = referenceRun(P, Scheme, 6);

  ShardOptions Opt = shardOptions(Scheme, 2);
  Opt.CheckpointDir = freshDir("shard-kill-midstep");
  Opt.CheckpointEvery = 1;
  ShardCoordinator Coord(P, Opt);
  ASSERT_TRUE(Coord.start());
  ASSERT_TRUE(Coord.advanceSteps(3));
  Coord.killShardAtFill(1, uint64_t(Coord.stepCount()) *
                               Coord.stagesPerStep());
  ASSERT_TRUE(Coord.advanceSteps(3));
  EXPECT_EQ(Coord.stepCount(), 6u);
  EXPECT_EQ(Coord.restartCount(), 1u);
  EXPECT_EQ(Coord.fullRestartCount(), 0u);
  EXPECT_EQ(Coord.stateHash(), fieldStateHash(Ref.solver()));
}

// Dying one stage later — after the first stage's slab was published —
// breaks the barrier criterion: recovery must take the global rewind
// even though a checkpoint at the current step count exists, because the
// mailboxes hold half a step.  The rewind replays onto the same bits.
TEST(ShardFault, DiesMidStagePublishedForcesGlobalRewind) {
  Problem<2> P = shockInteraction2D(32);
  SchemeConfig Scheme = SchemeConfig::figureScheme();
  SolverRun<2> Ref = referenceRun(P, Scheme, 6);

  ShardOptions Opt = shardOptions(Scheme, 2);
  Opt.CheckpointDir = freshDir("shard-kill-midstage");
  Opt.CheckpointEvery = 1;
  ShardCoordinator Coord(P, Opt);
  ASSERT_TRUE(Coord.start());
  ASSERT_GE(Coord.stagesPerStep(), 2u); // the kill targets a stage-1 fill
  ASSERT_TRUE(Coord.advanceSteps(3));
  Coord.killShardAtFill(
      1, uint64_t(Coord.stepCount()) * Coord.stagesPerStep() + 1);
  ASSERT_TRUE(Coord.advanceSteps(3));
  EXPECT_EQ(Coord.stepCount(), 6u);
  EXPECT_EQ(Coord.restartCount(), 0u);
  EXPECT_GE(Coord.fullRestartCount(), 1u);
  EXPECT_EQ(Coord.stateHash(), fieldStateHash(Ref.solver()));
}

// An end-time snap applied after the latest checkpoint was written makes
// that checkpoint's clock stale: a targeted restart would resume the
// victim on the pre-snap clock while the survivors run the snapped one,
// diverging the time-dependent prescribed boundary (double Mach top
// wall, owned here by the killed shard).  Recovery must detect the snap
// in its replay log, fall back to the global rewind, and re-apply the
// snap during replay.
TEST(ShardFault, KillAfterSnapRewindsGloballyAndReplaysSnap) {
  Problem<2> P = doubleMachReflection(16);
  SchemeConfig Scheme = SchemeConfig::figureScheme();
  Scheme.Cfl = 0.3;
  SolverRun<2> Ref(P, serialConfig(Scheme));
  Ref.solver().advanceSteps(3);
  const double Snapped = std::nextafter(Ref.solver().time(), 1e300);
  Ref.solver().advanceTo(Snapped); // pure snap: remainder is one ulp
  Ref.solver().advanceSteps(2);

  ShardOptions Opt = shardOptions(Scheme, 2);
  Opt.CheckpointDir = freshDir("shard-kill-after-snap");
  Opt.CheckpointEvery = 1;
  ShardCoordinator Coord(P, Opt);
  ASSERT_TRUE(Coord.start());
  ASSERT_TRUE(Coord.advanceSteps(3));
  ASSERT_TRUE(Coord.advanceTo(Snapped));
  EXPECT_TRUE(sameBits(Coord.time(), Snapped));
  Coord.killShard(1);
  ASSERT_TRUE(Coord.advanceSteps(2));
  EXPECT_EQ(Coord.stepCount(), Ref.solver().stepCount());
  EXPECT_TRUE(sameBits(Coord.time(), Ref.solver().time()));
  EXPECT_EQ(Coord.restartCount(), 0u);
  EXPECT_GE(Coord.fullRestartCount(), 1u);
  EXPECT_EQ(Coord.stateHash(), fieldStateHash(Ref.solver()));
}

// A global rewind during an export must replay the *recorded* dt stream
// — including the final advanceTo-clamped step and the end-time snap —
// not recompute unclamped steps: with no durability the fleet rewinds to
// the initial state and replays the whole run, and the re-exported state
// still matches the uninterrupted single-process run bit for bit.
TEST(ShardFault, RewindReplayPreservesAdvanceToClamp) {
  Problem<2> P = shockInteraction2D(32);
  SchemeConfig Scheme = SchemeConfig::figureScheme();
  SolverRun<2> Ref(P, serialConfig(Scheme));
  Ref.solver().advanceTo(30.0);

  ShardCoordinator Coord(P, shardOptions(Scheme, 2)); // no durability
  ASSERT_TRUE(Coord.start());
  ASSERT_TRUE(Coord.advanceTo(30.0));
  Coord.killShard(1);
  // The death is noticed by the export command itself.
  EXPECT_EQ(Coord.stateHash(), fieldStateHash(Ref.solver()));
  EXPECT_GE(Coord.fullRestartCount(), 1u);
  EXPECT_EQ(Coord.stepCount(), Ref.solver().stepCount());
  EXPECT_TRUE(sameBits(Coord.time(), Ref.solver().time()));
}

// A fresh fleet in a directory whose stores hold an earlier run's newer
// generations (steps 6..8 here) claims the stores: the killed shard
// restarts from this run's own step-3 checkpoint instead of rewinding
// the fleet onto the earlier run's step 8, and a later resume continues
// this run.
TEST(ShardFault, FreshRunIgnoresAnEarlierRunsNewerGenerations) {
  Problem<2> P = shockInteraction2D(32);
  SchemeConfig Scheme = SchemeConfig::figureScheme();
  SolverRun<2> Ref = referenceRun(P, Scheme, 6);
  const std::string Dir = freshDir("shard-foreign");
  ShardOptions Opt = shardOptions(Scheme, 2);
  Opt.CheckpointDir = Dir;
  Opt.CheckpointEvery = 1;
  {
    ShardCoordinator Earlier(P, Opt);
    ASSERT_TRUE(Earlier.start());
    ASSERT_TRUE(Earlier.advanceSteps(8));
  }
  {
    ShardCoordinator Coord(P, Opt);
    ASSERT_TRUE(Coord.start());
    EXPECT_EQ(Coord.stepCount(), 0u);
    ASSERT_TRUE(Coord.advanceSteps(3));
    Coord.killShard(1);
    ASSERT_TRUE(Coord.advanceSteps(3));
    EXPECT_EQ(Coord.stepCount(), 6u);
    EXPECT_EQ(Coord.restartCount(), 1u);
    EXPECT_EQ(Coord.fullRestartCount(), 0u);
    EXPECT_EQ(Coord.stateHash(), fieldStateHash(Ref.solver()));
  }
  Opt.Resume = true;
  ShardCoordinator Resumed(P, Opt);
  ASSERT_TRUE(Resumed.start());
  EXPECT_EQ(Resumed.stepCount(), 6u);
  EXPECT_EQ(Resumed.stateHash(), fieldStateHash(Ref.solver()));
}

// A whole new coordinator resumes the fleet from the per-shard stores
// (latest common generation) and continues bit-identically.
TEST(ShardFault, ResumeAcrossCoordinators) {
  Problem<2> P = shockInteraction2D(32);
  SchemeConfig Scheme = SchemeConfig::figureScheme();
  SolverRun<2> Ref = referenceRun(P, Scheme, 6);
  const std::string Dir = freshDir("shard-resume");

  {
    ShardOptions Opt = shardOptions(Scheme, 2);
    Opt.CheckpointDir = Dir;
    Opt.CheckpointEvery = 2;
    ShardCoordinator Coord(P, Opt);
    ASSERT_TRUE(Coord.start());
    ASSERT_TRUE(Coord.advanceSteps(4));
    Coord.shutdown();
  }
  ShardOptions Opt = shardOptions(Scheme, 2);
  Opt.CheckpointDir = Dir;
  Opt.CheckpointEvery = 2;
  Opt.Resume = true;
  ShardCoordinator Coord(P, Opt);
  ASSERT_TRUE(Coord.start());
  EXPECT_EQ(Coord.stepCount(), 4u);
  ASSERT_TRUE(Coord.advanceSteps(2));
  EXPECT_EQ(Coord.stateHash(), fieldStateHash(Ref.solver()));
}

} // namespace
