//===- shard/ShardCoordinator.h - Multi-process shard driver ----*- C++ -*-===//
//
// Part of SacFD, a reproduction of "Numerical Simulations of Unsteady Shock
// Wave Interactions Using SaC and Fortran-90" (PaCT 2009).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Lockstep driver for a sharded 2D run: N forked worker processes, each
/// owning a full SolverRun over one row block plus ghost rows, exchange
/// halo slabs through shared-memory mailboxes every RK stage while the
/// coordinator broadcasts commands and reduces the per-shard GetDT
/// maxima into the global CFL step.
///
/// Bit-determinism: the shard-order max reduction reproduces the global
/// GetDT maximum exactly (max is grouping-invariant), the broadcast dt
/// is applied by every worker, every sub-grid coordinate is bitwise the
/// global grid's (Grid::rowSlice), and a halo slab is a bitwise copy of
/// neighbor interior rows — so an N-shard run matches the single-process
/// run bit for bit, which the determinism suite pins at 1/2/4 shards.
///
/// Elastic recovery: each worker checkpoints its block into its own
/// CheckpointStore directory on a shared cadence.  When a worker dies at
/// a step barrier with a checkpoint of exactly its current state — same
/// step count and no clock snap applied since it was written — only that
/// shard is re-forked and resumed while the others wait inside their
/// mailbox spins; any messier death (mid-step, stale checkpoint, snapped
/// clock) falls back to a global rewind to the latest common generation.
/// The coordinator decides every step with the single-process step rule
/// (nextStep over the reduced GetDT) and broadcasts the resulting
/// StepEntry; workers execute it through the same EulerSolver::apply.
/// A rewound fleet is brought back by replaying the logged entries —
/// the exact dt of every committed step (advanceTo clamps included) and
/// every end-time snap — rather than by recomputing steps, so recovery
/// is bitwise faithful even when the original steps ran under a clamp
/// the rewound clock no longer implies.
/// Either way the run continues to the same bitwise final state, which
/// the fault tests assert by hash.
///
//===----------------------------------------------------------------------===//

#ifndef SACFD_SHARD_SHARDCOORDINATOR_H
#define SACFD_SHARD_SHARDCOORDINATOR_H

#include "shard/ShardPlan.h"
#include "shard/ShardShm.h"
#include "solver/RunConfig.h"
#include "solver/StepRule.h"
#include "support/Shm.h"

#include <cstdint>
#include <string>
#include <sys/types.h>
#include <vector>

namespace sacfd {

/// Everything a shard run is shaped by.  Scheme, engine and kernel build
/// mirror the single-process RunConfig knobs so a sharded run can be
/// compared bitwise against the equivalent SolverRun.
struct ShardOptions {
  unsigned Shards = 2;
  SchemeConfig Scheme;
  EngineKind Engine = EngineKind::Fused;
  bool Simd = true;
  /// Per-shard checkpoint stores live under `<CheckpointDir>/shard-<k>`;
  /// empty disables durability (and with it, elastic recovery).
  std::string CheckpointDir;
  /// Checkpoint cadence in steps (0 = off).  The cadence is shared by
  /// every shard, so the per-shard stores always hold a common
  /// generation set.
  unsigned CheckpointEvery = 0;
  unsigned CheckpointKeep = 3;
  /// Resume every shard from the latest generation common to all the
  /// per-shard stores of one run (fresh start when none exists).  A
  /// fresh start claims the stores for a new run id, deleting an earlier
  /// run's generations, so recovery only ever rewinds onto this run's.
  bool Resume = false;
  /// Reserve the per-shard full-storage dump section so tests can read
  /// ghost rows back (exportShardStorage).
  bool StorageDump = false;
};

/// Forks, drives and recovers the worker fleet.  Single-threaded on the
/// coordinator side — it never creates a Backend, so forking is always
/// safe (no live threads).
class ShardCoordinator {
public:
  ShardCoordinator(Problem<2> Global, ShardOptions Opt);
  ~ShardCoordinator();

  ShardCoordinator(const ShardCoordinator &) = delete;
  ShardCoordinator &operator=(const ShardCoordinator &) = delete;

  /// Maps the shared region and forks the workers (resuming when
  /// configured).  \returns false when setup fails (mmap, fork, or a
  /// worker failing its resume load).
  bool start();

  /// Advances every shard \p N lockstep steps.  \returns false on an
  /// unrecoverable failure.
  bool advanceSteps(unsigned N);

  /// Advances every shard to \p EndTime under the step rule of
  /// EulerSolver::advanceTo (clamp, remainder snap).  \returns false on an
  /// unrecoverable failure.
  bool advanceTo(double EndTime);

  double time() const { return CurTime; }
  unsigned stepCount() const { return CurSteps; }
  unsigned shards() const { return Opt.Shards; }
  unsigned stagesPerStep() const { return StagesPerStep; }
  const std::vector<RowBlock> &blocks() const { return Blocks; }

  /// Stitches the global interior and hashes it with fieldStateHash
  /// component order — comparable against the single-process hash.
  /// \returns 0 on failure.
  uint64_t stateHash();

  /// Copies the stitched global interior (row-major) into \p Out.
  bool stitchInterior(std::vector<Cons<2>> &Out);

  /// Copies shard \p K's full local storage — ghost rows included — into
  /// \p Out (requires Opt.StorageDump).  The halo test suite reads ghost
  /// rows through this.
  bool exportShardStorage(unsigned K, std::vector<Cons<2>> &Out);

  /// Fault injection: SIGKILLs shard \p K's process.  Call between
  /// advance calls (the fleet is at a step barrier); the next command
  /// detects the death and runs recovery.
  void killShard(unsigned K);

  /// Fault injection: arms a one-shot self-kill — shard \p K SIGKILLs
  /// itself at the top of halo fill \p FillSeq (`= steps * stages +
  /// stage`, counted from t = 0), before publishing anything of that
  /// fill.  A deterministic mid-AdvanceDt death: the victim's neighbors
  /// wedge in their mailbox spins, so detection must not depend on the
  /// victim being the shard whose ack the coordinator is waiting on.
  void killShardAtFill(unsigned K, uint64_t FillSeq);

  /// Shards restarted individually (elastic path).
  unsigned restartCount() const { return Restarts; }
  /// Whole-fleet rewinds (global path).
  unsigned fullRestartCount() const { return FullRestarts; }

  /// Stops the fleet (Exit broadcast + reap); idempotent, also run by
  /// the destructor.
  void shutdown();

private:
  enum class CmdResult { Done, Rewound, Fatal };

  /// The forked child's whole life; never returns to the caller's flow
  /// (spawnProcess _exits with its return value).
  int workerBody(unsigned K);

  bool forkWorker(unsigned K);
  bool waitReady(unsigned K);
  CmdResult waitAcks();
  CmdResult command(ShardCmd Cmd, uint64_t Payload);
  CmdResult handleDeath(unsigned K);
  CmdResult globalRestart();
  /// Runs one command to completion on a started fleet, replaying the
  /// log through any rewind recovery.  \returns false on an
  /// unrecoverable failure.
  bool runCommand(ShardCmd Cmd, uint64_t Payload);
  /// Decides the next step-rule entry toward \p EndTime (+infinity for
  /// the fixed-step loop), commits it fleet-wide and logs it.
  bool stepToward(double EndTime);
  /// Re-advances a rewound fleet back to the current state by re-issuing
  /// the logged step entries from the rewind point.  \returns false on
  /// an unrecoverable failure.
  bool replayHistory();
  /// True when the replay log holds a snap applied at or after step
  /// count \p Steps — i.e. after the checkpoint of generation \p Steps
  /// was written, making that checkpoint's clock stale.
  bool snapRecordedAfter(uint64_t Steps) const;
  void syncClock();
  /// Newest generation of shard \p K's store, or of all stores; only
  /// stores stamped with this fleet's RunId count.
  uint64_t latestGeneration(unsigned K) const;
  uint64_t latestCommonGeneration() const;
  std::string shardDir(unsigned K) const;

  Problem<2> Global;
  ShardOptions Opt;
  std::vector<RowBlock> Blocks;
  std::vector<Problem<2>> SubProblems;
  bool Ring = false;
  unsigned StagesPerStep = 1;
  ShardShmLayout Layout;
  ShmRegion Region;
  std::vector<pid_t> Pids;
  uint64_t Epoch = 0;
  ShardCmd LastCmd = ShardCmd::None;
  /// The replay log: every step entry committed since start(), exactly
  /// as broadcast.  HistoryBase is the fleet step count the log begins
  /// at (nonzero after a cross-coordinator resume).
  std::vector<StepEntry> History;
  uint64_t HistoryBase = 0;
  double CurTime = 0.0;
  unsigned CurSteps = 0;
  unsigned Restarts = 0;
  unsigned FullRestarts = 0;
  bool Started = false;
  bool Dead = false;
  /// The run id the per-shard stores carry (CheckpointStore::claim).
  std::string RunId;
};

} // namespace sacfd

#endif // SACFD_SHARD_SHARDCOORDINATOR_H
