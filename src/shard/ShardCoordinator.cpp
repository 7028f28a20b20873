//===- shard/ShardCoordinator.cpp - Multi-process shard driver -----------===//
//
// Part of SacFD, a reproduction of "Numerical Simulations of Unsteady Shock
// Wave Interactions Using SaC and Fortran-90" (PaCT 2009).
//
//===----------------------------------------------------------------------===//

#include "shard/ShardCoordinator.h"

#include "io/Checkpoint.h"
#include "io/CheckpointStore.h"
#include "runtime/Spin.h"
#include "solver/Scenario.h"
#include "solver/SolverFactory.h"
#include "support/Process.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <memory>
#include <set>
#include <unistd.h>

namespace sacfd {

namespace {

/// The command that broadcasts step entry \p E (payload: its value bits).
ShardCmd entryCmd(const StepEntry &E) {
  return E.isSnap() ? ShardCmd::SnapTime : ShardCmd::AdvanceDt;
}

} // namespace

ShardCoordinator::ShardCoordinator(Problem<2> GlobalProb, ShardOptions O)
    : Global(std::move(GlobalProb)), Opt(std::move(O)) {
  if (Opt.Shards == 0)
    Opt.Shards = 1;
  StagesPerStep =
      static_cast<unsigned>(sspStages(Opt.Scheme.Integrator).size());
}

ShardCoordinator::~ShardCoordinator() { shutdown(); }

std::string ShardCoordinator::shardDir(unsigned K) const {
  return Opt.CheckpointDir + "/shard-" + std::to_string(K);
}

uint64_t ShardCoordinator::latestGeneration(unsigned K) const {
  CheckpointStore Store(shardDir(K), Opt.CheckpointKeep);
  if (Store.runId() != RunId)
    return ShardNoResume; // another run's generations
  std::vector<CheckpointStore::Generation> Gens = Store.generations();
  if (Gens.empty())
    return ShardNoResume;
  return Gens.front().Steps; // newest first
}

uint64_t ShardCoordinator::latestCommonGeneration() const {
  // The intersection of the per-shard generation sets: a rewind target
  // must exist in *every* store or the shards would disagree on the
  // clock.  The shared cadence keeps the sets aligned in practice, but a
  // shard killed mid-write can be one generation behind.
  std::set<uint64_t> Common;
  for (unsigned K = 0; K < Opt.Shards; ++K) {
    CheckpointStore Store(shardDir(K), Opt.CheckpointKeep);
    if (Store.runId() != RunId)
      return ShardNoResume; // another run's generations
    std::set<uint64_t> Mine;
    for (const CheckpointStore::Generation &G : Store.generations())
      Mine.insert(G.Steps);
    if (K == 0) {
      Common = std::move(Mine);
    } else {
      std::set<uint64_t> Both;
      for (uint64_t G : Common)
        if (Mine.count(G))
          Both.insert(G);
      Common = std::move(Both);
    }
    if (Common.empty())
      return ShardNoResume;
  }
  return *Common.rbegin();
}

//===----------------------------------------------------------------------===//
// Worker side
//===----------------------------------------------------------------------===//

int ShardCoordinator::workerBody(unsigned K) {
  void *Base = Region.data();
  ShardControl *Ctl = Layout.control(Base);
  ShardSlot *Slot = Layout.slot(Base, K);

  // Each worker is a plain serial solver over its sub-problem; all the
  // single-process machinery (engines, kernels, pooling) applies as-is.
  RunConfig Cfg;
  Cfg.Scheme = Opt.Scheme;
  Cfg.Engine = Opt.Engine;
  Cfg.Backend = BackendKind::Serial;
  Cfg.Threads = 1;
  Cfg.Simd = Opt.Simd;
  SolverRun<2> Run(SubProblems[K], Cfg);
  EulerSolver<2> &S = Run.solver();

  std::unique_ptr<CheckpointStore> Store;
  if (!Opt.CheckpointDir.empty()) {
    Store = std::make_unique<CheckpointStore>(shardDir(K), Opt.CheckpointKeep);
    Store->adopt(RunId); // claimed or adopted by the coordinator
  }

  uint64_t Gen = Slot->TargetGen.load(std::memory_order_acquire);
  if (Gen != ShardNoResume) {
    std::string Path = shardDir(K) + "/" +
                       CheckpointStore::generationFileName(
                           static_cast<unsigned>(Gen));
    if (!loadCheckpoint(Path, S).ok())
      return 3; // the coordinator falls back to a global rewind
  }

  const Grid<2> &G = SubProblems[K].Domain;
  const size_t Cols = G.cells(1);
  const unsigned Ng = G.ghost();
  const size_t StorageCols = Cols + 2 * Ng;
  const size_t InteriorRows = Blocks[K].Count;
  const size_t SlabCells = Layout.slabCells();

  // Ring neighbors when the row axis is periodic; chain ends otherwise.
  int Low = -1, High = -1;
  if (Opt.Shards > 1) {
    if (K > 0)
      Low = static_cast<int>(K) - 1;
    else if (Ring)
      Low = static_cast<int>(Opt.Shards) - 1;
    if (K + 1 < Opt.Shards)
      High = static_cast<int>(K) + 1;
    else if (Ring)
      High = 0;
  }

  // Halo fill sequence: Steps * StagesPerStep fills have already run
  // (and, at a barrier, been published) when the solver sits at step
  // count Steps — the invariant the recovery criterion reads.
  uint64_t Seq = static_cast<uint64_t>(S.stepCount()) * StagesPerStep;
  Slot->PubSeq.store(Seq, std::memory_order_relaxed);

  S.setGhostFillHook([&, Low, High](Field<2> &U, double) {
    const uint64_t Sq = Seq;
    const unsigned P = static_cast<unsigned>(Sq % 2);
    if (Ctl->FaultShard.load(std::memory_order_acquire) == K &&
        Ctl->FaultSeq.load(std::memory_order_relaxed) == Sq) {
      // Armed self-kill (tests): disarm in shared memory first so the
      // replacement survives this fill, then die with nothing of it
      // published — a deterministic mid-step crash.
      Ctl->FaultShard.store(ShardNoFault, std::memory_order_release);
      killProcess(getpid());
    }
    // Advance PubSeq *before* the mailbox tags: a crash between the two
    // then reads as "published" and forces the safe global rewind.
    Slot->PubSeq.store(Sq + 1, std::memory_order_release);
    auto Publish = [&](unsigned Side, size_t RowBegin) {
      Cons<2> *Slab = Layout.mailboxSlab(Base, K, Side, P);
      kernels::ConstRun<2> Rn = U.crun(RowBegin * StorageCols);
      for (size_t I = 0; I < SlabCells; ++I)
        Slab[I] = kernels::loadCons<2>(Rn, I);
      Layout.mailbox(Base, K, Side)
          ->SlotSeq[P]
          .store(Sq + 1, std::memory_order_release);
    };
    auto Receive = [&](unsigned Src, unsigned SrcSide, size_t RowBegin) {
      ShardMailbox *M = Layout.mailbox(Base, Src, SrcSide);
      spinThenYieldUntil([&] {
        return M->SlotSeq[P].load(std::memory_order_acquire) == Sq + 1;
      });
      const Cons<2> *Slab = Layout.mailboxSlab(Base, Src, SrcSide, P);
      kernels::Run<2> W = U.run(RowBegin * StorageCols);
      for (size_t I = 0; I < SlabCells; ++I)
        kernels::storeCons<2>(W, I, Slab[I]);
    };
    // Publish both sides before reading either: no cyclic wait, even on
    // the 2-shard ring where both neighbors are the same process.
    if (Low >= 0)
      Publish(/*Side=*/0, /*RowBegin=*/Ng); // first Ng interior rows
    if (High >= 0)
      Publish(/*Side=*/1, /*RowBegin=*/InteriorRows); // last Ng interior
    if (Low >= 0)
      Receive(static_cast<unsigned>(Low), /*SrcSide=*/1, /*RowBegin=*/0);
    if (High >= 0)
      Receive(static_cast<unsigned>(High), /*SrcSide=*/0,
              /*RowBegin=*/Ng + InteriorRows);
    Seq = Sq + 1;
  });

  auto PublishState = [&] {
    Slot->TimeBits.store(shardBits(S.time()), std::memory_order_relaxed);
    Slot->StepsDone.store(S.stepCount(), std::memory_order_relaxed);
  };

  PublishState();
  uint64_t LastSeen = Slot->AckEpoch.load(std::memory_order_acquire);
  Slot->Ready.store(1, std::memory_order_release);

  while (true) {
    spinThenYieldUntil([&] {
      return Ctl->Epoch.load(std::memory_order_acquire) != LastSeen;
    });
    const uint64_t E = Ctl->Epoch.load(std::memory_order_acquire);
    const ShardCmd Cmd =
        static_cast<ShardCmd>(Ctl->Cmd.load(std::memory_order_acquire));
    const uint64_t Payload = Ctl->Payload.load(std::memory_order_acquire);
    switch (Cmd) {
    case ShardCmd::ComputeEv:
      S.computeDt();
      Slot->EvBits.store(shardBits(S.lastMaxEigen()),
                         std::memory_order_relaxed);
      break;
    case ShardCmd::AdvanceDt:
    case ShardCmd::SnapTime:
      S.apply({Cmd == ShardCmd::SnapTime ? StepEntry::Snap : StepEntry::Step,
               shardDouble(Payload)});
      if (Cmd == ShardCmd::AdvanceDt && Store && Opt.CheckpointEvery &&
          S.stepCount() % Opt.CheckpointEvery == 0)
        Store->write(S);
      break;
    case ShardCmd::Export: {
      // Interior rows land at their global offsets, so the export
      // section as a whole is the global row-major interior.
      Cons<2> *Out = Layout.exportInterior(Base);
      for (size_t R = 0; R < InteriorRows; ++R) {
        kernels::ConstRun<2> Rn =
            S.field().crun((Ng + R) * StorageCols + Ng);
        Cons<2> *Dst = Out + (Blocks[K].Begin + R) * Cols;
        for (size_t C = 0; C < Cols; ++C)
          Dst[C] = kernels::loadCons<2>(Rn, C);
      }
      break;
    }
    case ShardCmd::ExportStorage:
      if (Opt.StorageDump)
        S.field().exportTo(Layout.storageDump(Base, K));
      break;
    case ShardCmd::Exit:
      Slot->AckEpoch.store(E, std::memory_order_release);
      return 0;
    case ShardCmd::None:
      break;
    }
    PublishState();
    LastSeen = E;
    Slot->AckEpoch.store(E, std::memory_order_release);
  }
}

//===----------------------------------------------------------------------===//
// Coordinator side
//===----------------------------------------------------------------------===//

bool ShardCoordinator::forkWorker(unsigned K) {
  Layout.slot(Region.data(), K)->Ready.store(0, std::memory_order_release);
  pid_t Pid = spawnProcess([&]() -> int { return workerBody(K); });
  if (Pid < 0)
    return false;
  Pids[K] = Pid;
  return true;
}

bool ShardCoordinator::waitReady(unsigned K) {
  ShardSlot *Slot = Layout.slot(Region.data(), K);
  bool Died = false;
  spinThenYieldUntil([&] {
    if (Slot->Ready.load(std::memory_order_acquire))
      return true;
    if (Pids[K] > 0 && pollExited(Pids[K])) {
      Pids[K] = -1;
      Died = true;
    }
    return Died;
  });
  return !Died;
}

bool ShardCoordinator::start() {
  if (Started || Dead)
    return false;
  const Grid<2> &G = Global.Domain;
  const size_t Rows = G.cells(0), Cols = G.cells(1);
  const unsigned Ng = G.ghost();
  if (Opt.Shards > Rows)
    return false;
  Blocks = rowBlocks(Rows, Opt.Shards);
  if (Opt.Shards > 1)
    for (const RowBlock &B : Blocks)
      if (B.Count < Ng)
        return false; // a halo slab must fit inside one neighbor block
  Ring = Opt.Shards > 1 && rowAxisPeriodic(Global);
  SubProblems.clear();
  for (unsigned K = 0; K < Opt.Shards; ++K) {
    const bool LowHalo = Opt.Shards > 1 && (K > 0 || Ring);
    const bool HighHalo = Opt.Shards > 1 && (K + 1 < Opt.Shards || Ring);
    SubProblems.push_back(shardProblem(Global, Blocks[K], LowHalo, HighHalo));
  }
  std::vector<size_t> BlockRows(Opt.Shards);
  for (unsigned K = 0; K < Opt.Shards; ++K)
    BlockRows[K] = Blocks[K].Count;
  Layout =
      ShardShmLayout(Opt.Shards, Rows, Cols, Ng, Opt.StorageDump, BlockRows);
  Region = ShmRegion::create(Layout.totalBytes());
  if (!Region.valid())
    return false;
  // The anonymous mapping is zero-filled, which is byte-wise exactly the
  // initial protocol state (epoch 0, no acks, empty mailboxes); the
  // placement-news start the atomics' lifetimes formally before any
  // access.  Only the fault word needs a nonzero sentinel.
  Layout.constructAll(Region.data());
  Layout.control(Region.data())
      ->FaultShard.store(ShardNoFault, std::memory_order_relaxed);
  uint64_t Gen = ShardNoResume;
  if (!Opt.CheckpointDir.empty()) {
    // A resume adopts the run id it finds.  A fresh start (or a resume
    // with nothing to resume from) runs under a new id, so recovery never
    // rewinds onto an earlier run's generations, and when it writes
    // generations it claims every store, clearing the earlier run's.
    if (Opt.Resume) {
      RunId = CheckpointStore(shardDir(0), Opt.CheckpointKeep).runId();
      Gen = latestCommonGeneration();
    }
    if (Gen == ShardNoResume) {
      RunId = CheckpointStore::newRunId();
      for (unsigned K = 0; K < Opt.Shards && Opt.CheckpointEvery; ++K)
        if (!CheckpointStore(shardDir(K), Opt.CheckpointKeep)
                 .claim(RunId)
                 .ok())
          return false;
    }
  }
  Pids.assign(Opt.Shards, -1);
  for (unsigned K = 0; K < Opt.Shards; ++K)
    Layout.slot(Region.data(), K)
        ->TargetGen.store(Gen, std::memory_order_relaxed);
  Started = true; // shutdown() must reap whatever start() forked
  for (unsigned K = 0; K < Opt.Shards; ++K)
    if (!forkWorker(K) || !waitReady(K)) {
      Dead = true;
      shutdown();
      return false;
    }
  syncClock();
  History.clear();
  HistoryBase = CurSteps;
  return true;
}

void ShardCoordinator::syncClock() {
  // Every shard advances with the same broadcast dt through the same
  // `Time += Dt` arithmetic, so the clocks are bitwise equal; shard 0
  // speaks for the fleet.
  ShardSlot *Slot = Layout.slot(Region.data(), 0);
  CurTime = shardDouble(Slot->TimeBits.load(std::memory_order_acquire));
  CurSteps =
      static_cast<unsigned>(Slot->StepsDone.load(std::memory_order_acquire));
}

ShardCoordinator::CmdResult ShardCoordinator::command(ShardCmd Cmd,
                                                      uint64_t Payload) {
  if (Dead)
    return CmdResult::Fatal;
  ShardControl *Ctl = Layout.control(Region.data());
  LastCmd = Cmd;
  Ctl->Cmd.store(static_cast<uint32_t>(Cmd), std::memory_order_relaxed);
  Ctl->Payload.store(Payload, std::memory_order_relaxed);
  ++Epoch;
  Ctl->Epoch.store(Epoch, std::memory_order_release);
  return waitAcks();
}

ShardCoordinator::CmdResult ShardCoordinator::waitAcks() {
  for (unsigned K = 0; K < Opt.Shards; ++K) {
    ShardSlot *Slot = Layout.slot(Region.data(), K);
    CmdResult Failed = CmdResult::Done;
    spinThenYieldUntil([&] {
      if (Slot->AckEpoch.load(std::memory_order_acquire) == Epoch)
        return true;
      // Poll every live pid, not just the shard whose ack is awaited: a
      // shard that dies mid-AdvanceDt before publishing its halo slab
      // wedges a *neighbor* inside its mailbox spin, so the ack that
      // never arrives and the pid that died need not be the same shard.
      // (Workers only wait on mailboxes while executing an epoch the
      // coordinator is parked in this loop for, so every wedge window is
      // covered from here.)
      for (unsigned J = 0; J < Opt.Shards; ++J) {
        if (Pids[J] > 0 && pollExited(Pids[J])) {
          Pids[J] = -1;
          Failed = handleDeath(J);
          if (Failed != CmdResult::Done)
            return true;
          // Targeted restart done — the replacement re-drives the epoch
          // (unwedging any waiting neighbors); keep waiting for acks.
        }
      }
      return false;
    });
    if (Failed != CmdResult::Done)
      return Failed;
  }
  return CmdResult::Done;
}

ShardCoordinator::CmdResult ShardCoordinator::handleDeath(unsigned K) {
  ShardSlot *Slot = Layout.slot(Region.data(), K);
  const uint64_t Steps = Slot->StepsDone.load(std::memory_order_acquire);
  const uint64_t Pub = Slot->PubSeq.load(std::memory_order_acquire);
  const uint64_t Acked = Slot->AckEpoch.load(std::memory_order_acquire);
  // Targeted restart needs three proofs: the victim died at a step
  // barrier (nothing of an in-flight step was published into the
  // mailboxes), its own store holds a checkpoint at exactly that step
  // count, and no clock snap landed after that checkpoint was written —
  // a checkpoint stores the post-step clock, so a later SnapTime
  // (recorded in the replay log, or the in-flight command the victim
  // already completed) would leave the replacement on the pre-snap clock
  // while the survivors run the snapped one, diverging time-dependent
  // boundaries.  Then the replacement resumes bit-identically and the
  // neighbors — parked in their mailbox spins — never notice beyond the
  // wait.
  const bool AtBarrier = Pub == Steps * StagesPerStep;
  const bool HasCheckpoint =
      !Opt.CheckpointDir.empty() && latestGeneration(K) == Steps;
  const bool SnappedSince =
      snapRecordedAfter(Steps) ||
      (LastCmd == ShardCmd::SnapTime && Acked == Epoch);
  if (AtBarrier && HasCheckpoint && !SnappedSince) {
    ++Restarts;
    // If the victim already finished this epoch's work (it acked, or it
    // completed the AdvanceDt step and died before acking), the
    // replacement must not run it again — preset the ack.
    const bool Completed =
        Acked == Epoch ||
        (LastCmd == ShardCmd::AdvanceDt &&
         Steps == static_cast<uint64_t>(CurSteps) + 1);
    Slot->TargetGen.store(Steps, std::memory_order_relaxed);
    Slot->AckEpoch.store(Completed ? Epoch : Epoch - 1,
                         std::memory_order_release);
    if (forkWorker(K) && waitReady(K))
      return CmdResult::Done;
  }
  return globalRestart();
}

ShardCoordinator::CmdResult ShardCoordinator::globalRestart() {
  ++FullRestarts;
  for (pid_t &Pid : Pids) {
    killProcess(Pid);
    if (Pid > 0)
      waitExit(Pid);
    Pid = -1;
  }
  // Rewind to the newest generation every shard can load; with no common
  // generation (or no durability at all) replay restarts from the
  // initial state — either way replayHistory re-issues the logged step
  // entries and lands on the same bitwise state.
  const uint64_t Gen =
      Opt.CheckpointDir.empty() ? ShardNoResume : latestCommonGeneration();
  Layout.resetMailboxes(Region.data());
  for (unsigned K = 0; K < Opt.Shards; ++K) {
    ShardSlot *Slot = Layout.slot(Region.data(), K);
    Slot->TargetGen.store(Gen, std::memory_order_relaxed);
    Slot->PubSeq.store(0, std::memory_order_relaxed);
    Slot->StepsDone.store(0, std::memory_order_relaxed);
    Slot->TimeBits.store(0, std::memory_order_relaxed);
    // The abandoned epoch is not re-executed as-is; the callers replay
    // the recorded stream and then re-issue the interrupted command.
    Slot->AckEpoch.store(Epoch, std::memory_order_release);
  }
  for (unsigned K = 0; K < Opt.Shards; ++K)
    if (!forkWorker(K) || !waitReady(K)) {
      Dead = true;
      return CmdResult::Fatal;
    }
  syncClock();
  return CmdResult::Rewound;
}

bool ShardCoordinator::runCommand(ShardCmd Cmd, uint64_t Payload) {
  if (!Started)
    return false;
  const unsigned PreSteps = CurSteps;
  while (true) {
    CmdResult R = command(Cmd, Payload);
    if (R == CmdResult::Fatal)
      return false;
    if (R == CmdResult::Done)
      return true;
    // Rewound: replay the log back to the pre-command state, then
    // re-issue the command (re-applying a snap is idempotent).
    if (!replayHistory())
      return false;
    // A rewind can absorb an in-flight step: when every shard
    // checkpointed the new step before the death, the rewind target
    // already contains it and re-running it would double-step.
    if (Cmd == ShardCmd::AdvanceDt && CurSteps > PreSteps)
      return true;
  }
}

bool ShardCoordinator::stepToward(double EndTime) {
  // The CFL callback is the fleet's GetDT: one ComputeEv epoch, then the
  // shard-order max reduction — max is exact under any grouping, so it
  // equals the global GetDT maximum bit for bit.  nextStep calls it only
  // for a step, so a snap costs one epoch and a step exactly two.
  bool Ok = true;
  const StepEntry E = nextStep(CurTime, EndTime, [&] {
    Ok = runCommand(ShardCmd::ComputeEv, 0);
    double EvMax = 0.0;
    for (unsigned K = 0; K < Opt.Shards; ++K)
      EvMax = std::max(
          EvMax, shardDouble(Layout.slot(Region.data(), K)
                                 ->EvBits.load(std::memory_order_acquire)));
    return Opt.Scheme.dtFromMaxEigen(EvMax);
  });
  if (!Ok || !runCommand(entryCmd(E), shardBits(E.Value)))
    return false;
  // The committed entry joins the replay log exactly as broadcast.
  History.push_back(E);
  syncClock();
  return true;
}

bool ShardCoordinator::advanceSteps(unsigned N) {
  if (!Started || Dead)
    return false;
  const uint64_t Target = static_cast<uint64_t>(CurSteps) + N;
  while (CurSteps < Target)
    if (!stepToward(std::numeric_limits<double>::infinity()))
      return false;
  return true;
}

bool ShardCoordinator::advanceTo(double EndTime) {
  if (!Started || Dead)
    return false;
  while (CurTime < EndTime)
    if (!stepToward(EndTime))
      return false;
  return true;
}

bool ShardCoordinator::replayHistory() {
  // After a rewind the fleet sits at some checkpoint generation (or the
  // initial state); re-issue the logged step entries from that point,
  // verbatim — every step's exact dt (advanceTo clamps included) and
  // every clock snap, with no arithmetic of the replay's own.
  for (bool Again = true; Again;) {
    Again = false;
    // Skip the entries the rewind target already contains: everything up
    // to and including the step that produced step count CurSteps
    // (checkpoints are written inside that command, so a snap logged
    // after it is *not* in the checkpoint and must be replayed).
    size_t Pos = 0;
    for (uint64_t Steps = HistoryBase;
         Pos < History.size() && Steps < CurSteps; ++Pos)
      if (!History[Pos].isSnap())
        ++Steps;
    for (; Pos < History.size(); ++Pos) {
      CmdResult R =
          command(entryCmd(History[Pos]), shardBits(History[Pos].Value));
      if (R == CmdResult::Fatal)
        return false;
      if (R == CmdResult::Rewound) {
        Again = true; // a second death mid-replay: rewind again
        break;
      }
      syncClock();
    }
  }
  return true;
}

bool ShardCoordinator::snapRecordedAfter(uint64_t Steps) const {
  uint64_t S = HistoryBase;
  for (const StepEntry &E : History) {
    if (!E.isSnap())
      ++S;
    else if (S >= Steps)
      return true; // snap applied at or after the checkpoint write
  }
  return false;
}

uint64_t ShardCoordinator::stateHash() {
  if (!runCommand(ShardCmd::Export, 0))
    return 0;
  const Grid<2> &G = Global.Domain;
  return fieldStateHash<2>(Layout.exportInterior(Region.data()),
                           G.cells(0) * G.cells(1), CurSteps, CurTime);
}

bool ShardCoordinator::stitchInterior(std::vector<Cons<2>> &Out) {
  if (!runCommand(ShardCmd::Export, 0))
    return false;
  const Grid<2> &G = Global.Domain;
  const Cons<2> *In = Layout.exportInterior(Region.data());
  Out.assign(In, In + G.cells(0) * G.cells(1));
  return true;
}

bool ShardCoordinator::exportShardStorage(unsigned K,
                                          std::vector<Cons<2>> &Out) {
  if (!Opt.StorageDump || K >= Opt.Shards)
    return false;
  if (!runCommand(ShardCmd::ExportStorage, 0))
    return false;
  const Grid<2> &G = Global.Domain;
  const unsigned Ng = G.ghost();
  const size_t Count = (Blocks[K].Count + 2 * Ng) * (G.cells(1) + 2 * Ng);
  const Cons<2> *In = Layout.storageDump(Region.data(), K);
  Out.assign(In, In + Count);
  return true;
}

void ShardCoordinator::killShard(unsigned K) {
  if (Started && K < Pids.size())
    killProcess(Pids[K]); // next command's ack wait detects the death
}

void ShardCoordinator::killShardAtFill(unsigned K, uint64_t FillSeq) {
  if (!Started || K >= Opt.Shards)
    return;
  ShardControl *Ctl = Layout.control(Region.data());
  Ctl->FaultSeq.store(FillSeq, std::memory_order_relaxed);
  Ctl->FaultShard.store(K, std::memory_order_release);
}

void ShardCoordinator::shutdown() {
  if (!Started)
    return;
  if (!Dead) {
    // Every live worker is parked at the epoch spin between commands, so
    // a clean Exit broadcast reaches them all.
    ShardControl *Ctl = Layout.control(Region.data());
    LastCmd = ShardCmd::Exit;
    Ctl->Cmd.store(static_cast<uint32_t>(ShardCmd::Exit),
                   std::memory_order_relaxed);
    Ctl->Payload.store(0, std::memory_order_relaxed);
    ++Epoch;
    Ctl->Epoch.store(Epoch, std::memory_order_release);
  } else {
    // A fatal run can leave workers wedged inside mailbox spins; only
    // SIGKILL gets them out.
    for (pid_t Pid : Pids)
      killProcess(Pid);
  }
  for (pid_t &Pid : Pids) {
    if (Pid > 0)
      waitExit(Pid);
    Pid = -1;
  }
  Started = false;
}

} // namespace sacfd
