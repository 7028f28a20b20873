//===- shard/ShardShm.h - Shared-memory layout of a shard run ---*- C++ -*-===//
//
// Part of SacFD, a reproduction of "Numerical Simulations of Unsteady Shock
// Wave Interactions Using SaC and Fortran-90" (PaCT 2009).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one shared mapping a shard run lives in, created by the
/// coordinator before forking so every worker inherits it.  Sections:
///
///   ShardControl   the coordinator's command broadcast: it writes Cmd
///                  and Payload, then publishes by bumping Epoch
///                  (release); workers acquire Epoch and ack per slot.
///   ShardSlot[N]   per-worker state the coordinator reads back: ack
///                  epoch, GetDT max eigenvalue, clock, step count, halo
///                  publish progress, and the resume-target generation
///                  the worker loads at startup.
///   Mailboxes      2 per shard (low/high side), each double-buffered:
///                  two per-slot sequence tags plus two halo slabs of
///                  Ng full-width storage rows.  The writer fills slot
///                  seq%2 and release-stores seq+1 into its tag; the
///                  reader acquire-spins for the exact tag — no per-step
///                  syscalls, and the two-deep pipeline bound (a writer
///                  reaches seq+2 only after its reader published seq+1,
///                  which happens after that reader consumed seq) means
///                  a slab is never overwritten while being read.
///   Export         the stitched global interior (row-major), written on
///                  the Export command; the concatenation of the shard
///                  interiors in shard order *is* global row-major order,
///                  so the coordinator hashes it sequentially.
///   Storage dump   (optional, tests only) per-shard full-storage copies
///                  so the halo suite can compare ghost rows bit for bit
///                  against a single-process reference.
///
//===----------------------------------------------------------------------===//

#ifndef SACFD_SHARD_SHARDSHM_H
#define SACFD_SHARD_SHARDSHM_H

#include "euler/State.h"

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <vector>

namespace sacfd {

/// Commands the coordinator broadcasts; workers execute in lockstep.
enum class ShardCmd : uint32_t {
  None = 0,
  /// Run GetDT on the local block; publish the max eigenvalue.
  ComputeEv,
  /// A StepEntry::Step (Payload = dt bits): every worker runs it through
  /// EulerSolver::apply, then checkpoints when the cadence hits.
  AdvanceDt,
  /// A StepEntry::Snap (Payload = end-time bits): every worker moves its
  /// clock there through EulerSolver::apply (restoreClock, no step).
  SnapTime,
  /// Copy the local interior into the export section.
  Export,
  /// Copy the full local storage (ghosts included) into the debug
  /// storage section.
  ExportStorage,
  /// Leave the worker loop and exit cleanly.
  Exit,
};

/// Sentinel for ShardSlot::TargetGen: start fresh, do not resume.
constexpr uint64_t ShardNoResume = ~uint64_t(0);

/// Sentinel for ShardControl::FaultShard: no self-kill armed.
constexpr uint32_t ShardNoFault = ~uint32_t(0);

/// Coordinator -> workers broadcast block.
struct alignas(64) ShardControl {
  std::atomic<uint64_t> Epoch;
  std::atomic<uint32_t> Cmd;
  std::atomic<uint64_t> Payload;
  /// Fault injection (tests): the worker whose index matches SIGKILLs
  /// itself at the top of halo fill FaultSeq, before publishing anything
  /// of that fill — a deterministic mid-step death.  One-shot: the
  /// victim disarms the word (back to ShardNoFault) before dying, so its
  /// replacement survives the same fill.
  std::atomic<uint32_t> FaultShard;
  std::atomic<uint64_t> FaultSeq;
};

/// One worker's state block (worker -> coordinator, plus the resume
/// target the coordinator presets before forking that worker).
struct alignas(64) ShardSlot {
  /// 1 once the worker finished startup (solver built, state published).
  std::atomic<uint64_t> Ready;
  /// Last epoch this worker completed.
  std::atomic<uint64_t> AckEpoch;
  /// GetDT max eigenvalue of the local block (bit pattern).
  std::atomic<uint64_t> EvBits;
  /// Solver clock (bit pattern) after the last completed command.
  std::atomic<uint64_t> TimeBits;
  /// Solver step count after the last completed command.
  std::atomic<uint64_t> StepsDone;
  /// Last published halo sequence + 1 (0 = nothing published).  The
  /// recovery path reads this to prove a dead worker never published
  /// anything of an in-flight step.
  std::atomic<uint64_t> PubSeq;
  /// Checkpoint generation (step count) to load at startup, or
  /// ShardNoResume for a fresh start.
  std::atomic<uint64_t> TargetGen;
};

/// Double-buffered mailbox handshake words; the slabs follow inline.
struct alignas(64) ShardMailbox {
  /// SlotSeq[p] holds 1 + the last sequence published into slab p; a
  /// reader of sequence s acquire-spins until SlotSeq[s % 2] == s + 1.
  std::atomic<uint64_t> SlotSeq[2];
};

/// Byte layout of the shared mapping for one shard run.  Pure geometry —
/// all offsets are precomputed so coordinator and workers address the
/// same bytes through their inherited mapping.
class ShardShmLayout {
public:
  ShardShmLayout() = default;

  /// \p Shards row blocks over \p GlobalRows x \p Cols interior cells
  /// with \p Ng ghost layers; \p WithStorageDump reserves the per-shard
  /// full-storage debug section (tests only).
  ShardShmLayout(unsigned Shards, size_t GlobalRows, size_t Cols,
                 unsigned Ng, bool WithStorageDump,
                 const std::vector<size_t> &BlockRows) {
    NumShards = Shards;
    SlabCellCount = static_cast<size_t>(Ng) * (Cols + 2 * Ng);
    size_t Off = 0;
    ControlOff = take(Off, sizeof(ShardControl));
    SlotsOff = take(Off, sizeof(ShardSlot) * Shards);
    MailboxStride =
        align(sizeof(ShardMailbox) + 2 * SlabCellCount * sizeof(Cons<2>));
    MailboxesOff = take(Off, MailboxStride * 2 * Shards);
    ExportOff = take(Off, GlobalRows * Cols * sizeof(Cons<2>));
    StorageOffs.resize(Shards, 0);
    if (WithStorageDump)
      for (unsigned K = 0; K < Shards; ++K)
        StorageOffs[K] =
            take(Off, (BlockRows[K] + 2 * Ng) * (Cols + 2 * Ng) *
                          sizeof(Cons<2>));
    Total = Off;
  }

  size_t totalBytes() const { return Total; }
  size_t slabCells() const { return SlabCellCount; }

  ShardControl *control(void *Base) const {
    return at<ShardControl>(Base, ControlOff);
  }
  ShardSlot *slot(void *Base, unsigned K) const {
    return at<ShardSlot>(Base, SlotsOff + sizeof(ShardSlot) * K);
  }
  /// Shard \p K's outgoing mailbox on \p Side (0 low, 1 high).
  ShardMailbox *mailbox(void *Base, unsigned K, unsigned Side) const {
    return at<ShardMailbox>(Base, mailboxOff(K, Side));
  }
  /// Slab \p Parity (seq % 2) of the same mailbox.
  Cons<2> *mailboxSlab(void *Base, unsigned K, unsigned Side,
                       unsigned Parity) const {
    return at<Cons<2>>(Base, mailboxOff(K, Side) + sizeof(ShardMailbox) +
                                 Parity * SlabCellCount * sizeof(Cons<2>));
  }
  /// The stitched global interior (GlobalRows x Cols, row-major).
  Cons<2> *exportInterior(void *Base) const {
    return at<Cons<2>>(Base, ExportOff);
  }
  /// Shard \p K's full-storage debug dump (layout must have been built
  /// WithStorageDump).
  Cons<2> *storageDump(void *Base, unsigned K) const {
    return at<Cons<2>>(Base, StorageOffs[K]);
  }

  /// Constructs the control, slot and mailbox objects in place.  The
  /// fresh mapping is already zero-filled and std::atomic value-init is
  /// byte-wise that same zero state, so this writes nothing new — it
  /// exists to start the objects' lifetimes formally before coordinator
  /// and workers access them through the mapping.
  void constructAll(void *Base) const {
    new (control(Base)) ShardControl();
    for (unsigned K = 0; K < NumShards; ++K) {
      new (slot(Base, K)) ShardSlot();
      for (unsigned Side = 0; Side < 2; ++Side)
        new (mailbox(Base, K, Side)) ShardMailbox();
    }
  }

  /// Clears every mailbox tag and slab (all workers must be dead): the
  /// global-restart path republishes from the rewound state.
  void resetMailboxes(void *Base) const {
    std::memset(static_cast<char *>(Base) + MailboxesOff, 0,
                MailboxStride * 2 * NumShards);
    for (unsigned K = 0; K < NumShards; ++K)
      for (unsigned Side = 0; Side < 2; ++Side)
        new (mailbox(Base, K, Side)) ShardMailbox();
  }

private:
  static size_t align(size_t N) { return (N + 63) & ~size_t(63); }
  static size_t take(size_t &Off, size_t Bytes) {
    size_t At = Off;
    Off = align(Off + Bytes);
    return At;
  }
  size_t mailboxOff(unsigned K, unsigned Side) const {
    return MailboxesOff + MailboxStride * (2 * K + Side);
  }
  template <typename T> static T *at(void *Base, size_t Off) {
    return reinterpret_cast<T *>(static_cast<char *>(Base) + Off);
  }

  unsigned NumShards = 0;
  size_t SlabCellCount = 0;
  size_t ControlOff = 0, SlotsOff = 0, MailboxesOff = 0, ExportOff = 0;
  size_t MailboxStride = 0;
  size_t Total = 0;
  std::vector<size_t> StorageOffs;
};

/// double <-> bit-pattern helpers for the shm words.
inline uint64_t shardBits(double V) {
  uint64_t B;
  std::memcpy(&B, &V, sizeof(B));
  return B;
}
inline double shardDouble(uint64_t B) {
  double V;
  std::memcpy(&V, &B, sizeof(V));
  return V;
}

} // namespace sacfd

#endif // SACFD_SHARD_SHARDSHM_H
