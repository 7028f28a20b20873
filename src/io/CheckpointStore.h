//===- io/CheckpointStore.h - Rotated checkpoint generations ---*- C++ -*-===//
//
// Part of SacFD, a reproduction of "Numerical Simulations of Unsteady Shock
// Wave Interactions Using SaC and Fortran-90" (PaCT 2009).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A directory of rotated checkpoint generations with crash-tolerant
/// discovery — the durability layer behind --checkpoint-dir / --resume.
///
/// Layout: one file per generation, named `ckpt-<steps, 8 digits>.sacfd`,
/// plus a `manifest.txt` listing the kept generations newest-first.  Both
/// the generation files and the manifest are written through the atomic
/// tmp → fsync → rename path of io/Checkpoint, so a crash at any
/// instant leaves either the old or the new bytes under every name,
/// never a torn file.
///
/// The manifest records the rotation state, but discovery never trusts
/// it alone: generations() unions the manifest with a directory scan, so
/// a crash between "rename checkpoint into place" and "update manifest"
/// cannot hide the newest generation, and a stale manifest entry whose
/// file was pruned is ignored.
///
/// resume() walks the generations newest-first and falls back across
/// corrupt, torn, or mismatched files, reporting every skipped
/// generation with its precise CheckpointError — the recovery behavior
/// the fault-injection tests pin down.
///
/// Run ids: a fresh run claim()s the store, which deletes every
/// generation an earlier run left behind and stamps the manifest with
/// the new run's id from its first write on.  Without the claim, an
/// earlier, longer run's newer generations would shadow the fresh run's
/// own in discovery.  A resumed run adopt()s the id it finds instead.
///
//===----------------------------------------------------------------------===//

#ifndef SACFD_IO_CHECKPOINTSTORE_H
#define SACFD_IO_CHECKPOINTSTORE_H

#include "io/Checkpoint.h"

#include <string>
#include <utility>
#include <vector>

namespace sacfd {

/// A rotated set of checkpoint generations in one directory.
class CheckpointStore {
public:
  /// \p Keep is the number of generations retained by rotation (at least
  /// 1).  The directory is created (recursively) on the first write.
  explicit CheckpointStore(std::string Dir, unsigned Keep = 3,
                           RetryPolicy Retry = {});

  const std::string &dir() const { return Root; }
  unsigned keep() const { return Keep; }

  /// One discovered generation.
  struct Generation {
    unsigned Steps = 0;
    std::string Path;
  };

  /// Writes the solver state as generation `stepCount()` (atomically,
  /// with bounded retry on transient write failures), then rotates: old
  /// generations beyond keep() are deleted and the manifest is rewritten.
  /// A WriteFailed status with a "manifest" detail means the checkpoint
  /// itself is durably on disk but the manifest update failed.
  template <unsigned Dim> CheckpointStatus write(const EulerSolver<Dim> &S);

  /// What resume() did.
  struct ResumeOutcome {
    /// None when a generation loaded; NotFound when the store is empty;
    /// otherwise the newest generation's error (all generations failed).
    CheckpointStatus Status;
    std::string LoadedPath;
    unsigned LoadedSteps = 0;
    /// Generations that failed to load before the one that succeeded,
    /// newest first, each with its precise error.
    std::vector<std::pair<std::string, CheckpointStatus>> Skipped;

    bool resumed() const { return Status.ok() && !LoadedPath.empty(); }
  };

  /// Restores the newest loadable generation into \p S, falling back
  /// across corrupt or torn generations (each recorded in Skipped).
  template <unsigned Dim> ResumeOutcome resume(EulerSolver<Dim> &S);

  /// All discovered generations, newest first (manifest ∪ directory
  /// scan, existing files only).
  std::vector<Generation> generations() const;

  /// The run id stamped in the manifest; empty when there is no manifest
  /// or it carries no stamp (stores written before run ids existed).
  std::string runId() const;

  /// Starts a fresh run \p Id in this store: deletes every generation
  /// file and the manifest (files not named like ours are never
  /// touched), and stamps \p Id into every manifest this object writes.
  CheckpointStatus claim(std::string Id);

  /// Continues run \p Id (a resume): stamps it into every manifest this
  /// object writes, deleting nothing.
  void adopt(std::string Id) { RunId = std::move(Id); }

  /// A new run id, unique across processes and time: pid, wall clock
  /// and a random nonce, in hex.
  static std::string newRunId();

  std::string manifestPath() const;

  /// "ckpt-00001234.sacfd" for step 1234.
  static std::string generationFileName(unsigned Steps);

private:
  CheckpointStatus ensureDir();
  /// Prunes generations beyond keep() and rewrites the manifest.
  CheckpointStatus rotate();
  /// Deletes staging leftovers (a generation's or the manifest's `.tmp`)
  /// abandoned by a crash mid-write.  Runs on the write and resume
  /// paths; foreign files in the directory are never touched.
  void sweepOrphanedTmp();

  std::string Root;
  unsigned Keep;
  RetryPolicy Retry;
  /// Stamped into every manifest this object writes (none when empty).
  std::string RunId;
};

extern template CheckpointStatus
CheckpointStore::write<1>(const EulerSolver<1> &);
extern template CheckpointStatus
CheckpointStore::write<2>(const EulerSolver<2> &);
extern template CheckpointStatus
CheckpointStore::write<3>(const EulerSolver<3> &);
extern template CheckpointStore::ResumeOutcome
CheckpointStore::resume<1>(EulerSolver<1> &);
extern template CheckpointStore::ResumeOutcome
CheckpointStore::resume<2>(EulerSolver<2> &);
extern template CheckpointStore::ResumeOutcome
CheckpointStore::resume<3>(EulerSolver<3> &);

} // namespace sacfd

#endif // SACFD_IO_CHECKPOINTSTORE_H
