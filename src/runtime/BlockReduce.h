//===- runtime/BlockReduce.h - Deterministic block reduction ---*- C++ -*-===//
//
// Part of SacFD, a reproduction of "Numerical Simulations of Unsteady Shock
// Wave Interactions Using SaC and Fortran-90" (PaCT 2009).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A deterministic parallel reduction over an index range.
///
/// The range [0, N) is split into min(workerCount, N) contiguous blocks;
/// each block is folded independently (in parallel through the Backend)
/// and the per-block partials are merged serially in block order.  For a
/// fixed worker count the block boundaries — and therefore the merge
/// order — are independent of the schedule, so floating-point results are
/// reproducible run to run.  This is the same discipline the engines use
/// for their GetDT reductions; BlockReduce packages it for consumers that
/// fold arbitrary state (the step guard's floor pass sums the cells it
/// clamped).  The interior health pass (EulerSolver::summarize) does not
/// use it: its sums must not depend on the worker count, so it folds one
/// partial per axis-0 slab instead of one per worker.
///
//===----------------------------------------------------------------------===//

#ifndef SACFD_RUNTIME_BLOCKREDUCE_H
#define SACFD_RUNTIME_BLOCKREDUCE_H

#include "runtime/Backend.h"
#include "support/InlinePartials.h"

#include <algorithm>
#include <utility>

namespace sacfd {

/// Folds [0, N) into a single value of type \p T.
///
/// \p Fold is called once per block with its sub-range [Lo, Hi) and must
/// return that block's partial (it must not touch shared state).  \p
/// MergeFn combines two partials left-to-right; it is applied serially in
/// ascending block order, so the reduction is deterministic for a fixed
/// worker count even with non-associative merges (floating-point min/max
/// chains, capped list concatenation).
template <typename T, typename FoldBlock, typename Merge>
T blockReduce(size_t N, Backend &Exec, T Identity, FoldBlock Fold,
              Merge MergeFn) {
  if (N == 0)
    return Identity;

  size_t Blocks = std::min<size_t>(Exec.workerCount(), N);
  InlinePartials<T> Partials(Blocks, Identity);

  // Block b covers [Lo, Lo + Len): the first (N % Blocks) blocks are one
  // element longer, so the partition depends only on N and Blocks.
  size_t Base = N / Blocks;
  size_t Extra = N % Blocks;
  Exec.parallelFor(0, Blocks, [&](size_t BB, size_t BE) {
    for (size_t Block = BB; Block != BE; ++Block) {
      size_t Lo = Block * Base + std::min(Block, Extra);
      size_t Len = Base + (Block < Extra ? 1 : 0);
      Partials[Block] = Fold(Lo, Lo + Len);
    }
  });

  T Result = std::move(Partials.front());
  for (size_t I = 1; I < Partials.size(); ++I)
    Result = MergeFn(std::move(Result), std::move(Partials[I]));
  return Result;
}

/// Folds the (Rows x Cols) rectangle into a single value of type \p T.
///
/// \p Fold is called once per sub-rectangle (RowBegin, RowEnd, ColBegin,
/// ColEnd) and must return that rectangle's partial.  Under a tiled
/// backend the sub-rectangles are the TileGrid's tiles and partials merge
/// in tile order — a decomposition independent of the worker count, so
/// tiled reductions are reproducible at any parallelism level.  Without
/// tiling the legacy discipline applies: min(workerCount, Rows) row bands,
/// each spanning every column, merged in band order.
template <typename T, typename FoldRect, typename Merge>
T blockReduce2D(size_t Rows, size_t Cols, Backend &Exec, T Identity,
                FoldRect Fold, Merge MergeFn) {
  if (Rows == 0 || Cols == 0)
    return Identity;

  if (Exec.tile().Enabled) {
    TileGrid G(Rows, Cols, Exec.tile());
    InlinePartials<T> Partials(G.count(), Identity);
    Exec.parallelFor(0, G.count(), [&](size_t TB, size_t TE) {
      for (size_t Tl = TB; Tl != TE; ++Tl) {
        TileRect R = G.rect(Tl);
        Partials[Tl] = Fold(R.RowBegin, R.RowEnd, R.ColBegin, R.ColEnd);
      }
    });
    T Result = std::move(Partials.front());
    for (size_t I = 1; I < Partials.size(); ++I)
      Result = MergeFn(std::move(Result), std::move(Partials[I]));
    return Result;
  }

  return blockReduce<T>(
      Rows, Exec, Identity,
      [&](size_t Lo, size_t Hi) { return Fold(Lo, Hi, 0, Cols); },
      MergeFn);
}

} // namespace sacfd

#endif // SACFD_RUNTIME_BLOCKREDUCE_H
