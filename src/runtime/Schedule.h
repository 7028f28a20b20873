//===- runtime/Schedule.h - Loop iteration scheduling policies -*- C++ -*-===//
//
// Part of SacFD, a reproduction of "Numerical Simulations of Unsteady Shock
// Wave Interactions Using SaC and Fortran-90" (PaCT 2009).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Iteration-space partitioning policies for the parallel backends.
///
/// The paper's Fortran runs were tuned through OMP_SCHEDULE (STATIC won);
/// Schedule reproduces that knob for the fork-join backend so the A2
/// ablation can measure static vs dynamic chunking the way the authors did.
///
/// Tile extends the same idea to rank-2 iteration spaces: the Fig. 4
/// workload is a 2D stencil, and carving it into cache-sized tiles — dealt
/// to workers under a Schedule of their own — is the knob
/// Backend::parallelFor2D exposes.  TileGrid resolves a Tile against a
/// concrete (Rows, Cols) space; its tile order is row-major and depends
/// only on the extents and the tile dimensions, never on the worker count,
/// which is what keeps tile-ordered reductions deterministic.
///
//===----------------------------------------------------------------------===//

#ifndef SACFD_RUNTIME_SCHEDULE_H
#define SACFD_RUNTIME_SCHEDULE_H

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace sacfd {

/// Outcome of parsing a user-supplied spec string: either the parsed
/// value or a structured error naming what was wrong with the input.
/// Callers surface Error verbatim — no silent fallback to a default.
template <typename T> struct SpecParse {
  std::optional<T> Value;
  std::string Error;

  explicit operator bool() const { return Value.has_value(); }

  static SpecParse ok(T V) { return {std::move(V), {}}; }
  static SpecParse fail(std::string Message) {
    return {std::nullopt, std::move(Message)};
  }
};

/// How a [Begin, End) iteration range is carved into worker chunks.
struct Schedule {
  enum class Kind {
    /// One contiguous block per worker (OpenMP `static` without chunk).
    StaticBlock,
    /// Fixed-size chunks dealt round-robin (OpenMP `static,chunk`).
    StaticChunk,
    /// Workers grab chunks from a shared counter (OpenMP `dynamic`).
    Dynamic,
  };

  Kind K = Kind::StaticBlock;
  /// Chunk size for StaticChunk/Dynamic; 0 selects an automatic size.
  size_t ChunkSize = 0;

  static Schedule staticBlock() { return {Kind::StaticBlock, 0}; }
  static Schedule staticChunk(size_t Chunk) {
    return {Kind::StaticChunk, Chunk};
  }
  static Schedule dynamic(size_t Chunk = 0) { return {Kind::Dynamic, Chunk}; }

  /// Parses "static", "static,N", "dynamic", "dynamic,N" (the OMP_SCHEDULE
  /// grammar), reporting malformed input with a structured error.
  static SpecParse<Schedule> parseSpec(std::string_view Text);

  /// Convenience wrapper over parseSpec() for callers that only need the
  /// accept/reject outcome.  \returns nullopt on malformed input.
  static std::optional<Schedule> parse(std::string_view Text) {
    return parseSpec(Text).Value;
  }

  /// \returns a human-readable form, e.g. "static" or "dynamic,16".
  std::string str() const;

  /// Chunk size actually used for an \p N-iteration loop on \p Workers
  /// workers (resolves the automatic size).
  size_t resolvedChunk(size_t N, unsigned Workers) const;
};

/// A contiguous sub-range of a parallel loop assigned to one worker visit.
struct IterationChunk {
  size_t Begin;
  size_t End;
};

/// Computes the static partition of [0, N) for \p Workers workers under
/// \p Sched.  Entry I holds the chunks worker I must execute, in order.
/// Dynamic schedules have no static partition; calling this with one is a
/// programmatic error.
std::vector<std::vector<IterationChunk>>
staticPartition(size_t N, unsigned Workers, const Schedule &Sched);

/// Tiling policy for rank-2 iteration spaces (Backend::parallelFor2D).
///
/// Disabled is the legacy behavior: 2D loops are flattened into row
/// ranges exactly as before the 2D API existed.  Enabled carves the
/// (Rows, Cols) space into Rows x Cols tiles of the given dimensions
/// (0 = resolve an automatic cache-friendly size).  The row-major tile
/// range is then dealt to workers by the backend's own 1D partitioner,
/// under its Schedule where it honors one (fork-join):
/// `--tile RxC --schedule dynamic` deals tiles dynamically.
struct Tile {
  bool Enabled = false;
  /// Tile height (rows) and width (cols); 0 = automatic.
  size_t Rows = 0;
  size_t Cols = 0;

  static Tile off() { return {}; }
  static Tile automatic() {
    Tile T;
    T.Enabled = true;
    return T;
  }
  static Tile sized(size_t Rows, size_t Cols) {
    Tile T;
    T.Enabled = true;
    T.Rows = Rows;
    T.Cols = Cols;
    return T;
  }

  /// Parses "off", "auto", "RxC" (e.g. "32x128"), or "N" (NxN tiles),
  /// reporting malformed input with a structured error.
  static SpecParse<Tile> parseSpec(std::string_view Text);

  /// \returns "off", "auto", or "RxC" (the parseSpec grammar).
  std::string str() const;
};

/// One tile of a 2D iteration space: rows [RowBegin, RowEnd) x cols
/// [ColBegin, ColEnd).
struct TileRect {
  size_t RowBegin;
  size_t RowEnd;
  size_t ColBegin;
  size_t ColEnd;
};

/// The tile decomposition of a concrete (Rows x Cols) iteration space.
///
/// Tiles are numbered row-major: tile T covers tile-row T / colTiles()
/// and tile-column T % colTiles().  The decomposition depends only on
/// the extents and the (resolved) tile dimensions — not on the worker
/// count or the schedule — so anything keyed by tile index
/// (per-tile reduction partials, most importantly) is reproducible at
/// any parallelism level.
class TileGrid {
public:
  /// Resolves \p T against the space: automatic dimensions become
  /// DefaultTileRows/DefaultTileCols clamped into the extents.
  TileGrid(size_t Rows, size_t Cols, const Tile &T);

  /// Automatic tile height: a band tall enough to amortize dispatch.
  static constexpr size_t DefaultTileRows = 32;
  /// Automatic tile width: a contiguous run long enough to stream well
  /// (the last axis is the contiguous one in row-major storage).
  static constexpr size_t DefaultTileCols = 128;

  size_t rows() const { return Rows; }
  size_t cols() const { return Cols; }
  size_t tileRows() const { return TileR; }
  size_t tileCols() const { return TileC; }
  size_t rowTiles() const { return RowTiles; }
  size_t colTiles() const { return ColTiles; }

  /// Total number of tiles.
  size_t count() const { return RowTiles * ColTiles; }

  /// The extent of tile \p T (row-major tile numbering); edge tiles are
  /// clipped to the space.
  TileRect rect(size_t T) const;

private:
  size_t Rows;
  size_t Cols;
  size_t TileR = 1;
  size_t TileC = 1;
  size_t RowTiles = 0;
  size_t ColTiles = 0;
};

} // namespace sacfd

#endif // SACFD_RUNTIME_SCHEDULE_H
