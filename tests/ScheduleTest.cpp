//===- tests/ScheduleTest.cpp - runtime/Schedule unit tests ---------------===//

#include "runtime/Schedule.h"

#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <utility>
#include <vector>

using namespace sacfd;

TEST(ScheduleParse, AcceptsOmpScheduleGrammar) {
  EXPECT_EQ(Schedule::parse("static")->K, Schedule::Kind::StaticBlock);
  EXPECT_EQ(Schedule::parse("STATIC")->K, Schedule::Kind::StaticBlock);

  Schedule SC = Schedule::parse("static,16").value();
  EXPECT_EQ(SC.K, Schedule::Kind::StaticChunk);
  EXPECT_EQ(SC.ChunkSize, 16u);

  Schedule Dyn = Schedule::parse("dynamic").value();
  EXPECT_EQ(Dyn.K, Schedule::Kind::Dynamic);
  EXPECT_EQ(Dyn.ChunkSize, 0u);

  Schedule DynC = Schedule::parse(" dynamic , 4 ").value();
  EXPECT_EQ(DynC.K, Schedule::Kind::Dynamic);
  EXPECT_EQ(DynC.ChunkSize, 4u);
}

TEST(ScheduleParse, RejectsMalformedInput) {
  EXPECT_FALSE(Schedule::parse("guided").has_value());
  EXPECT_FALSE(Schedule::parse("static,0").has_value());
  EXPECT_FALSE(Schedule::parse("static,-4").has_value());
  EXPECT_FALSE(Schedule::parse("static,4,4").has_value());
  EXPECT_FALSE(Schedule::parse("").has_value());
  EXPECT_FALSE(Schedule::parse("dynamic,abc").has_value());
}

TEST(ScheduleStr, RoundTripsThroughParse) {
  for (const char *Text : {"static", "static,8", "dynamic", "dynamic,32"}) {
    Schedule S = Schedule::parse(Text).value();
    EXPECT_EQ(S.str(), Text);
    Schedule Again = Schedule::parse(S.str()).value();
    EXPECT_EQ(Again.K, S.K);
    EXPECT_EQ(Again.ChunkSize, S.ChunkSize);
  }
}

TEST(ScheduleChunk, ExplicitChunkWins) {
  Schedule S = Schedule::staticChunk(7);
  EXPECT_EQ(S.resolvedChunk(1000, 4), 7u);
  Schedule D = Schedule::dynamic(3);
  EXPECT_EQ(D.resolvedChunk(1000, 4), 3u);
}

TEST(ScheduleChunk, AutoChunkIsSaneForStaticBlock) {
  Schedule S = Schedule::staticBlock();
  EXPECT_EQ(S.resolvedChunk(100, 4), 25u);
  EXPECT_EQ(S.resolvedChunk(101, 4), 26u);
  EXPECT_EQ(S.resolvedChunk(3, 4), 1u);
}

TEST(ScheduleChunk, AutoChunkNeverZero) {
  Schedule D = Schedule::dynamic();
  EXPECT_GE(D.resolvedChunk(1, 16), 1u);
  EXPECT_GE(D.resolvedChunk(0, 16), 1u);
}

namespace {

/// Flattens a partition plan and checks it tiles [0, N) exactly once.
void expectExactTiling(
    const std::vector<std::vector<IterationChunk>> &Plan, size_t N) {
  std::vector<int> Touched(N, 0);
  for (const auto &WorkerChunks : Plan)
    for (const IterationChunk &C : WorkerChunks) {
      ASSERT_LE(C.Begin, C.End);
      ASSERT_LE(C.End, N);
      for (size_t I = C.Begin; I < C.End; ++I)
        ++Touched[I];
    }
  for (size_t I = 0; I < N; ++I)
    EXPECT_EQ(Touched[I], 1) << "iteration " << I;
}

struct PartitionCase {
  size_t N;
  unsigned Workers;
};

/// The partition sweep.  gtest lists a parameter without a PrintTo as
/// its raw bytes (the "# GetParam()" dump), so the cases are zeroed, tail
/// padding included, and their members are set in place: otherwise the
/// listing differs from run to run.
std::vector<PartitionCase> partitionCases() {
  const std::pair<size_t, unsigned> Specs[] = {
      {0, 1},   {0, 4},   {1, 1},   {1, 8},      {7, 3},
      {8, 3},   {9, 3},   {100, 1}, {100, 7},    {1000, 16},
      {16, 16}, {15, 16}};
  std::vector<PartitionCase> Cases(std::size(Specs));
  std::memset(static_cast<void *>(Cases.data()), 0,
              Cases.size() * sizeof(PartitionCase));
  for (size_t I = 0; I < Cases.size(); ++I) {
    Cases[I].N = Specs[I].first;
    Cases[I].Workers = Specs[I].second;
  }
  return Cases;
}

class StaticPartitionTest : public ::testing::TestWithParam<PartitionCase> {};

} // namespace

TEST_P(StaticPartitionTest, StaticBlockTilesExactly) {
  auto [N, Workers] = GetParam();
  auto Plan = staticPartition(N, Workers, Schedule::staticBlock());
  ASSERT_EQ(Plan.size(), Workers);
  expectExactTiling(Plan, N);
  // Block sizes differ by at most one.
  size_t Min = N, Max = 0;
  for (const auto &WorkerChunks : Plan) {
    size_t Total = 0;
    for (const IterationChunk &C : WorkerChunks)
      Total += C.End - C.Begin;
    Min = std::min(Min, Total);
    Max = std::max(Max, Total);
  }
  if (N >= Workers) {
    EXPECT_LE(Max - Min, 1u);
  }
}

TEST_P(StaticPartitionTest, StaticChunkTilesExactly) {
  auto [N, Workers] = GetParam();
  auto Plan = staticPartition(N, Workers, Schedule::staticChunk(3));
  ASSERT_EQ(Plan.size(), Workers);
  expectExactTiling(Plan, N);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, StaticPartitionTest,
    ::testing::ValuesIn(partitionCases()));

TEST(ScheduleParseSpec, ReportsStructuredErrors) {
  // parse() is a thin wrapper over parseSpec(); the structured form must
  // name the offending input and the accepted grammar — no silent
  // fallback to StaticBlock.
  SpecParse<Schedule> Empty = Schedule::parseSpec("");
  EXPECT_FALSE(Empty);
  EXPECT_NE(Empty.Error.find("empty"), std::string::npos) << Empty.Error;

  SpecParse<Schedule> Unknown = Schedule::parseSpec("guided");
  EXPECT_FALSE(Unknown);
  EXPECT_NE(Unknown.Error.find("guided"), std::string::npos)
      << Unknown.Error;
  EXPECT_NE(Unknown.Error.find("static"), std::string::npos)
      << Unknown.Error;

  SpecParse<Schedule> BadChunk = Schedule::parseSpec("static,0");
  EXPECT_FALSE(BadChunk);
  EXPECT_NE(BadChunk.Error.find("chunk"), std::string::npos)
      << BadChunk.Error;

  SpecParse<Schedule> Extra = Schedule::parseSpec("static,4,4");
  EXPECT_FALSE(Extra);
  EXPECT_NE(Extra.Error.find("too many"), std::string::npos)
      << Extra.Error;

  SpecParse<Schedule> Ok = Schedule::parseSpec("dynamic,4");
  ASSERT_TRUE(Ok);
  EXPECT_TRUE(Ok.Error.empty());
  EXPECT_EQ(Ok.Value->K, Schedule::Kind::Dynamic);
}

TEST(TileParseSpec, AcceptsTheGrammar) {
  Tile Off = Tile::parseSpec("off").Value.value();
  EXPECT_FALSE(Off.Enabled);
  EXPECT_FALSE(Tile::parseSpec("none").Value.value().Enabled);

  Tile Auto = Tile::parseSpec("auto").Value.value();
  EXPECT_TRUE(Auto.Enabled);
  EXPECT_EQ(Auto.Rows, 0u);
  EXPECT_EQ(Auto.Cols, 0u);
  EXPECT_TRUE(Tile::parseSpec("on").Value.value().Enabled);

  Tile Square = Tile::parseSpec("16").Value.value();
  EXPECT_TRUE(Square.Enabled);
  EXPECT_EQ(Square.Rows, 16u);
  EXPECT_EQ(Square.Cols, 16u);

  Tile Rect = Tile::parseSpec(" 32x128 ").Value.value();
  EXPECT_TRUE(Rect.Enabled);
  EXPECT_EQ(Rect.Rows, 32u);
  EXPECT_EQ(Rect.Cols, 128u);
  EXPECT_EQ(Rect.str(), "32x128");
  EXPECT_EQ(Tile::off().str(), "off");
  EXPECT_EQ(Tile::automatic().str(), "auto");
}

TEST(TileParseSpec, RejectsMalformedSpecsWithStructuredErrors) {
  for (const char *Bad : {"", "0x4", "4x0", "4x", "x4", "axb", "-3",
                          "0", "3.5", "4x4x4"}) {
    SpecParse<Tile> P = Tile::parseSpec(Bad);
    EXPECT_FALSE(P) << "'" << Bad << "' should be rejected";
    EXPECT_FALSE(P.Error.empty()) << "'" << Bad << "'";
  }
}

namespace {

/// Checks the decomposition covers every (row, col) cell exactly once.
void expectExactTileCover(const TileGrid &G) {
  std::vector<int> Touched(G.rows() * G.cols(), 0);
  for (size_t T = 0; T < G.count(); ++T) {
    TileRect R = G.rect(T);
    ASSERT_LE(R.RowBegin, R.RowEnd);
    ASSERT_LE(R.RowEnd, G.rows());
    ASSERT_LE(R.ColBegin, R.ColEnd);
    ASSERT_LE(R.ColEnd, G.cols());
    for (size_t I = R.RowBegin; I < R.RowEnd; ++I)
      for (size_t J = R.ColBegin; J < R.ColEnd; ++J)
        ++Touched[I * G.cols() + J];
  }
  for (size_t I = 0; I < Touched.size(); ++I)
    EXPECT_EQ(Touched[I], 1) << "cell " << I;
}

} // namespace

TEST(TileGridTest, TilesTheSpaceExactly) {
  expectExactTileCover(TileGrid(100, 100, Tile::sized(32, 128)));
  expectExactTileCover(TileGrid(7, 3, Tile::sized(2, 2)));
  expectExactTileCover(TileGrid(64, 256, Tile::sized(32, 128)));
  expectExactTileCover(TileGrid(1, 1, Tile::automatic()));
  expectExactTileCover(TileGrid(33, 129, Tile::automatic()));
}

TEST(TileGridTest, ResolvesAutomaticAndClampsToExtents) {
  TileGrid Auto(1000, 1000, Tile::automatic());
  EXPECT_EQ(Auto.tileRows(), TileGrid::DefaultTileRows);
  EXPECT_EQ(Auto.tileCols(), TileGrid::DefaultTileCols);

  // Requested tiles larger than the space clamp to one tile.
  TileGrid Clamped(10, 20, Tile::sized(64, 64));
  EXPECT_EQ(Clamped.tileRows(), 10u);
  EXPECT_EQ(Clamped.tileCols(), 20u);
  EXPECT_EQ(Clamped.count(), 1u);

  TileGrid Empty(0, 50, Tile::automatic());
  EXPECT_EQ(Empty.count(), 0u);
}

TEST(TileGridTest, TileNumberingIsRowMajorAndWorkerIndependent) {
  // 5x7 space, 2x3 tiles: 3 tile rows x 3 tile cols, numbered row-major.
  TileGrid G(5, 7, Tile::sized(2, 3));
  ASSERT_EQ(G.rowTiles(), 3u);
  ASSERT_EQ(G.colTiles(), 3u);
  ASSERT_EQ(G.count(), 9u);
  TileRect First = G.rect(0);
  EXPECT_EQ(First.RowBegin, 0u);
  EXPECT_EQ(First.ColBegin, 0u);
  TileRect SecondRow = G.rect(3);
  EXPECT_EQ(SecondRow.RowBegin, 2u);
  EXPECT_EQ(SecondRow.ColBegin, 0u);
  TileRect Last = G.rect(8);
  EXPECT_EQ(Last.RowBegin, 4u);
  EXPECT_EQ(Last.RowEnd, 5u); // clipped edge tile
  EXPECT_EQ(Last.ColBegin, 6u);
  EXPECT_EQ(Last.ColEnd, 7u);
}

TEST(StaticPartition, RoundRobinAssignsChunksInOrder) {
  // 10 iterations, chunk 2, 3 workers: chunks [0,2)[2,4)[4,6)[6,8)[8,10)
  // dealt to workers 0,1,2,0,1.
  auto Plan = staticPartition(10, 3, Schedule::staticChunk(2));
  ASSERT_EQ(Plan[0].size(), 2u);
  ASSERT_EQ(Plan[1].size(), 2u);
  ASSERT_EQ(Plan[2].size(), 1u);
  EXPECT_EQ(Plan[0][0].Begin, 0u);
  EXPECT_EQ(Plan[0][1].Begin, 6u);
  EXPECT_EQ(Plan[1][0].Begin, 2u);
  EXPECT_EQ(Plan[1][1].Begin, 8u);
  EXPECT_EQ(Plan[2][0].Begin, 4u);
  EXPECT_EQ(Plan[2][0].End, 6u);
}
