// Scramble (sample table) storage: reservoir + shuffle determinism, file
// roundtrip, corruption detection, fault points, and the server-side
// lifecycle (build / query / invalidate on append / drop).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "common/fault_injector.h"
#include "server/server.h"
#include "storage/checksum.h"
#include "storage/heap_file.h"
#include "storage/sample/sample_file.h"
#include "test_util.h"

namespace sqlclass {
namespace {

using testing_util::ChecksumToggle;
using testing_util::FaultScope;
using testing_util::FlipByte;
using testing_util::MakeSchema;
using testing_util::RandomRows;
using testing_util::TempDir;

void WriteHeap(const std::string& path, const std::vector<Row>& rows,
               int columns) {
  auto writer = HeapFileWriter::Create(path, columns, nullptr);
  ASSERT_TRUE(writer.ok());
  for (const Row& row : rows) ASSERT_TRUE((*writer)->Append(row).ok());
  ASSERT_TRUE((*writer)->Finish().ok());
}

std::vector<Row> ReadAllSampleRows(SampleFileReader* reader) {
  std::vector<Row> out;
  auto rows = reader->SampleRows();
  EXPECT_TRUE(rows.ok()) << rows.status().ToString();
  if (!rows.ok()) return out;
  const int width = static_cast<int>(reader->num_columns());
  for (uint64_t r = 0; r < reader->num_rows(); ++r) {
    const Value* v = *rows + r * width;
    out.emplace_back(v, v + width);
  }
  return out;
}

std::string FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

// ---------------------------------------------------------------------------
// Builder semantics.
// ---------------------------------------------------------------------------

TEST(SampleBuilderTest, ReservoirSizeIsClampedRoundOfRatio) {
  // round(0.1 * 995) = 100; fewer offered rows than capacity keeps them all.
  SampleFileBuilder builder(3, 995, 0.1, 7);
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(builder.AddRow(Row{1, 2, 3}.data(), 3).ok());
  }
  EXPECT_EQ(builder.rows_seen(), 40u);
  EXPECT_EQ(builder.sample_rows(), 40u);

  // Tiny ratios clamp up to one row; ratio 1.0 keeps everything.
  SampleFileBuilder tiny(2, 1000, 1e-9, 7);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(tiny.AddRow(Row{0, 0}.data(), 2).ok());
  }
  EXPECT_EQ(tiny.sample_rows(), 1u);
}

TEST(SampleFileTest, FullRatioRoundtripIsAPermutation) {
  TempDir dir;
  Schema schema = MakeSchema({5, 4, 3}, 2);
  std::vector<Row> rows = RandomRows(schema, 300, 17);
  const std::string path = dir.path() + "/t.smp";

  SampleFileBuilder builder(schema.num_columns(), rows.size(), 1.0, 42);
  for (const Row& row : rows) {
    ASSERT_TRUE(builder.AddRow(row.data(), row.size()).ok());
  }
  IoCounters io;
  ASSERT_TRUE(builder.WriteFile(path, &io).ok());
  EXPECT_GT(io.pages_written, 0u);

  auto reader = SampleFileReader::Open(path, &io);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_EQ((*reader)->num_rows(), rows.size());
  EXPECT_EQ((*reader)->total_rows(), rows.size());
  EXPECT_EQ((*reader)->sampling_ratio(), 1.0);
  EXPECT_EQ((*reader)->seed(), 42u);

  // At ratio 1.0 the scramble is exactly the table, reshuffled: same
  // multiset of rows, different order (the pre-shuffle is the point — any
  // prefix must be a uniform sample).
  std::vector<Row> sampled = ReadAllSampleRows(reader->get());
  ASSERT_EQ(sampled.size(), rows.size());
  EXPECT_NE(sampled, rows);
  std::vector<Row> a = sampled;
  std::vector<Row> b = rows;
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  EXPECT_EQ(a, b);
}

TEST(SampleFileTest, DeterministicForFixedSeedAndDifferentAcrossSeeds) {
  TempDir dir;
  Schema schema = MakeSchema({6, 6}, 2);
  std::vector<Row> rows = RandomRows(schema, 1000, 5);

  auto build = [&](uint64_t seed, const std::string& name) {
    const std::string path = dir.path() + "/" + name;
    SampleFileBuilder builder(schema.num_columns(), rows.size(), 0.2, seed);
    for (const Row& row : rows) {
      EXPECT_TRUE(builder.AddRow(row.data(), row.size()).ok());
    }
    EXPECT_TRUE(builder.WriteFile(path, nullptr).ok());
    return FileBytes(path);
  };

  EXPECT_EQ(build(9, "a.smp"), build(9, "b.smp"));
  EXPECT_NE(build(9, "c.smp"), build(10, "d.smp"));
}

TEST(SampleFileTest, StreamingAndBackfillProduceIdenticalFiles) {
  TempDir dir;
  Schema schema = MakeSchema({4, 6}, 3);
  std::vector<Row> rows = RandomRows(schema, 700, 23);
  const std::string heap = dir.path() + "/t.tbl";
  WriteHeap(heap, rows, schema.num_columns());

  const std::string streamed = dir.path() + "/streamed.smp";
  SampleFileBuilder builder(schema.num_columns(), rows.size(), 0.25, 31);
  for (const Row& row : rows) {
    ASSERT_TRUE(builder.AddRow(row.data(), row.size()).ok());
  }
  const uint64_t streamed_rows = builder.rows_seen();
  ASSERT_TRUE(builder.WriteFile(streamed, nullptr).ok());

  const std::string backfilled = dir.path() + "/backfilled.smp";
  auto sampled = SampleFileBuilder::BuildFromHeapFile(
      heap, schema.num_columns(), 0.25, 31, backfilled, nullptr);
  ASSERT_TRUE(sampled.ok()) << sampled.status().ToString();
  EXPECT_EQ(*sampled, streamed_rows);

  EXPECT_FALSE(FileBytes(streamed).empty());
  EXPECT_EQ(FileBytes(streamed), FileBytes(backfilled));
}

TEST(SampleFileTest, SampleIsRoughlyUniformOverClasses) {
  TempDir dir;
  // 4000 rows, class k = i % 4 — a 10% sample should stay near 25% each.
  const int columns = 2;
  std::vector<Row> rows;
  for (int i = 0; i < 4000; ++i) {
    rows.push_back(Row{static_cast<Value>(i % 7), static_cast<Value>(i % 4)});
  }
  const std::string path = dir.path() + "/u.smp";
  SampleFileBuilder builder(columns, rows.size(), 0.1, 3);
  for (const Row& row : rows) {
    ASSERT_TRUE(builder.AddRow(row.data(), row.size()).ok());
  }
  ASSERT_TRUE(builder.WriteFile(path, nullptr).ok());

  auto reader = SampleFileReader::Open(path, nullptr);
  ASSERT_TRUE(reader.ok());
  std::map<Value, int> per_class;
  for (const Row& row : ReadAllSampleRows(reader->get())) ++per_class[row[1]];
  ASSERT_EQ((*reader)->num_rows(), 400u);
  for (const auto& [cls, count] : per_class) {
    EXPECT_GT(count, 50) << "class " << cls;   // expect ~100 each
    EXPECT_LT(count, 150) << "class " << cls;
  }
}

// ---------------------------------------------------------------------------
// Corruption and faults.
// ---------------------------------------------------------------------------

TEST(SampleFileTest, CorruptPayloadDetectedAsDataLoss) {
  TempDir dir;
  ChecksumToggle verify(true);
  Schema schema = MakeSchema({4, 4}, 2);
  std::vector<Row> rows = RandomRows(schema, 500, 7);
  const std::string path = dir.path() + "/t.smp";
  SampleFileBuilder builder(schema.num_columns(), rows.size(), 0.5, 1);
  for (const Row& row : rows) {
    ASSERT_TRUE(builder.AddRow(row.data(), row.size()).ok());
  }
  ASSERT_TRUE(builder.WriteFile(path, nullptr).ok());

  FlipByte(path, -3);  // rot a payload byte
  auto reader = SampleFileReader::Open(path, nullptr);
  ASSERT_TRUE(reader.ok());  // header is intact
  EXPECT_EQ((*reader)->SampleRows().status().code(), StatusCode::kDataLoss);
}

TEST(SampleFileTest, CorruptHeaderRejectedAtOpen) {
  TempDir dir;
  ChecksumToggle verify(true);
  const std::string path = dir.path() + "/t.smp";
  SampleFileBuilder builder(2, 100, 0.5, 1);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(builder.AddRow(Row{1, 0}.data(), 2).ok());
  }
  ASSERT_TRUE(builder.WriteFile(path, nullptr).ok());

  FlipByte(path, 8);  // num_columns field
  EXPECT_FALSE(SampleFileReader::Open(path, nullptr).ok());
}

TEST(SampleFileTest, FaultPointsFireOnOpenAndRead) {
  TempDir dir;
  FaultScope guard;
  const std::string path = dir.path() + "/t.smp";
  SampleFileBuilder builder(2, 50, 1.0, 1);
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(builder.AddRow(Row{0, 1}.data(), 2).ok());
  }
  ASSERT_TRUE(builder.WriteFile(path, nullptr).ok());

  {
    FaultInjector::PointConfig fault;
    fault.times = 1;
    FaultInjector::Global().Arm(faults::kSampleOpen, fault);
    EXPECT_FALSE(SampleFileReader::Open(path, nullptr).ok());
    EXPECT_EQ(FaultInjector::Global().Fires(faults::kSampleOpen), 1u);
    auto reader = SampleFileReader::Open(path, nullptr);  // fault exhausted
    ASSERT_TRUE(reader.ok());
  }
  {
    auto reader = SampleFileReader::Open(path, nullptr);
    ASSERT_TRUE(reader.ok());
    FaultInjector::PointConfig fault;
    fault.times = 1;
    FaultInjector::Global().Arm(faults::kSampleRead, fault);
    EXPECT_FALSE((*reader)->SampleRows().ok());
    EXPECT_EQ(FaultInjector::Global().Fires(faults::kSampleRead), 1u);
    // The failed load must not be cached.
    EXPECT_TRUE((*reader)->SampleRows().ok());
  }
}

// ---------------------------------------------------------------------------
// Server-side lifecycle.
// ---------------------------------------------------------------------------

TEST(ServerSampleTableTest, BuildQueryInvalidateDrop) {
  TempDir dir;
  Schema schema = MakeSchema({4, 3}, 2);
  std::vector<Row> rows = RandomRows(schema, 400, 3);
  SqlServer server(dir.path());
  ASSERT_TRUE(server.CreateTable("t", schema).ok());
  ASSERT_TRUE(server.LoadRows("t", rows).ok());

  EXPECT_FALSE(server.HasSampleTable("t"));
  EXPECT_FALSE(server.SampleTablePath("t").ok());
  EXPECT_FALSE(server.BuildSampleTable("t", 0.0, 1).ok());   // bad ratio
  EXPECT_FALSE(server.BuildSampleTable("t", 1.5, 1).ok());   // bad ratio
  ASSERT_TRUE(server.BuildSampleTable("t", 0.25, 1).ok());
  EXPECT_TRUE(server.HasSampleTable("t"));
  EXPECT_FALSE(server.BuildSampleTable("t", 0.25, 1).ok());  // AlreadyExists

  auto path = server.SampleTablePath("t");
  ASSERT_TRUE(path.ok());
  EXPECT_TRUE(std::filesystem::exists(*path));
  auto reader = SampleFileReader::Open(*path, nullptr);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ((*reader)->total_rows(), rows.size());
  EXPECT_EQ((*reader)->num_rows(), 100u);  // round(0.25 * 400)
  reader->reset();

  // INSERT invalidates: the stale scramble must disappear, not mislead.
  ASSERT_TRUE(server.AppendRows("t", {rows[0]}).ok());
  EXPECT_FALSE(server.HasSampleTable("t"));
  EXPECT_FALSE(std::filesystem::exists(*path));

  // Rebuild over the appended data, then drop.
  ASSERT_TRUE(server.BuildSampleTable("t", 0.25, 2).ok());
  EXPECT_TRUE(server.HasSampleTable("t"));
  ASSERT_TRUE(server.DropSampleTable("t").ok());
  EXPECT_FALSE(server.HasSampleTable("t"));
  EXPECT_FALSE(std::filesystem::exists(*path));
}

TEST(ServerSampleTableTest, DropTableRemovesScramble) {
  TempDir dir;
  Schema schema = MakeSchema({3}, 2);
  SqlServer server(dir.path());
  ASSERT_TRUE(server.CreateTable("t", schema).ok());
  ASSERT_TRUE(server.LoadRows("t", RandomRows(schema, 50, 1)).ok());
  ASSERT_TRUE(server.BuildSampleTable("t", 0.5, 1).ok());
  auto path = server.SampleTablePath("t");
  ASSERT_TRUE(path.ok());
  ASSERT_TRUE(server.DropTable("t").ok());
  EXPECT_FALSE(std::filesystem::exists(*path));
  EXPECT_FALSE(server.HasSampleTable("t"));
}

}  // namespace
}  // namespace sqlclass
