// Derived artifact files — the `.bmx` bitmap index, the `.smp` scramble and
// the `.shm` shard map — share one framing. One corruption matrix runs over
// all three: bad magic and unsupported versions are kIoError, a flipped
// header field fails the trailer checksum (kDataLoss), a flipped payload
// byte fails the first payload access, a file cut anywhere inside its
// header never crashes, and a build failing in any write or close leaves no
// file. The same fixed table pins each format's bytes, fault-point
// crossings and page counts.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/fault_injector.h"
#include "shard/shard_map.h"
#include "storage/bitmap/bitmap_index.h"
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

using HitCounts = std::map<std::string, uint64_t>;

/// The fixed table every artifact is built from: four columns of
/// cardinality 5, 3, 4 and 2 (the class), 100,000 seeded rows — enough
/// that a bitmap spans two pages.
Schema TableSchema() { return MakeSchema({5, 3, 4}, 2); }

/// What opening an artifact and touching its first payload block returned.
struct Opened {
  Status open = Status::OK();
  Status access = Status::OK();
};

/// One artifact format under the matrix, with the constants pinned for it
/// (recorded before the formats shared one writer and reader; a deliberate
/// format change updates them and says so).
struct Format {
  const char* name;
  std::string (*path_for)(const std::string& heap);
  /// Builds the artifact from the heap file at `heap`.
  std::function<Status(const std::string& heap, IoCounters* io)> build;
  /// Opens the artifact and, when that succeeds, reads its first payload
  /// block.
  std::function<Opened(const std::string& path, IoCounters* io)> read;
  long header_field;     // a header byte no plausibility check reads
  long payload_offset;   // the padded header size: where the payload starts
  uint32_t file_checksum;  // Checksum32 over the whole file
  HitCounts hits;          // crossings over build, Open and first access
  uint64_t pages_written;  // IoCounters over the same three steps
  uint64_t pages_read;
};

const std::vector<Format>& Formats() {
  static const std::vector<Format>* formats = new std::vector<Format>{
      {"bmx", &BitmapIndexPathFor,
       [](const std::string& heap, IoCounters* io) {
         return BitmapIndexBuilder::BuildFromHeapFile(
                    heap, {5, 3, 4, 2}, BitmapIndexPathFor(heap), io)
             .status();
       },
       [](const std::string& path, IoCounters* io) {
         Opened out;
         auto reader = BitmapIndexReader::Open(path, io);
         out.open = reader.status();
         if (reader.ok()) out.access = (*reader)->BitmapWords(0, 0).status();
         return out;
       },
       /*header_field=*/16,  // num_rows
       // 24-byte prologue, 4 cardinalities, 14 bitmap checksums, trailer,
       // padded to 8 bytes.
       /*payload_offset=*/104,
       /*file_checksum=*/284382734u,
       /*hits=*/
       {{"bitmap/open", 1}, {"bitmap/read", 1}, {"storage/fclose", 1},
        {"storage/fopen", 2}, {"storage/fread", 196}, {"storage/fwrite", 15}},
       /*pages_written=*/22, /*pages_read=*/199},
      {"smp", &SampleFilePathFor,
       [](const std::string& heap, IoCounters* io) {
         return SampleFileBuilder::BuildFromHeapFile(
                    heap, 4, /*ratio=*/0.25, /*seed=*/7,
                    SampleFilePathFor(heap), io)
             .status();
       },
       [](const std::string& path, IoCounters* io) {
         Opened out;
         auto reader = SampleFileReader::Open(path, io);
         out.open = reader.status();
         if (reader.ok()) out.access = (*reader)->SampleRows().status();
         return out;
       },
       /*header_field=*/32,  // seed
       /*payload_offset=*/56,
       /*file_checksum=*/3750586186u,
       /*hits=*/
       {{"sample/open", 1}, {"sample/read", 1}, {"storage/fclose", 1},
        {"storage/fopen", 2}, {"storage/fread", 196}, {"storage/fwrite", 2}},
       /*pages_written=*/49, /*pages_read=*/246},
      {"shm", &ShardMapPathFor,
       [](const std::string& heap, IoCounters* io) {
         return ShardSetWriter::BuildFromHeapFile(
                    heap, 4, /*num_shards=*/2, ShardScheme::kHashRowId, io)
             .status();
       },
       [](const std::string& path, IoCounters* io) {
         Opened out;
         auto reader = ShardMapReader::Open(path, io);
         out.open = reader.status();
         if (reader.ok()) out.access = (*reader)->ShardRows().status();
         return out;
       },
       /*header_field=*/24,  // total_rows
       /*payload_offset=*/40,
       /*file_checksum=*/669482621u,
       /*hits=*/
       {{"shard/open", 1}, {"shard/read", 1}, {"storage/fclose", 3},
        {"storage/fopen", 6}, {"storage/fread", 198}, {"storage/fwrite", 28}},
       /*pages_written=*/198, /*pages_read=*/395},
  };
  return *formats;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// `hits` as a C++ initializer, so a deliberate format change can paste it.
std::string Describe(const HitCounts& hits) {
  std::ostringstream out;
  out << "{";
  for (const auto& [point, count] : hits) {
    out << "{\"" << point << "\", " << count << "}, ";
  }
  out << "}";
  return out.str();
}

class ArtifactFileTest : public ::testing::TestWithParam<size_t> {
 protected:
  void SetUp() override {
    const Schema schema = TableSchema();
    heap_ = dir_.path() + "/t.heap";
    auto writer =
        HeapFileWriter::Create(heap_, schema.num_columns(), nullptr);
    ASSERT_TRUE(writer.ok());
    for (const Row& row : RandomRows(schema, 100000, 2024)) {
      ASSERT_TRUE((*writer)->Append(row).ok());
    }
    ASSERT_TRUE((*writer)->Finish().ok());
    path_ = format().path_for(heap_);
    ASSERT_TRUE(format().build(heap_, nullptr).ok());
    pristine_ = ReadFileBytes(path_);
    ASSERT_GT(pristine_.size(), static_cast<size_t>(format().payload_offset));
  }

  const Format& format() const { return Formats()[GetParam()]; }

  /// Removes the artifact and, for a shard map, the shard heaps it maps.
  void RemoveArtifact() {
    std::filesystem::remove(path_);
    RemoveShardSetFiles(heap_, 2);
  }

  TempDir dir_;
  ChecksumToggle verify_{true};
  std::string heap_;
  std::string path_;
  std::string pristine_;
};

TEST_P(ArtifactFileTest, BadMagicIsIoError) {
  FlipByte(path_, 0);
  EXPECT_EQ(format().read(path_, nullptr).open.code(), StatusCode::kIoError);
}

TEST_P(ArtifactFileTest, UnsupportedVersionIsIoError) {
  FlipByte(path_, 4);
  EXPECT_EQ(format().read(path_, nullptr).open.code(), StatusCode::kIoError);
}

TEST_P(ArtifactFileTest, FlippedHeaderFieldIsDataLoss) {
  FlipByte(path_, format().header_field);
  IoCounters io;
  EXPECT_EQ(format().read(path_, &io).open.code(), StatusCode::kDataLoss);
  EXPECT_EQ(io.checksum_failures, 1u);
}

TEST_P(ArtifactFileTest, FlippedPayloadByteFailsFirstAccess) {
  FlipByte(path_, format().payload_offset);
  IoCounters io;
  Opened opened = format().read(path_, &io);
  ASSERT_TRUE(opened.open.ok()) << opened.open.ToString();
  EXPECT_EQ(opened.access.code(), StatusCode::kDataLoss);
  EXPECT_EQ(io.checksum_failures, 1u);
}

TEST_P(ArtifactFileTest, TruncatedHeaderNeverCrashes) {
  for (long length = 0; length <= format().payload_offset; ++length) {
    SCOPED_TRACE("length " + std::to_string(length));
    WriteFileBytes(path_, pristine_.substr(0, static_cast<size_t>(length)));
    Opened opened = format().read(path_, nullptr);
    EXPECT_FALSE(opened.open.ok() && opened.access.ok());
  }
}

TEST_P(ArtifactFileTest, FailedBuildLeavesNoFile) {
  for (const char* point : {faults::kStorageWrite, faults::kStorageClose}) {
    FaultScope guard;
    FaultInjector::PointConfig silent;
    silent.after = std::numeric_limits<uint64_t>::max();
    FaultInjector::Global().Arm(point, silent);
    RemoveArtifact();
    ASSERT_TRUE(format().build(heap_, nullptr).ok());
    const uint64_t crossings = FaultInjector::Global().Hits(point);
    ASSERT_GT(crossings, 0u) << point;
    // The first crossing and the last one, which sits in the artifact
    // file's own writer for every format.
    for (uint64_t after : {uint64_t{0}, crossings - 1}) {
      SCOPED_TRACE(std::string(point) + " after " + std::to_string(after));
      RemoveArtifact();
      FaultInjector::PointConfig fault;
      fault.after = after;
      fault.times = 1;
      FaultInjector::Global().Arm(point, fault);
      EXPECT_FALSE(format().build(heap_, nullptr).ok());
      EXPECT_EQ(FaultInjector::Global().Fires(point), 1u);
      EXPECT_FALSE(std::filesystem::exists(path_));
    }
  }
}

TEST_P(ArtifactFileTest, FormatAndFaultContractArePinned) {
  RemoveArtifact();
  FaultScope guard;
  FaultInjector::PointConfig silent;
  silent.after = std::numeric_limits<uint64_t>::max();
  for (const std::string& point : FaultInjector::KnownPoints()) {
    FaultInjector::Global().Arm(point, silent);
  }
  IoCounters io;
  ASSERT_TRUE(format().build(heap_, &io).ok());
  Opened opened = format().read(path_, &io);
  ASSERT_TRUE(opened.open.ok()) << opened.open.ToString();
  ASSERT_TRUE(opened.access.ok()) << opened.access.ToString();

  HitCounts hits;
  for (const std::string& point : FaultInjector::KnownPoints()) {
    const uint64_t count = FaultInjector::Global().Hits(point);
    if (count > 0) hits[point] = count;
  }
  EXPECT_EQ(hits, format().hits) << Describe(hits);
  EXPECT_EQ(io.pages_written, format().pages_written);
  EXPECT_EQ(io.pages_read, format().pages_read);
  const std::string bytes = ReadFileBytes(path_);
  EXPECT_EQ(bytes, pristine_);
  EXPECT_EQ(Checksum32(bytes.data(), bytes.size()), format().file_checksum);
}

INSTANTIATE_TEST_SUITE_P(
    Formats, ArtifactFileTest, ::testing::Range<size_t>(0, 3),
    [](const ::testing::TestParamInfo<size_t>& info) {
      return std::string(Formats()[info.param].name);
    });

// A bitmap index header's length follows from its own cardinalities. When a
// cardinality claims more bitmaps than the file holds, Open must return a
// Status before sizing anything from it, whether or not checksums are
// verified.
TEST(ArtifactFileBitmapTest, HeaderLengthBeyondFileIsIoError) {
  TempDir dir;
  const std::string path = dir.path() + "/t.bmx";
  BitmapIndexBuilder builder({3, 4, 2});
  for (const Row& row : RandomRows(MakeSchema({3, 4}, 2), 1000, 5)) {
    ASSERT_TRUE(builder.AddRow(row.data(), row.size()).ok());
  }
  ASSERT_TRUE(builder.WriteFile(path, nullptr).ok());
  FlipByte(path, 27, 0xff);  // cardinality[0]'s high byte: 0 -> 0xff
  for (bool verify : {true, false}) {
    ChecksumToggle toggle(verify);
    EXPECT_EQ(BitmapIndexReader::Open(path, nullptr).status().code(),
              StatusCode::kIoError)
        << "verify " << verify;
  }
}

}  // namespace
}  // namespace sqlclass
