// Bitmap counting engine: index format roundtrip and corruption detection,
// CC byte-identity of the AND+popcount path against the row-scan paths,
// Rule 0 routing, cost determinism, and fault-point recovery (bitmap reads
// degrade transparently to row scans).

#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common/fault_injector.h"
#include "common/mutex.h"
#include "common/thread_pool.h"
#include "datagen/load.h"
#include "datagen/random_tree.h"
#include "middleware/bitmap_scan.h"
#include "middleware/middleware.h"
#include "mining/tree_client.h"
#include "server/server.h"
#include "service/service.h"
#include "storage/bitmap/bitmap.h"
#include "storage/bitmap/bitmap_index.h"
#include "storage/checksum.h"
#include "storage/heap_file.h"
#include "test_env.h"
#include "test_util.h"

namespace sqlclass {
namespace {

using testing_util::BruteForceCc;
using testing_util::ChecksumToggle;
using testing_util::EnvVarScope;
using testing_util::FaultScope;
using testing_util::FlipByte;
using testing_util::MakeSchema;
using testing_util::RandomRows;
using testing_util::TempDir;

std::vector<uint32_t> Cardinalities(const Schema& schema) {
  std::vector<uint32_t> cards;
  for (int c = 0; c < schema.num_columns(); ++c) {
    cards.push_back(static_cast<uint32_t>(schema.attribute(c).cardinality));
  }
  return cards;
}

uint64_t CountBits(const uint64_t* words, uint64_t n) {
  uint64_t total = 0;
  for (uint64_t i = 0; i < n; ++i) total += std::popcount(words[i]);
  return total;
}

void WriteHeap(const std::string& path, const std::vector<Row>& rows,
               int columns) {
  auto writer = HeapFileWriter::Create(path, columns, nullptr);
  ASSERT_TRUE(writer.ok());
  for (const Row& row : rows) ASSERT_TRUE((*writer)->Append(row).ok());
  ASSERT_TRUE((*writer)->Finish().ok());
}

// ---------------------------------------------------------------------------
// Word helpers.
// ---------------------------------------------------------------------------

TEST(BitmapWordsTest, FillAllRowsMasksTailBits) {
  for (uint64_t rows : {0ull, 1ull, 63ull, 64ull, 65ull, 130ull}) {
    std::vector<uint64_t> words(BitmapWordCount(rows), ~0ull);
    FillAllRows(words.data(), rows);
    EXPECT_EQ(CountBits(words.data(), words.size()), rows) << rows;
  }
}

TEST(BitmapWordsTest, AndPopcountMatchesSeparateOps) {
  // 150 rows: word 2 is the partial tail word (rows 128..149), and word 1
  // of `a` is empty, so `a` has live words {0, 2}.
  std::vector<uint64_t> a(3), b(3);
  for (uint64_t r : {0ull, 5ull, 130ull, 131ull, 149ull}) SetBit(a.data(), r);
  for (uint64_t r : {5ull, 6ull, 64ull, 131ull, 149ull}) SetBit(b.data(), r);
  const std::vector<uint32_t> live = {0, 2};
  const std::vector<uint64_t> a_live = {a[0], a[2]};

  std::vector<uint64_t> full(3), out(2);
  for (size_t w = 0; w < 3; ++w) full[w] = a[w] & b[w];
  EXPECT_EQ(GatherAndInto(a_live.data(), b.data(), live.data(), 2, out.data()),
            CountBits(full.data(), 3));
  EXPECT_EQ(out, (std::vector<uint64_t>{full[0], full[2]}));
  EXPECT_EQ(GatherAndPopcount(a_live.data(), b.data(), live.data(), 2),
            CountBits(full.data(), 3));
  // rows 5, 131, 149 — two of them in the tail word
  EXPECT_EQ(GatherAndPopcount(a_live.data(), b.data(), live.data(), 2), 3u);
  EXPECT_EQ(GatherAndPopcount(a_live.data(), b.data(), live.data(), 0), 0u);
}

// ---------------------------------------------------------------------------
// Index file roundtrip.
// ---------------------------------------------------------------------------

TEST(BitmapIndexTest, RoundtripPreservesEveryBitmap) {
  TempDir dir;
  Schema schema = MakeSchema({5, 3, 7}, 2);
  std::vector<Row> rows = RandomRows(schema, 2000, 11);
  const std::string path = dir.path() + "/t.bmx";

  BitmapIndexBuilder builder(Cardinalities(schema));
  for (const Row& row : rows) {
    ASSERT_TRUE(builder.AddRow(row.data(), row.size()).ok());
  }
  EXPECT_EQ(builder.num_rows(), rows.size());
  IoCounters io;
  ASSERT_TRUE(builder.WriteFile(path, &io).ok());
  EXPECT_GT(io.pages_written, 0u);

  auto reader = BitmapIndexReader::Open(path, &io);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_EQ((*reader)->num_rows(), rows.size());
  EXPECT_EQ((*reader)->num_columns(),
            static_cast<uint32_t>(schema.num_columns()));
  EXPECT_EQ((*reader)->words_per_bitmap(), BitmapWordCount(rows.size()));

  for (int c = 0; c < schema.num_columns(); ++c) {
    const uint32_t card = (*reader)->cardinality(c);
    ASSERT_EQ(card,
              static_cast<uint32_t>(schema.attribute(c).cardinality));
    uint64_t total = 0;
    for (uint32_t v = 0; v < card; ++v) {
      auto words = (*reader)->BitmapWords(c, static_cast<Value>(v));
      ASSERT_TRUE(words.ok());
      for (size_t r = 0; r < rows.size(); ++r) {
        EXPECT_EQ(TestBit(*words, r), rows[r][c] == static_cast<Value>(v))
            << "col " << c << " value " << v << " row " << r;
      }
      total += CountBits(*words, (*reader)->words_per_bitmap());
    }
    // Values partition the rows: per-column popcounts must sum to the row
    // count, which also proves tail bits beyond num_rows stay zero.
    EXPECT_EQ(total, rows.size()) << "column " << c;
  }
  EXPECT_GT(io.pages_read, 0u);
}

TEST(BitmapIndexTest, StreamingAndBackfillProduceIdenticalFiles) {
  TempDir dir;
  Schema schema = MakeSchema({4, 6}, 3);
  std::vector<Row> rows = RandomRows(schema, 700, 23);
  const std::string heap = dir.path() + "/t.tbl";
  WriteHeap(heap, rows, schema.num_columns());

  const std::string streamed = dir.path() + "/streamed.bmx";
  BitmapIndexBuilder builder(Cardinalities(schema));
  for (const Row& row : rows) {
    ASSERT_TRUE(builder.AddRow(row.data(), row.size()).ok());
  }
  ASSERT_TRUE(builder.WriteFile(streamed, nullptr).ok());

  const std::string backfilled = dir.path() + "/backfilled.bmx";
  auto indexed = BitmapIndexBuilder::BuildFromHeapFile(
      heap, Cardinalities(schema), backfilled, nullptr);
  ASSERT_TRUE(indexed.ok()) << indexed.status().ToString();
  EXPECT_EQ(*indexed, rows.size());

  std::ifstream a(streamed, std::ios::binary), b(backfilled, std::ios::binary);
  std::string bytes_a((std::istreambuf_iterator<char>(a)),
                      std::istreambuf_iterator<char>());
  std::string bytes_b((std::istreambuf_iterator<char>(b)),
                      std::istreambuf_iterator<char>());
  EXPECT_FALSE(bytes_a.empty());
  EXPECT_EQ(bytes_a, bytes_b);
}

TEST(BitmapIndexTest, EmptyTableRoundtrips) {
  TempDir dir;
  const std::string path = dir.path() + "/empty.bmx";
  BitmapIndexBuilder builder({3, 2});
  ASSERT_TRUE(builder.WriteFile(path, nullptr).ok());
  auto reader = BitmapIndexReader::Open(path, nullptr);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ((*reader)->num_rows(), 0u);
  EXPECT_EQ((*reader)->words_per_bitmap(), 0u);
  auto words = (*reader)->BitmapWords(0, 0);
  ASSERT_TRUE(words.ok());
  EXPECT_EQ(CountBits(*words, 0), 0u);
}

TEST(BitmapIndexTest, OutOfDomainAccessRejected) {
  TempDir dir;
  const std::string path = dir.path() + "/t.bmx";
  BitmapIndexBuilder builder({3, 2});
  ASSERT_TRUE(builder.AddRow(Row{1, 0}.data(), 2).ok());
  ASSERT_TRUE(builder.WriteFile(path, nullptr).ok());
  auto reader = BitmapIndexReader::Open(path, nullptr);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ((*reader)->BitmapWords(0, 3).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ((*reader)->BitmapWords(2, 0).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ((*reader)->BitmapWords(0, -1).status().code(),
            StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Corruption: checksum forge / detect.
// ---------------------------------------------------------------------------

TEST(BitmapIndexTest, CorruptPayloadDetectedAsDataLoss) {
  TempDir dir;
  ChecksumToggle verify(true);
  Schema schema = MakeSchema({4, 4}, 2);
  std::vector<Row> rows = RandomRows(schema, 500, 7);
  const std::string path = dir.path() + "/t.bmx";
  BitmapIndexBuilder builder(Cardinalities(schema));
  for (const Row& row : rows) {
    ASSERT_TRUE(builder.AddRow(row.data(), row.size()).ok());
  }
  ASSERT_TRUE(builder.WriteFile(path, nullptr).ok());

  // Rot one byte in the last bitmap's payload.
  FlipByte(path, -3);

  IoCounters io;
  auto reader = BitmapIndexReader::Open(path, &io);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();  // header is fine
  // Some bitmap must fail verification; all others still read fine.
  int failures = 0;
  for (int c = 0; c < schema.num_columns(); ++c) {
    for (uint32_t v = 0; v < (*reader)->cardinality(c); ++v) {
      auto words = (*reader)->BitmapWords(c, static_cast<Value>(v));
      if (!words.ok()) {
        EXPECT_EQ(words.status().code(), StatusCode::kDataLoss);
        ++failures;
      }
    }
  }
  EXPECT_EQ(failures, 1);
  EXPECT_EQ(io.checksum_failures, 1u);
}

TEST(BitmapIndexTest, CorruptPayloadIgnoredWhenVerificationDisabled) {
  TempDir dir;
  Schema schema = MakeSchema({4, 4}, 2);
  std::vector<Row> rows = RandomRows(schema, 500, 7);
  const std::string path = dir.path() + "/t.bmx";
  BitmapIndexBuilder builder(Cardinalities(schema));
  for (const Row& row : rows) {
    ASSERT_TRUE(builder.AddRow(row.data(), row.size()).ok());
  }
  ASSERT_TRUE(builder.WriteFile(path, nullptr).ok());
  FlipByte(path, -3);

  ChecksumToggle verify(false);
  auto reader = BitmapIndexReader::Open(path, nullptr);
  ASSERT_TRUE(reader.ok());
  for (int c = 0; c < schema.num_columns(); ++c) {
    for (uint32_t v = 0; v < (*reader)->cardinality(c); ++v) {
      EXPECT_TRUE((*reader)->BitmapWords(c, static_cast<Value>(v)).ok());
    }
  }
}

TEST(BitmapIndexTest, CorruptHeaderDetectedAtOpen) {
  TempDir dir;
  ChecksumToggle verify(true);
  const std::string path = dir.path() + "/t.bmx";
  BitmapIndexBuilder builder({5, 3});
  ASSERT_TRUE(builder.AddRow(Row{2, 1}.data(), 2).ok());
  ASSERT_TRUE(builder.WriteFile(path, nullptr).ok());

  // Rot the num_rows field (offset 16, past magic/version/columns/reserved).
  FlipByte(path, 16);
  IoCounters io;
  auto reader = BitmapIndexReader::Open(path, &io);
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(io.checksum_failures, 1u);
}

TEST(BitmapIndexTest, BadMagicIsIoError) {
  TempDir dir;
  const std::string path = dir.path() + "/t.bmx";
  BitmapIndexBuilder builder({2});
  ASSERT_TRUE(builder.AddRow(Row{1}.data(), 1).ok());
  ASSERT_TRUE(builder.WriteFile(path, nullptr).ok());
  FlipByte(path, 0);
  auto reader = BitmapIndexReader::Open(path, nullptr);
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kIoError);
}

// ---------------------------------------------------------------------------
// BitmapCountScan: CC identity against the brute-force row scan.
// ---------------------------------------------------------------------------

class BitmapScanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    schema_ = MakeSchema({5, 3, 4, 6}, 3);
    rows_ = RandomRows(schema_, 3000, 99);
    path_ = dir_.path() + "/t.bmx";
    BitmapIndexBuilder builder(Cardinalities(schema_));
    for (const Row& row : rows_) {
      ASSERT_TRUE(builder.AddRow(row.data(), row.size()).ok());
    }
    ASSERT_TRUE(builder.WriteFile(path_, nullptr).ok());
    auto reader = BitmapIndexReader::Open(path_, nullptr);
    ASSERT_TRUE(reader.ok());
    reader_ = std::move(reader).value();
  }

  /// Logical charges of one Run.
  struct Charges {
    uint64_t words_read = 0;
    uint64_t and_ops = 0;
    uint64_t popcounts = 0;
  };

  /// Runs one bitmap-served CC request and checks it against BruteForceCc;
  /// `charges` and `node_rows` (nullable) receive what the run reported.
  void CheckPredicate(std::unique_ptr<Expr> predicate,
                      const std::vector<int>& attrs,
                      Charges* charges = nullptr,
                      uint64_t* node_rows = nullptr) {
    if (predicate != nullptr) {
      ASSERT_TRUE(predicate->Bind(schema_).ok());
    }
    ASSERT_TRUE(BitmapCountScan::Servable(predicate.get()));
    CcTable cc(3);
    std::vector<BitmapCountScan::Node> nodes(1);
    std::vector<int> attrs_copy = attrs;
    nodes[0].predicate = predicate.get();
    nodes[0].active_attrs = &attrs_copy;
    nodes[0].cc = &cc;
    CostCounters cost;
    ASSERT_TRUE(
        BitmapCountScan::Run(reader_.get(), schema_, &nodes, &cost).ok());
    CcTable expected = BruteForceCc(rows_, predicate.get(), attrs_copy,
                                    schema_.class_column(), 3);
    EXPECT_TRUE(cc == expected)
        << "bitmap:\n" << cc.ToString() << "\nrow scan:\n"
        << expected.ToString();
    EXPECT_EQ(cc.TotalRows(), expected.TotalRows());
    EXPECT_GT(cost.mw_bitmap_words_read.load(), 0u);
    EXPECT_GT(cost.mw_bitmap_popcounts.load(), 0u);
    if (charges != nullptr) {
      *charges = Charges{cost.mw_bitmap_words_read.load(),
                         cost.mw_bitmap_and_ops.load(),
                         cost.mw_bitmap_popcounts.load()};
    }
    if (node_rows != nullptr) *node_rows = cc.TotalRows();
  }

  TempDir dir_;
  Schema schema_;
  std::vector<Row> rows_;
  std::string path_;
  std::unique_ptr<BitmapIndexReader> reader_;
};

TEST_F(BitmapScanTest, RootPredicateMatchesRowScan) {
  CheckPredicate(nullptr, {0, 1, 2, 3});
  CheckPredicate(Expr::True(), {0, 1, 2, 3});
}

TEST_F(BitmapScanTest, EqualityChainsMatchRowScan) {
  CheckPredicate(Expr::ColEq("A1", 2), {1, 2, 3});
  CheckPredicate(AndOf(Expr::ColEq("A1", 2), Expr::ColEq("A2", 0)), {2, 3});
  CheckPredicate(AndOf(AndOf(Expr::ColEq("A1", 4), Expr::ColEq("A3", 3)),
                       Expr::ColEq("A2", 1)),
                 {3});
}

TEST_F(BitmapScanTest, InequalityAndMixedShapesMatchRowScan) {
  CheckPredicate(Expr::ColNe("A4", 5), {0, 1, 2});
  CheckPredicate(AndOf(Expr::ColEq("A1", 1), Expr::ColNe("A4", 0)),
                 {1, 2, 3});
  CheckPredicate(AndOf(AndOf(Expr::ColNe("A1", 0), Expr::ColNe("A1", 1)),
                       AndOf(Expr::ColEq("A2", 2), Expr::ColNe("A4", 3))),
                 {0, 2});
}

TEST_F(BitmapScanTest, EmptyNodeProducesEmptyTable) {
  // A contradiction: A1 = 0 AND A1 = 1.
  CheckPredicate(AndOf(Expr::ColEq("A1", 0), Expr::ColEq("A1", 1)),
                 {1, 2, 3});
}

// The fixture's 3000 rows fill 47 words; word 46 is the partial tail word
// (rows 2944..2999). Charges stay per logical word however sparse the
// node: words x (in-domain literals + classes + sum of active
// cardinalities) words read.
TEST_F(BitmapScanTest, SparseDeepNodeMatchesRowScan) {
  // The values of a tail-word row, so the conjunction keeps that row.
  const Row& tail = rows_[2990];
  Charges charges;
  uint64_t node_rows = 0;
  CheckPredicate(AndOf(AndOf(Expr::ColEq("A1", tail[0]),
                             Expr::ColEq("A2", tail[1])),
                       Expr::ColEq("A3", tail[2])),
                 {3}, &charges, &node_rows);
  EXPECT_GE(node_rows, 12u);  // a few dozen rows scattered over the table
  EXPECT_LE(node_rows, 120u);
  EXPECT_EQ(charges.words_read, 564u);  // 47 x (3 literals + 3 + 6)
  EXPECT_EQ(charges.and_ops, 1128u);    // 47 x (3 + 3 + 6 x 3 classes)
  EXPECT_EQ(charges.popcounts, 987u);   // 47 x (3 classes + 6 x 3)
}

TEST_F(BitmapScanTest, OutOfDomainEqualityHasNoLiveWords) {
  // A1 takes values 0..4: A1 = 7 empties the node and fetches no bitmap
  // of its own, yet the classes and every active value are charged.
  Charges charges;
  uint64_t node_rows = 1;
  CheckPredicate(Expr::ColEq("A1", 7), {1, 2, 3}, &charges, &node_rows);
  EXPECT_EQ(node_rows, 0u);
  EXPECT_EQ(charges.words_read, 752u);  // 47 x (0 + 3 + (3 + 4 + 6))
  EXPECT_EQ(charges.and_ops, 1974u);    // 47 x (0 + 3 + 13 x 3 classes)
  EXPECT_EQ(charges.popcounts, 1974u);  // 47 x (3 classes + 13 x 3)
}

// A derived child (DESIGN.md "Derived children") is counted on a subset of
// its attributes: its class totals stay whole, only the subset gets cells,
// and every active attribute's bitmaps are still fetched and charged.
TEST_F(BitmapScanTest, CountedSubsetKeepsClassTotalsAndCharges) {
  auto predicate = AndOf(Expr::ColEq("A1", 2), Expr::ColNe("A4", 0));
  ASSERT_TRUE(predicate->Bind(schema_).ok());
  const std::vector<int> attrs = {1, 2, 3};
  const std::vector<int> subset = {2};
  const std::vector<int> none;
  auto run = [&](const std::vector<int>* counted, CcTable* cc) {
    std::vector<BitmapCountScan::Node> nodes(1);
    nodes[0].predicate = predicate.get();
    nodes[0].active_attrs = &attrs;
    nodes[0].counted_attrs = counted;
    nodes[0].cc = cc;
    CostCounters cost;
    EXPECT_TRUE(
        BitmapCountScan::Run(reader_.get(), schema_, &nodes, &cost).ok());
    return cost.ToString();
  };
  CcTable full(3);
  const std::string full_cost = run(nullptr, &full);
  EXPECT_TRUE(full == BruteForceCc(rows_, predicate.get(), attrs,
                                   schema_.class_column(), 3));
  ASSERT_GT(full.TotalRows(), 0);
  for (const std::vector<int>* counted : {&subset, &none}) {
    SCOPED_TRACE(counted->size());
    CcTable cc(3);
    EXPECT_EQ(run(counted, &cc), full_cost);
    EXPECT_EQ(cc.ClassTotals(), full.ClassTotals());
    EXPECT_EQ(cc.TotalRows(), full.TotalRows());
    EXPECT_TRUE(cc == BruteForceCc(rows_, predicate.get(), *counted,
                                   schema_.class_column(), 3));
  }
}

TEST_F(BitmapScanTest, PoolSizeChangesNeitherResultsNorFaultOrder) {
  std::vector<std::unique_ptr<Expr>> predicates;
  predicates.push_back(nullptr);
  predicates.push_back(Expr::ColEq("A1", 2));
  predicates.push_back(AndOf(Expr::ColEq("A1", 2), Expr::ColNe("A2", 1)));
  predicates.push_back(AndOf(AndOf(Expr::ColEq("A1", 4), Expr::ColEq("A3", 3)),
                             Expr::ColEq("A2", 1)));
  predicates.push_back(Expr::ColEq("A1", 7));
  predicates.push_back(Expr::ColNe("A4", 5));
  for (const std::unique_ptr<Expr>& predicate : predicates) {
    if (predicate != nullptr) {
      ASSERT_TRUE(predicate->Bind(schema_).ok());
    }
  }
  const std::vector<int> attrs = {1, 2, 3};

  struct Outcome {
    Status status;
    std::vector<CcTable> ccs;
    std::vector<uint64_t> node_rows;
    std::string cost;
  };
  // A fresh reader per run, so every bitmap is fetched from the file.
  auto run = [&](ThreadPool* pool) {
    Outcome out;
    auto reader = BitmapIndexReader::Open(path_, nullptr);
    EXPECT_TRUE(reader.ok());
    for (size_t i = 0; i < predicates.size(); ++i) out.ccs.emplace_back(3);
    std::vector<BitmapCountScan::Node> nodes(predicates.size());
    for (size_t i = 0; i < nodes.size(); ++i) {
      nodes[i].predicate = predicates[i].get();
      nodes[i].active_attrs = &attrs;
      nodes[i].cc = &out.ccs[i];
    }
    CostCounters cost;
    out.status =
        BitmapCountScan::Run(reader->get(), schema_, &nodes, &cost, pool);
    for (const BitmapCountScan::Node& node : nodes) {
      out.node_rows.push_back(node.cc->TotalRows());
    }
    out.cost = cost.ToString();
    return out;
  };

  ThreadPool one(1);
  ThreadPool four(4);
  const Outcome serial = run(nullptr);
  ASSERT_TRUE(serial.status.ok()) << serial.status.ToString();
  for (size_t i = 0; i < predicates.size(); ++i) {
    EXPECT_TRUE(serial.ccs[i] == BruteForceCc(rows_, predicates[i].get(),
                                              attrs, schema_.class_column(),
                                              3))
        << "node " << i;
  }
  for (ThreadPool* pool : {&one, &four}) {
    SCOPED_TRACE(pool->size());
    const Outcome pooled = run(pool);
    ASSERT_TRUE(pooled.status.ok()) << pooled.status.ToString();
    EXPECT_TRUE(pooled.ccs == serial.ccs);
    EXPECT_EQ(pooled.node_rows, serial.node_rows);
    EXPECT_EQ(pooled.cost, serial.cost);
  }

  // The root node fetches 16 bitmaps (3 classes, values of A2, A3, A4) and
  // node 1 one more (A1 = 2): the 18th fetch, A1 = 4 in node 3, fails.
  FaultScope guard;
  FaultInjector::PointConfig fault;
  fault.after = 17;
  std::vector<Outcome> faulted;
  for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &four}) {
    FaultInjector::Global().Reset();
    FaultInjector::Global().Arm(faults::kBitmapRead, fault);
    faulted.push_back(run(pool));
    EXPECT_EQ(FaultInjector::Global().Fires(faults::kBitmapRead), 1u);
  }
  EXPECT_EQ(faulted[0].status.code(), StatusCode::kIoError);
  EXPECT_EQ(faulted[1].status.code(), faulted[0].status.code());
  EXPECT_EQ(faulted[1].status.message(), faulted[0].status.message());
  EXPECT_EQ(faulted[1].cost, faulted[0].cost);
  // Nodes 0-2 charged in full, node 3 nothing: 47 words x ((0 + 3 + 13) +
  // (1 + 3 + 13) + (2 + 3 + 13)) words read.
  EXPECT_NE(faulted[0].cost.find(" mw_bitmap_words_read=2397 "),
            std::string::npos)
      << faulted[0].cost;
}

TEST_F(BitmapScanTest, RepeatRunsChargeIdenticalCosts) {
  auto predicate = AndOf(Expr::ColEq("A1", 2), Expr::ColNe("A2", 1));
  ASSERT_TRUE(predicate->Bind(schema_).ok());
  std::vector<int> attrs = {2, 3};
  uint64_t first_words = 0;
  for (int round = 0; round < 2; ++round) {
    CcTable cc(3);
    std::vector<BitmapCountScan::Node> nodes(1);
    nodes[0].predicate = predicate.get();
    nodes[0].active_attrs = &attrs;
    nodes[0].cc = &cc;
    CostCounters cost;
    // Same reader both rounds: round two is fully cached, yet the logical
    // charges must not change (simulated cost is cache-state-invariant).
    ASSERT_TRUE(
        BitmapCountScan::Run(reader_.get(), schema_, &nodes, &cost).ok());
    if (round == 0) {
      first_words = cost.mw_bitmap_words_read.load();
    } else {
      EXPECT_EQ(cost.mw_bitmap_words_read.load(), first_words);
    }
  }
}

TEST(BitmapServableTest, ClassifiesPredicateShapes) {
  EXPECT_TRUE(BitmapCountScan::Servable(nullptr));
  EXPECT_TRUE(BitmapCountScan::Servable(Expr::True().get()));
  EXPECT_TRUE(BitmapCountScan::Servable(Expr::ColEq("a", 1).get()));
  EXPECT_TRUE(BitmapCountScan::Servable(
      AndOf(Expr::ColEq("a", 1), Expr::ColNe("b", 2)).get()));
  std::vector<std::unique_ptr<Expr>> ors;
  ors.push_back(Expr::ColEq("a", 1));
  ors.push_back(Expr::ColEq("a", 2));
  EXPECT_FALSE(BitmapCountScan::Servable(Expr::Or(std::move(ors)).get()));
  EXPECT_FALSE(
      BitmapCountScan::Servable(Expr::Not(Expr::ColEq("a", 1)).get()));
}

// ---------------------------------------------------------------------------
// Server-side index lifecycle.
// ---------------------------------------------------------------------------

TEST(ServerBitmapIndexTest, BuildQueryInvalidateDrop) {
  TempDir dir;
  Schema schema = MakeSchema({4, 3}, 2);
  std::vector<Row> rows = RandomRows(schema, 400, 3);
  SqlServer server(dir.path());
  ASSERT_TRUE(server.CreateTable("t", schema).ok());
  ASSERT_TRUE(server.LoadRows("t", rows).ok());

  EXPECT_FALSE(server.HasBitmapIndex("t"));
  EXPECT_FALSE(server.BitmapIndexPath("t").ok());
  ASSERT_TRUE(server.BuildBitmapIndex("t").ok());
  EXPECT_TRUE(server.HasBitmapIndex("t"));
  EXPECT_FALSE(server.BuildBitmapIndex("t").ok());  // AlreadyExists

  auto path = server.BitmapIndexPath("t");
  ASSERT_TRUE(path.ok());
  EXPECT_TRUE(std::filesystem::exists(*path));
  auto reader = BitmapIndexReader::Open(*path, nullptr);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ((*reader)->num_rows(), rows.size());
  reader->reset();

  // INSERT invalidates: the stale index must disappear, not mislead.
  ASSERT_TRUE(server.AppendRows("t", {rows[0]}).ok());
  EXPECT_FALSE(server.HasBitmapIndex("t"));
  EXPECT_FALSE(std::filesystem::exists(*path));

  // Rebuild over the appended data, then drop.
  ASSERT_TRUE(server.BuildBitmapIndex("t").ok());
  EXPECT_TRUE(server.HasBitmapIndex("t"));
  ASSERT_TRUE(server.DropBitmapIndex("t").ok());
  EXPECT_FALSE(server.HasBitmapIndex("t"));
  EXPECT_FALSE(std::filesystem::exists(*path));
}

// ---------------------------------------------------------------------------
// Middleware: Rule 0 routing, byte-identity across paths, fault recovery.
// ---------------------------------------------------------------------------

class MiddlewareBitmapTest : public ::testing::Test {
 protected:
  void SetUp() override {
    RandomTreeParams params;
    params.num_attributes = 6;
    params.num_leaves = 12;
    params.cases_per_leaf = 30;
    params.num_classes = 3;
    params.seed = 9;
    auto dataset = RandomTreeDataset::Create(params);
    ASSERT_TRUE(dataset.ok());
    dataset_ = std::move(dataset).value();
    server_ = std::make_unique<SqlServer>(dir_.path());
    ASSERT_TRUE(LoadIntoServer(server_.get(), "data", dataset_->schema(),
                               [&](const RowSink& sink) {
                                 return dataset_->Generate(sink);
                               })
                    .ok());
    staging_ = dir_.path() + "/staging";
    std::filesystem::create_directories(staging_);
  }

  MiddlewareConfig Config(bool use_bitmap) {
    MiddlewareConfig config;
    config.staging_dir = staging_;
    config.use_bitmap_index = use_bitmap;
    config.scan_retry.initial_backoff_us = 0;
    return config;
  }

  struct GrowOutput {
    std::string tree;
    ClassificationMiddleware::Stats stats;
    std::vector<ClassificationMiddleware::BatchTrace> trace;
    double simulated_seconds = 0;
  };

  GrowOutput Grow(const MiddlewareConfig& config) {
    GrowOutput out;
    server_->ResetCostCounters();
    auto mw = ClassificationMiddleware::Create(server_.get(), "data", config);
    EXPECT_TRUE(mw.ok()) << mw.status().ToString();
    DecisionTreeClient client(dataset_->schema(), TreeClientConfig());
    auto tree = client.Grow(mw->get(), dataset_->TotalRows());
    EXPECT_TRUE(tree.ok()) << tree.status().ToString();
    if (tree.ok()) out.tree = tree->ToString(1 << 20);
    out.stats = (*mw)->stats();
    out.trace = (*mw)->trace();
    out.simulated_seconds = server_->SimulatedSeconds();
    return out;
  }

  TempDir dir_;
  std::unique_ptr<RandomTreeDataset> dataset_;
  std::unique_ptr<SqlServer> server_;
  std::string staging_;
};

TEST_F(MiddlewareBitmapTest, BitmapPathGrowsIdenticalTree) {
  GrowOutput row_serial = Grow(Config(false));

  // With no index built, the knob alone must not change anything.
  GrowOutput no_index = Grow(Config(true));
  EXPECT_EQ(no_index.tree, row_serial.tree);
  EXPECT_EQ(no_index.stats.bitmap_scans.load(), 0u);

  ASSERT_TRUE(server_->BuildBitmapIndex("data").ok());

  GrowOutput bitmap = Grow(Config(true));
  EXPECT_EQ(bitmap.tree, row_serial.tree);
  EXPECT_GT(bitmap.stats.bitmap_scans.load(), 0u);
  EXPECT_EQ(bitmap.stats.bitmap_fallbacks.load(), 0u);
  EXPECT_EQ(bitmap.stats.server_scans.load(), 0u);
  bool any_bitmap_batch = false;
  for (const auto& trace : bitmap.trace) {
    if (trace.served_from_bitmap) {
      any_bitmap_batch = true;
      EXPECT_EQ(trace.rows_scanned, 0u);  // counts, not rows
    }
  }
  EXPECT_TRUE(any_bitmap_batch);

  // Index present but knob off: plain row scans, same tree.
  GrowOutput knob_off = Grow(Config(false));
  EXPECT_EQ(knob_off.tree, row_serial.tree);
  EXPECT_EQ(knob_off.stats.bitmap_scans.load(), 0u);

  // Index present, knob on, but env kill-switch thrown.
  EnvVarScope env("SQLCLASS_BITMAP_INDEX", "0");
  GrowOutput env_off = Grow(Config(true));
  EXPECT_EQ(env_off.tree, row_serial.tree);
  EXPECT_EQ(env_off.stats.bitmap_scans.load(), 0u);
}

TEST_F(MiddlewareBitmapTest, BitmapPathMatchesParallelRowScan) {
  MiddlewareConfig parallel = Config(false);
  parallel.parallel_scan_threads = 4;
  GrowOutput row_parallel = Grow(parallel);

  ASSERT_TRUE(server_->BuildBitmapIndex("data").ok());
  GrowOutput bitmap = Grow(Config(true));
  EXPECT_EQ(bitmap.tree, row_parallel.tree);
}

TEST_F(MiddlewareBitmapTest, BitmapCostIsDeterministicAcrossRuns) {
  ASSERT_TRUE(server_->BuildBitmapIndex("data").ok());
  GrowOutput first = Grow(Config(true));
  GrowOutput second = Grow(Config(true));
  EXPECT_EQ(first.tree, second.tree);
  EXPECT_EQ(first.simulated_seconds, second.simulated_seconds);
  EXPECT_GT(first.simulated_seconds, 0.0);
}

TEST_F(MiddlewareBitmapTest, BitmapIsCheaperThanRowScan) {
  GrowOutput rows = Grow(Config(false));
  ASSERT_TRUE(server_->BuildBitmapIndex("data").ok());
  GrowOutput bitmap = Grow(Config(true));
  EXPECT_EQ(bitmap.tree, rows.tree);
  EXPECT_LT(bitmap.simulated_seconds, rows.simulated_seconds);
}

TEST_F(MiddlewareBitmapTest, TransientBitmapFaultsFallBackToRowScans) {
  FaultScope guard;
  GrowOutput baseline = Grow(Config(false));
  ASSERT_TRUE(server_->BuildBitmapIndex("data").ok());

  for (const char* point : {faults::kBitmapOpen, faults::kBitmapRead}) {
    SCOPED_TRACE(point);
    FaultInjector::Global().Reset();
    FaultInjector::PointConfig fault;
    fault.times = 1;
    FaultInjector::Global().Arm(point, fault);
    GrowOutput result = Grow(Config(true));
    EXPECT_EQ(result.tree, baseline.tree);
    EXPECT_EQ(FaultInjector::Global().Fires(point), 1u);
    EXPECT_GE(result.stats.bitmap_fallbacks.load(), 1u);
    // Only the faulted batch degrades; later batches reopen the index.
    EXPECT_GT(result.stats.bitmap_scans.load(), 0u);
  }
  FaultInjector::Global().Reset();
}

TEST_F(MiddlewareBitmapTest, PersistentBitmapFaultStillGrowsExactTree) {
  FaultScope guard;
  GrowOutput baseline = Grow(Config(false));
  ASSERT_TRUE(server_->BuildBitmapIndex("data").ok());

  for (const char* point : {faults::kBitmapOpen, faults::kBitmapRead}) {
    SCOPED_TRACE(point);
    FaultInjector::Global().Reset();
    // Unbounded fires: every bitmap pass fails, every batch must degrade.
    FaultInjector::Global().Arm(point, FaultInjector::PointConfig());
    GrowOutput result = Grow(Config(true));
    EXPECT_EQ(result.tree, baseline.tree);
    EXPECT_GT(FaultInjector::Global().Fires(point), 0u);
    EXPECT_GT(result.stats.bitmap_fallbacks.load(), 0u);
    EXPECT_EQ(result.stats.bitmap_scans.load(), 0u);
  }
  FaultInjector::Global().Reset();
}

TEST_F(MiddlewareBitmapTest, CorruptIndexDegradesToRowScans) {
  ChecksumToggle verify(true);
  GrowOutput baseline = Grow(Config(false));
  struct Corruption {
    const char* what;
    long offset;
    int mask;
  };
  // A rotted payload byte, and cardinality[0]'s high byte (zero in every
  // index of this table) set to 0xff: a header whose lengths the file
  // cannot hold must fail Open with a Status, not a huge allocation.
  for (const Corruption& corruption :
       {Corruption{"payload byte", -3, 0x5a},
        Corruption{"cardinality[0] high byte", 27, 0xff}}) {
    SCOPED_TRACE(corruption.what);
    if (server_->HasBitmapIndex("data")) {
      ASSERT_TRUE(server_->DropBitmapIndex("data").ok());
    }
    ASSERT_TRUE(server_->BuildBitmapIndex("data").ok());
    auto path = server_->BitmapIndexPath("data");
    ASSERT_TRUE(path.ok());
    FlipByte(*path, corruption.offset, corruption.mask);

    GrowOutput result = Grow(Config(true));
    EXPECT_EQ(result.tree, baseline.tree);
    EXPECT_GE(result.stats.bitmap_fallbacks.load(), 1u);
  }
}

// ---------------------------------------------------------------------------
// Service layer: shared scans served from the index.
// ---------------------------------------------------------------------------

class ServiceBitmapTest : public ::testing::Test {
 protected:
  void SetUp() override {
    RandomTreeParams params;
    params.num_attributes = 8;
    params.num_leaves = 20;
    params.cases_per_leaf = 40;
    params.num_classes = 4;
    params.seed = 777;
    auto dataset = RandomTreeDataset::Create(params);
    ASSERT_TRUE(dataset.ok());
    schema_ = (*dataset)->schema();
    ASSERT_TRUE((*dataset)->Generate(CollectInto(&rows_)).ok());
  }

  std::unique_ptr<ClassificationService> MakeService(ServiceConfig config,
                                                     bool build_index) {
    auto service = ClassificationService::Create(dir_.path(), config);
    EXPECT_TRUE(service.ok()) << service.status().ToString();
    EXPECT_TRUE((*service)->CreateAndLoadTable("data", schema_, rows_).ok());
    if (build_index) {
      MutexLock lock(*(*service)->server_mutex());
      EXPECT_TRUE((*service)->server()->BuildBitmapIndex("data").ok());
    }
    return std::move(service).value();
  }

  static SessionSpec TreeSpec() {
    SessionSpec spec;
    spec.table = "data";
    spec.task = SessionSpec::Task::kDecisionTree;
    return spec;
  }

  TempDir dir_;
  Schema schema_;
  std::vector<Row> rows_;
};

TEST_F(ServiceBitmapTest, SessionsServeFromBitmapIndex) {
  std::string reference;
  {
    ServiceConfig config;
    config.use_bitmap_index = false;
    auto service = MakeService(config, /*build_index=*/false);
    SessionResult result = service->Run(TreeSpec());
    ASSERT_TRUE(result.status.ok()) << result.status.ToString();
    reference = result.tree->Signature();
  }

  ServiceConfig config;
  config.worker_threads = 2;
  auto service = MakeService(config, /*build_index=*/true);
  SessionResult a = service->Run(TreeSpec());
  SessionResult b = service->Run(TreeSpec());
  ASSERT_TRUE(a.status.ok()) << a.status.ToString();
  ASSERT_TRUE(b.status.ok()) << b.status.ToString();
  EXPECT_EQ(a.tree->Signature(), reference);
  EXPECT_EQ(b.tree->Signature(), reference);

  ServiceMetrics metrics = service->Metrics();
  EXPECT_GT(metrics.bitmap_scans, 0u);
  EXPECT_EQ(metrics.bitmap_fallbacks, 0u);
  EXPECT_EQ(metrics.rows_scanned, 0u);  // every scan came from the index
}

TEST_F(ServiceBitmapTest, ServiceBitmapFaultFallsBackWithinTheScan) {
  FaultScope guard;
  std::string reference;
  {
    ServiceConfig config;
    config.use_bitmap_index = false;
    auto service = MakeService(config, /*build_index=*/false);
    SessionResult result = service->Run(TreeSpec());
    ASSERT_TRUE(result.status.ok());
    reference = result.tree->Signature();
  }

  auto service = MakeService(ServiceConfig(), /*build_index=*/true);
  FaultInjector::PointConfig fault;
  fault.times = 1;
  FaultInjector::Global().Arm(faults::kBitmapOpen, fault);
  SessionResult result = service->Run(TreeSpec());
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_EQ(result.tree->Signature(), reference);
  EXPECT_EQ(FaultInjector::Global().Fires(faults::kBitmapOpen), 1u);
  ServiceMetrics metrics = service->Metrics();
  EXPECT_GE(metrics.bitmap_fallbacks, 1u);
  EXPECT_GT(metrics.bitmap_scans, 0u);  // later scans reopen the index
}

}  // namespace
}  // namespace sqlclass
