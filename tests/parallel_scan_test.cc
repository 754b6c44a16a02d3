// Tests for the morsel-parallel counting scan: the thread pool, batched
// page decoding, CC-table merging, and — the load-bearing property — that
// parallel scans produce CC tables and cost-counter totals identical to the
// serial path at every thread count.

#include "middleware/parallel_scan.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <future>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/bytes.h"
#include "common/mutex.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "datagen/random_tree.h"
#include "middleware/batch_executor.h"
#include "middleware/batch_matcher.h"
#include "middleware/config.h"
#include "middleware/middleware.h"
#include "middleware/staging.h"
#include "mining/cc_table.h"
#include "mining/inmemory_provider.h"
#include "mining/tree_client.h"
#include "server/server.h"
#include "service/shared_scan_batcher.h"
#include "shard/shard_map.h"
#include "sql/expr.h"
#include "storage/heap_file.h"
#include "storage/row_batch.h"
#include "storage/row_store.h"
#include "test_env.h"
#include "test_util.h"

namespace sqlclass {
namespace {

using testing_util::BruteForceCc;
using testing_util::FaultScope;
using testing_util::MakeSchema;
using testing_util::RandomRows;
using testing_util::TempDir;

// ---------------------------------------------------------------- ThreadPool

TEST(ThreadPoolTest, RunTasksRunsEveryIndexOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4);
  std::vector<std::atomic<int>> hits(64);
  pool.RunTasks(64, [&](int i) { hits[i].fetch_add(1); });
  for (int i = 0; i < 64; ++i) EXPECT_EQ(hits[i].load(), 1) << "task " << i;
}

TEST(ThreadPoolTest, SubmitAndWaitIdle) {
  ThreadPool pool(2);
  std::atomic<int> done{0};
  for (int i = 0; i < 100; ++i) pool.Submit([&] { done.fetch_add(1); });
  pool.WaitIdle();
  EXPECT_EQ(done.load(), 100);
}

TEST(ThreadPoolTest, ClampsToAtLeastOneThread) {
  ThreadPool pool(0);
  EXPECT_GE(pool.size(), 1);
  std::atomic<int> ran{0};
  pool.RunTasks(3, [&](int) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 3);
}

TEST(ThreadPoolTest, ResolveParallelThreads) {
  // The executor's thread count: a configured count, else the environment
  // override, else hardware concurrency.
  auto resolved = [](int configured) {
    CountingConfig config;
    config.parallel_scan_threads = configured;
    ApplyEnvOverrides(&config);
    return BatchExecutor(nullptr, config, nullptr).scan_threads();
  };
  testing_util::EnvVarScope env("SQLCLASS_PARALLEL_SCAN_THREADS", nullptr);
  EXPECT_EQ(resolved(3), 3);
  EXPECT_EQ(resolved(1), 1);

  // 0 defers to the environment override, then to hardware concurrency.
  env.Set("5");
  EXPECT_EQ(resolved(0), 5);
  env.Set("not-a-number");
  EXPECT_EQ(resolved(0), ThreadPool::HardwareConcurrency());
  env.Set(nullptr);
  EXPECT_EQ(resolved(0), ThreadPool::HardwareConcurrency());
  EXPECT_GE(ThreadPool::HardwareConcurrency(), 1);
}

// ------------------------------------------------------------------ morsels

TEST(MorselTest, PageMorselsCoverAllPagesInOrder) {
  for (uint64_t pages : {0ull, 1ull, 7ull, 8ull, 9ull, 100ull}) {
    for (uint64_t per : {0ull, 1ull, 4ull, 1000ull}) {
      auto morsels = MakePageMorsels(pages, per);
      uint64_t next = 0;
      for (const PageRange& m : morsels) {
        EXPECT_EQ(m.begin, next);
        EXPECT_LT(m.begin, m.end);
        EXPECT_LE(m.end - m.begin, per == 0 ? 1 : per);
        next = m.end;
      }
      EXPECT_EQ(next, pages) << "pages=" << pages << " per=" << per;
    }
  }
}

TEST(MorselTest, RowBlockMorselsCoverAllRows) {
  // 10 rows in morsels of 4 (the last one partial), of 1 (a 0 clamps to 1),
  // and of 16 (one morsel); and an empty block.
  Schema schema = MakeSchema({4, 4}, 2);
  std::vector<Row> rows;
  std::vector<Value> block;
  for (int i = 0; i < 10; ++i) {
    rows.push_back(Row{i % 4, (i / 2) % 4, i % 2});
    block.insert(block.end(), rows.back().begin(), rows.back().end());
  }
  const BatchMatcher matcher({nullptr});
  const std::vector<int> attrs = {0, 1};
  ParallelScanOptions options;
  options.class_column = schema.class_column();
  options.num_classes = 2;
  options.matcher = &matcher;
  options.node_attrs = {&attrs};
  const CcTable expected =
      BruteForceCc(rows, nullptr, attrs, schema.class_column(), 2);
  ThreadPool pool(3);
  for (size_t per : {4u, 0u, 16u}) {
    options.rows_per_morsel = per;
    auto scan = ParallelCountScan::OverRows(&pool, block.data(), rows.size(),
                                            schema.num_columns(), options,
                                            nullptr);
    ASSERT_TRUE(scan.ok()) << scan.status().ToString();
    EXPECT_EQ(scan->rows_scanned, rows.size()) << "per=" << per;
    EXPECT_TRUE(scan->ccs[0] == expected) << "per=" << per;
  }
  auto empty = ParallelCountScan::OverRows(&pool, block.data(), 0,
                                           schema.num_columns(), options,
                                           nullptr);
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty->rows_scanned, 0u);
  EXPECT_EQ(empty->ccs[0].TotalRows(), 0);
}

// ----------------------------------------------------------- batch decoding

TEST(RowBatchTest, ResetKeepsNoRowsAndAppendExposesThem) {
  RowBatch batch;
  EXPECT_TRUE(batch.empty());
  batch.Reset(2);
  Value* rows = batch.AppendRows(3);
  for (int i = 0; i < 6; ++i) rows[i] = i;
  EXPECT_EQ(batch.num_rows(), 3u);
  EXPECT_EQ(batch.RowAt(2)[1], 5);
  batch.Reset(2);
  EXPECT_TRUE(batch.empty());
}

class HeapFileBatchTest : public ::testing::Test {
 protected:
  // Writes `rows` to a fresh heap file of `width` and returns its path.
  std::string WriteFile(const std::vector<Row>& rows, int num_columns,
                        IoCounters* io,
                        ValueWidth width = ValueWidth::kFour) {
    std::string path = dir_.path() + "/batch.heap";
    auto writer = HeapFileWriter::Create(path, num_columns, io, width);
    EXPECT_TRUE(writer.ok()) << writer.status().ToString();
    for (const Row& row : rows) {
      Status s = (*writer)->Append(row);
      EXPECT_TRUE(s.ok()) << s.ToString();
    }
    Status s = (*writer)->Finish();
    EXPECT_TRUE(s.ok()) << s.ToString();
    return path;
  }

  void ExpectBulkAppendMatchesRowByRow(const Schema& schema);

  TempDir dir_;
};

TEST_F(HeapFileBatchTest, ReadPageIntoMatchesRowByRowNext) {
  Schema schema = MakeSchema({5, 7, 3}, 2);
  std::vector<Row> rows = RandomRows(schema, 1200, /*seed=*/11);
  IoCounters write_io;
  std::string path = WriteFile(rows, schema.num_columns(), &write_io);

  IoCounters serial_io;
  auto serial = HeapFileReader::Open(path, schema.num_columns(), &serial_io);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  std::vector<Row> via_next;
  Row row;
  while (true) {
    auto more = (*serial)->Next(&row);
    ASSERT_TRUE(more.ok()) << more.status().ToString();
    if (!*more) break;
    via_next.push_back(row);
  }

  IoCounters batch_io;
  auto batched = HeapFileReader::Open(path, schema.num_columns(), &batch_io);
  ASSERT_TRUE(batched.ok()) << batched.status().ToString();
  std::vector<Row> via_batch;
  RowBatch batch;
  for (uint64_t page = 0; page < (*batched)->num_pages(); ++page) {
    Status s = (*batched)->ReadPageInto(page, &batch);
    ASSERT_TRUE(s.ok()) << s.ToString();
    for (size_t i = 0; i < batch.num_rows(); ++i) {
      const Value* v = batch.RowAt(i);
      via_batch.emplace_back(v, v + batch.num_columns());
    }
  }

  EXPECT_EQ(via_batch, via_next);
  EXPECT_EQ(via_batch, rows);
  // Batched decoding charges the same physical counters as row-by-row.
  EXPECT_EQ(batch_io.rows_read, serial_io.rows_read);
  EXPECT_EQ(batch_io.pages_read, serial_io.pages_read);
}

TEST_F(HeapFileBatchTest, ReadPageIntoCoversEveryPage) {
  Schema schema = MakeSchema({4, 4}, 2);
  std::vector<Row> rows = RandomRows(schema, 900, /*seed=*/13);
  std::string path = WriteFile(rows, schema.num_columns(), nullptr);

  auto reader = HeapFileReader::Open(path, schema.num_columns(), nullptr);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  const uint64_t pages = (*reader)->num_pages();
  const size_t slots = SlotsPerPage(schema.RowBytes());
  ASSERT_GT(pages, 1u);
  ASSERT_NE(rows.size() % slots, 0u);  // the last page is short

  // Every page in order, then the first page again and the short last page
  // after it: a reused batch holds exactly the page it last read.
  std::vector<uint64_t> order;
  for (uint64_t page = 0; page < pages; ++page) order.push_back(page);
  order.push_back(0);
  order.push_back(pages - 1);
  std::vector<Row> expected = rows;
  expected.insert(expected.end(), rows.begin(), rows.begin() + slots);
  expected.insert(expected.end(), rows.begin() + (pages - 1) * slots,
                  rows.end());
  std::vector<Row> collected;
  RowBatch batch;
  batch.Reserve(schema.num_columns(), slots);
  for (uint64_t page : order) {
    Status s = (*reader)->ReadPageInto(page, &batch);
    ASSERT_TRUE(s.ok()) << s.ToString();
    for (size_t i = 0; i < batch.num_rows(); ++i) {
      const Value* v = batch.RowAt(i);
      collected.emplace_back(v, v + batch.num_columns());
    }
  }
  EXPECT_EQ(collected, expected);
  EXPECT_FALSE((*reader)->ReadPageInto(pages, &batch).ok());
}

TEST_F(HeapFileBatchTest, BufferedWriterKeepsPerPageAccounting) {
  Schema schema = MakeSchema({8, 8, 8, 8}, 3);
  const size_t slots = SlotsPerPage(schema.RowBytes());
  // Enough rows that the writer flushes its multi-page buffer several times
  // and ends on a partial page.
  const size_t n = slots * (3 * kWriteBufferPages + 2) + slots / 2;
  std::vector<Row> rows = RandomRows(schema, n, /*seed=*/17);

  IoCounters io;
  std::string path = WriteFile(rows, schema.num_columns(), &io);
  const uint64_t expected_pages = (n + slots - 1) / slots;
  EXPECT_EQ(io.rows_written, n);
  EXPECT_EQ(io.pages_written, expected_pages);

  auto reader = HeapFileReader::Open(path, schema.num_columns(), nullptr);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_EQ((*reader)->num_rows(), n);
  EXPECT_EQ((*reader)->num_pages(), expected_pages);
  std::vector<Row> readback;
  Row row;
  while (true) {
    auto more = (*reader)->Next(&row);
    ASSERT_TRUE(more.ok()) << more.status().ToString();
    if (!*more) break;
    readback.push_back(row);
  }
  EXPECT_EQ(readback, rows);
}

TEST_F(HeapFileBatchTest, OpenForAppendContinuesPartialPage) {
  Schema schema = MakeSchema({6, 6}, 2);
  const size_t slots = SlotsPerPage(schema.RowBytes());
  // First batch ends mid-page; the append must continue that page in place.
  std::vector<Row> all = RandomRows(schema, slots + slots / 3 + 40,
                                    /*seed=*/19);
  const size_t first = slots + slots / 3;
  std::string path = dir_.path() + "/append.heap";

  auto writer = HeapFileWriter::Create(path, schema.num_columns(), nullptr);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  for (size_t i = 0; i < first; ++i) {
    ASSERT_TRUE((*writer)->Append(all[i]).ok());
  }
  ASSERT_TRUE((*writer)->Finish().ok());

  auto appender =
      HeapFileWriter::OpenForAppend(path, schema.num_columns(), nullptr);
  ASSERT_TRUE(appender.ok()) << appender.status().ToString();
  EXPECT_EQ((*appender)->existing_rows(), first);
  for (size_t i = first; i < all.size(); ++i) {
    ASSERT_TRUE((*appender)->Append(all[i]).ok());
  }
  ASSERT_TRUE((*appender)->Finish().ok());

  auto reader = HeapFileReader::Open(path, schema.num_columns(), nullptr);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_EQ((*reader)->num_rows(), all.size());
  std::vector<Row> readback;
  Row row;
  while (true) {
    auto more = (*reader)->Next(&row);
    ASSERT_TRUE(more.ok()) << more.status().ToString();
    if (!*more) break;
    readback.push_back(row);
  }
  EXPECT_EQ(readback, all);
}

// Appends rows of `schema` in chunks that cross page boundaries to a file
// of the schema's narrowest width, in bulk and row by row, and as the runs
// of one staged-file append: all three hold the same bytes and read back
// the same rows.
void HeapFileBatchTest::ExpectBulkAppendMatchesRowByRow(const Schema& schema) {
  const int columns = schema.num_columns();
  const ValueWidth width = NarrowestValueWidth(schema);
  const size_t row_bytes = RowCodec(columns, width).row_bytes();
  const size_t slots = SlotsPerPage(row_bytes);
  // One row, the rest of a page, a page and a row past the next boundary,
  // then enough pages to flush the write buffer and stop mid-page.
  const std::vector<size_t> chunks = {1, slots - 1, slots + 1,
                                      kWriteBufferPages * slots + 3};
  size_t total = 0;
  for (size_t chunk : chunks) total += chunk;
  const std::vector<Row> rows = RandomRows(schema, total, /*seed=*/23);
  std::vector<Value> values;
  for (const Row& row : rows) values.insert(values.end(), row.begin(), row.end());

  const std::string bulk_path = dir_.path() + "/bulk.heap";
  IoCounters bulk_io;
  {
    auto writer = HeapFileWriter::Create(bulk_path, columns, &bulk_io, width);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    size_t at = 0;
    for (size_t chunk : chunks) {
      Status s = (*writer)->AppendRows(values.data() + at * columns, chunk);
      ASSERT_TRUE(s.ok()) << s.ToString();
      at += chunk;
    }
    ASSERT_TRUE((*writer)->Finish().ok());
  }
  IoCounters row_io;
  const std::string row_path = WriteFile(rows, columns, &row_io, width);
  auto bytes_of = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
  };
  EXPECT_EQ(bytes_of(bulk_path), bytes_of(row_path));
  EXPECT_EQ(bulk_io.rows_written, row_io.rows_written);
  EXPECT_EQ(bulk_io.pages_written, row_io.pages_written);

  // The same chunks as the runs of one staged-file append: one fault
  // crossing, one mw_file_rows_written per row, the same bytes.
  CostCounters cost;
  StagingManager staging(dir_.path(), schema, &cost);
  auto id = staging.BeginFileStore();
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  std::vector<std::span<const Value>> runs;
  size_t at = 0;
  for (size_t chunk : chunks) {
    runs.emplace_back(values.data() + at * columns, chunk * columns);
    at += chunk;
  }
  {
    FaultScope faults;
    FaultInjector::PointConfig silent;
    silent.after = std::numeric_limits<uint64_t>::max();
    FaultInjector::Global().Arm(faults::kStagingAppend, silent);
    Status s = staging.Append(DataLocation{LocationKind::kFile, *id}, runs);
    ASSERT_TRUE(s.ok()) << s.ToString();
    EXPECT_EQ(FaultInjector::Global().Hits(faults::kStagingAppend), 1u);
  }
  ASSERT_TRUE(staging.FinishFileStore(*id).ok());
  EXPECT_EQ(cost.mw_file_rows_written.load(), total);
  auto staged_path = staging.FileStorePath(*id);
  ASSERT_TRUE(staged_path.ok()) << staged_path.status().ToString();
  EXPECT_EQ(bytes_of(*staged_path), bytes_of(row_path));

  // The last page is partial and reuses a buffer slot an earlier, full
  // page was written from: its empty slots still read as zeros.
  const std::string bytes = bytes_of(row_path);
  const size_t tail = kPageHeaderBytes + (total % slots) * row_bytes;
  ASSERT_EQ(bytes.size() % kPageSize, 0u);
  ASSERT_GT(bytes.size() / kPageSize, kWriteBufferPages);
  const std::string last_page = bytes.substr(bytes.size() - kPageSize);
  EXPECT_EQ(last_page.find_first_not_of('\0', tail), std::string::npos);

  auto reader = HeapFileReader::Open(bulk_path, columns, nullptr);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_EQ((*reader)->width(), width);
  RowBatch batch;
  std::vector<Row> by_page;
  for (uint64_t page = 0; page < (*reader)->num_pages(); ++page) {
    ASSERT_TRUE((*reader)->ReadPageInto(page, &batch).ok());
    for (size_t i = 0; i < batch.num_rows(); ++i) {
      by_page.emplace_back(batch.RowAt(i), batch.RowAt(i) + columns);
    }
  }
  EXPECT_EQ(by_page, rows);
  ASSERT_TRUE((*reader)->Reset().ok());
  std::vector<Row> by_row;
  Row row;
  while (true) {
    auto more = (*reader)->Next(&row);
    ASSERT_TRUE(more.ok()) << more.status().ToString();
    if (!*more) break;
    by_row.push_back(row);
  }
  EXPECT_EQ(by_row, rows);
}

TEST_F(HeapFileBatchTest, BulkAppendMatchesRowByRowAcrossPageBoundaries) {
  // A 300-value column: four-byte values.
  ExpectBulkAppendMatchesRowByRow(MakeSchema({9, 5, 300}, 3));
}

TEST_F(HeapFileBatchTest, NarrowBulkAppendMatchesRowByRow) {
  ExpectBulkAppendMatchesRowByRow(MakeSchema({9, 5, 256}, 3));
}

// ----------------------------------------------------------------- CC merge

TEST(CcMergeTest, MergedPartitionsEqualSerialTable) {
  Schema schema = MakeSchema({5, 3, 7}, 4);
  std::vector<Row> rows = RandomRows(schema, 2000, /*seed=*/23);
  const std::vector<int> attrs = {0, 1, 2};
  const int class_col = schema.class_column();
  const int num_classes = schema.attribute(class_col).cardinality;

  CcTable serial = BruteForceCc(rows, nullptr, attrs, class_col, num_classes);

  // Three uneven disjoint partitions, merged in order.
  CcTable merged(num_classes);
  const size_t cuts[] = {0, 137, 1200, rows.size()};
  for (int part = 0; part < 3; ++part) {
    CcTable partial(num_classes);
    for (size_t i = cuts[part]; i < cuts[part + 1]; ++i) {
      partial.AddRow(rows[i].data(), attrs, class_col);
    }
    merged.Merge(partial);
  }
  EXPECT_TRUE(merged == serial);
  EXPECT_EQ(merged.TotalRows(), serial.TotalRows());

  // Merging an empty table is the identity.
  merged.Merge(CcTable(num_classes));
  EXPECT_TRUE(merged == serial);
}

TEST(CcMergeTest, DenseMergeEqualsSerial) {
  // Sorted rows give the two partitions different value ranges, so their
  // slabs grow to different extents; either merge order is still exact.
  Schema schema = MakeSchema({4, 6}, 3);
  std::vector<Row> rows = RandomRows(schema, 1500, /*seed=*/29);
  std::sort(rows.begin(), rows.end());
  const std::vector<int> attrs = {0, 1};
  CcTable left(3), right(3), left_first(3), right_first(3);
  for (size_t i = 0; i < rows.size(); ++i) {
    (i < 700 ? left : right).AddRow(rows[i], attrs, schema.class_column());
  }
  left_first.Merge(left);
  left_first.Merge(right);
  right_first.Merge(right);
  right_first.Merge(left);
  const CcTable serial =
      BruteForceCc(rows, nullptr, attrs, schema.class_column(), 3);
  EXPECT_TRUE(left_first == serial);
  EXPECT_TRUE(right_first == serial);
}

// ------------------------------------------------------- ParallelCountScan

struct NodeSpec {
  std::unique_ptr<Expr> predicate;
  std::vector<int> attrs;
};

// Random conjunction of up to `depth` (A = v) / (A <> v) literals.
std::unique_ptr<Expr> RandomPredicate(const Schema& schema, Random* rng,
                                      int depth) {
  std::vector<std::unique_ptr<Expr>> literals;
  for (int d = 0; d < depth; ++d) {
    const int col = static_cast<int>(rng->Uniform(schema.class_column()));
    const Value v = static_cast<Value>(
        rng->Uniform(schema.attribute(col).cardinality));
    literals.push_back(rng->Uniform(4) == 0
                           ? Expr::ColNe(schema.attribute(col).name, v)
                           : Expr::ColEq(schema.attribute(col).name, v));
  }
  if (literals.empty()) return Expr::True();
  if (literals.size() == 1) return std::move(literals[0]);
  return Expr::And(std::move(literals));
}

// Runs OverHeapFile at `threads` workers and returns the result.
StatusOr<ParallelScanResult> RunHeapScan(const std::string& path,
                                         const Schema& schema,
                                         const std::vector<NodeSpec>& nodes,
                                         bool filter, int threads,
                                         const ScanCharge& charge,
                                         CostCounters* cost, IoCounters* io) {
  std::vector<const Expr*> predicates;
  for (const NodeSpec& node : nodes) predicates.push_back(node.predicate.get());
  BatchMatcher matcher(predicates);

  ParallelScanOptions options;
  options.pages_per_morsel = 2;
  options.class_column = schema.class_column();
  options.num_classes = schema.attribute(schema.class_column()).cardinality;
  options.matcher = &matcher;
  for (const NodeSpec& node : nodes) options.node_attrs.push_back(&node.attrs);
  options.filter = filter;
  options.charge = charge;

  ThreadPool pool(threads);
  return ParallelCountScan::OverHeapFile(&pool, path, schema.num_columns(),
                                         options, cost, io);
}

TEST(ParallelScanTest, HeapFileMatchesBruteForceAtEveryThreadCount) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    Random rng(seed * 7919);
    std::vector<int> cards;
    const int num_attrs = 3 + static_cast<int>(rng.Uniform(4));
    for (int i = 0; i < num_attrs; ++i) {
      cards.push_back(2 + static_cast<int>(rng.Uniform(7)));
    }
    Schema schema = MakeSchema(cards, 2 + static_cast<int>(rng.Uniform(3)));
    const size_t n = 1000 + rng.Uniform(4000);
    std::vector<Row> rows = RandomRows(schema, n, seed);

    TempDir dir;
    std::string path = dir.path() + "/scan.heap";
    auto writer = HeapFileWriter::Create(path, schema.num_columns(), nullptr);
    ASSERT_TRUE(writer.ok());
    for (const Row& row : rows) ASSERT_TRUE((*writer)->Append(row).ok());
    ASSERT_TRUE((*writer)->Finish().ok());

    // A frontier of nodes at mixed depths, all bound against the schema.
    std::vector<NodeSpec> nodes;
    const int num_nodes = 1 + static_cast<int>(rng.Uniform(6));
    for (int i = 0; i < num_nodes; ++i) {
      NodeSpec node;
      node.predicate =
          RandomPredicate(schema, &rng, static_cast<int>(rng.Uniform(3)));
      ASSERT_TRUE(node.predicate->Bind(schema).ok());
      for (int c = 0; c < schema.class_column(); ++c) {
        if (rng.Uniform(2) == 0) node.attrs.push_back(c);
      }
      if (node.attrs.empty()) node.attrs.push_back(0);
      nodes.push_back(std::move(node));
    }

    // Pushdown delivers exactly the rows some node predicate matches.
    uint64_t expected_delivered = 0;
    for (const Row& row : rows) {
      expected_delivered += std::any_of(
          nodes.begin(), nodes.end(),
          [&](const NodeSpec& node) { return node.predicate->Eval(row); });
    }

    const int class_col = schema.class_column();
    const int num_classes = schema.attribute(class_col).cardinality;
    ScanCharge charge;
    charge.server_row_evaluated = true;
    charge.cursor_transfer = true;

    std::string baseline_cost;
    for (int threads : {1, 2, 3, 4, 8, 16}) {
      CostCounters cost;
      IoCounters io;
      auto scan = RunHeapScan(path, schema, nodes, /*filter=*/true, threads,
                              charge, &cost, &io);
      ASSERT_TRUE(scan.ok()) << scan.status().ToString();
      ASSERT_EQ(scan->ccs.size(), nodes.size());
      EXPECT_EQ(scan->rows_scanned, n);
      EXPECT_EQ(scan->rows_delivered, expected_delivered);
      EXPECT_EQ(io.rows_read, n);

      uint64_t expected_updates = 0;
      for (size_t i = 0; i < nodes.size(); ++i) {
        CcTable expected = BruteForceCc(rows, nodes[i].predicate.get(),
                                        nodes[i].attrs, class_col,
                                        num_classes);
        EXPECT_TRUE(scan->ccs[i] == expected)
            << "seed=" << seed << " threads=" << threads << " node=" << i;
        EXPECT_EQ(scan->node_matches[i],
                  static_cast<uint64_t>(expected.TotalRows()));
        expected_updates += expected.TotalRows() * nodes[i].attrs.size();
      }
      EXPECT_EQ(scan->cc_updates, expected_updates);

      // Logical charges are identical at every thread count.
      EXPECT_EQ(cost.server_rows_evaluated.load(), n);
      EXPECT_EQ(cost.cursor_rows_transferred.load(), scan->rows_delivered);
      EXPECT_EQ(cost.cursor_values_transferred.load(),
                scan->rows_delivered * schema.num_columns());
      EXPECT_EQ(cost.mw_cc_updates.load(), expected_updates);
      if (baseline_cost.empty()) {
        baseline_cost = cost.ToString();
      } else {
        EXPECT_EQ(cost.ToString(), baseline_cost)
            << "seed=" << seed << " threads=" << threads;
      }
    }
  }
}

TEST(ParallelScanTest, FileChargeShapeMatchesStagedScan) {
  Schema schema = MakeSchema({4, 4, 4}, 2);
  std::vector<Row> rows = RandomRows(schema, 1000, /*seed=*/31);
  TempDir dir;
  std::string path = dir.path() + "/staged.heap";
  auto writer = HeapFileWriter::Create(path, schema.num_columns(), nullptr);
  ASSERT_TRUE(writer.ok());
  for (const Row& row : rows) ASSERT_TRUE((*writer)->Append(row).ok());
  ASSERT_TRUE((*writer)->Finish().ok());

  std::vector<NodeSpec> nodes;
  NodeSpec node;
  node.predicate = Expr::ColEq("A1", 1);
  ASSERT_TRUE(node.predicate->Bind(schema).ok());
  node.attrs = {1, 2};
  nodes.push_back(std::move(node));

  ScanCharge charge;
  charge.mw_file_read = true;
  CostCounters cost;
  IoCounters io;
  auto scan = RunHeapScan(path, schema, nodes, /*filter=*/false, 4, charge,
                          &cost, &io);
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  // Staged-file scans read every row through the middleware, no cursor.
  EXPECT_EQ(cost.mw_file_rows_read.load(), rows.size());
  EXPECT_EQ(cost.server_rows_evaluated.load(), 0u);
  EXPECT_EQ(cost.cursor_rows_transferred.load(), 0u);
}

TEST(ParallelScanTest, MemoryStoreMatchesBruteForce) {
  Schema schema = MakeSchema({5, 4, 3, 6}, 3);
  std::vector<Row> rows = RandomRows(schema, 3000, /*seed=*/37);
  InMemoryRowStore store(schema.num_columns());
  for (const Row& row : rows) store.Append(row);

  std::vector<NodeSpec> nodes;
  for (Value v = 0; v < 3; ++v) {
    NodeSpec node;
    node.predicate = Expr::ColEq("A1", v);
    ASSERT_TRUE(node.predicate->Bind(schema).ok());
    node.attrs = {1, 2, 3};
    nodes.push_back(std::move(node));
  }
  std::vector<const Expr*> predicates;
  for (const NodeSpec& node : nodes) predicates.push_back(node.predicate.get());
  BatchMatcher matcher(predicates);

  ParallelScanOptions options;
  options.rows_per_morsel = 256;
  options.class_column = schema.class_column();
  options.num_classes = schema.attribute(schema.class_column()).cardinality;
  options.matcher = &matcher;
  for (const NodeSpec& node : nodes) options.node_attrs.push_back(&node.attrs);
  options.charge.mw_memory_read = true;

  std::string baseline_cost;
  for (int threads : {1, 2, 4, 16}) {
    ThreadPool pool(threads);
    CostCounters cost;
    auto scan = ParallelCountScan::OverRows(&pool, store.RowAt(0),
                                            store.num_rows(),
                                            store.num_columns(), options,
                                            &cost);
    ASSERT_TRUE(scan.ok()) << scan.status().ToString();
    EXPECT_EQ(scan->rows_scanned, rows.size());
    EXPECT_EQ(cost.mw_memory_rows_read.load(), rows.size());
    for (size_t i = 0; i < nodes.size(); ++i) {
      CcTable expected =
          BruteForceCc(rows, nodes[i].predicate.get(), nodes[i].attrs,
                       schema.class_column(), options.num_classes);
      EXPECT_TRUE(scan->ccs[i] == expected) << "threads=" << threads;
    }
    if (baseline_cost.empty()) {
      baseline_cost = cost.ToString();
    } else {
      EXPECT_EQ(cost.ToString(), baseline_cost) << "threads=" << threads;
    }
  }
}

TEST(ParallelScanTest, RowOrdinalFilterScansExactlyTheShardsRows) {
  // Three full pages and a partial fourth, one page per morsel, so the
  // filter's page x SlotsPerPage + slot ordinals cross every page boundary.
  Schema schema = MakeSchema({5, 4, 3, 6}, 3);
  const size_t slots = SlotsPerPage(schema.RowBytes());
  const std::vector<Row> rows =
      RandomRows(schema, 3 * slots + slots / 3, /*seed=*/53);
  std::unique_ptr<Expr> a1 = Expr::ColEq("A1", 1);
  ASSERT_TRUE(a1->Bind(schema).ok());
  const BatchMatcher matcher({nullptr, a1.get()});
  const std::vector<int> attrs = {0, 1, 2, 3};
  ParallelScanOptions options;
  options.pages_per_morsel = 1;
  options.class_column = schema.class_column();
  options.num_classes = 3;
  options.matcher = &matcher;
  options.node_attrs = {&attrs, &attrs};
  ThreadPool pool(4);
  constexpr uint32_t kShards = 4;

  TempDir dir;
  for (ShardScheme scheme :
       {ShardScheme::kRoundRobin, ShardScheme::kHashRowId}) {
    const std::string heap =
        dir.path() + "/t" + std::to_string(static_cast<int>(scheme)) + ".heap";
    {
      auto writer = HeapFileWriter::Create(heap, schema.num_columns(), nullptr);
      ASSERT_TRUE(writer.ok());
      for (const Row& row : rows) ASSERT_TRUE((*writer)->Append(row).ok());
      ASSERT_TRUE((*writer)->Finish().ok());
    }
    ASSERT_TRUE(ShardSetWriter::BuildFromHeapFile(heap, schema.num_columns(),
                                                  kShards, scheme, nullptr)
                    .ok());
    uint64_t total = 0;
    for (uint32_t s = 0; s < kShards; ++s) {
      SCOPED_TRACE("scheme " + std::to_string(static_cast<int>(scheme)) +
                   ", shard " + std::to_string(s));
      auto shard =
          ParallelCountScan::OverHeapFile(&pool, ShardHeapPathFor(heap, s),
                                          schema.num_columns(), options,
                                          nullptr, nullptr);
      ParallelScanOptions filtered = options;
      filtered.row_filter = [scheme, s](uint64_t ordinal) {
        return ShardForRow(scheme, ordinal, kShards) == s;
      };
      auto primary = ParallelCountScan::OverHeapFile(
          &pool, heap, schema.num_columns(), filtered, nullptr, nullptr);
      ASSERT_TRUE(shard.ok()) << shard.status().ToString();
      ASSERT_TRUE(primary.ok()) << primary.status().ToString();
      EXPECT_GT(primary->rows_scanned, 0u);
      EXPECT_EQ(primary->rows_scanned, shard->rows_scanned);
      EXPECT_EQ(primary->node_matches, shard->node_matches);
      ASSERT_EQ(primary->ccs.size(), 2u);
      EXPECT_TRUE(primary->ccs[0] == shard->ccs[0]);
      EXPECT_TRUE(primary->ccs[1] == shard->ccs[1]);
      total += primary->rows_scanned;
    }
    EXPECT_EQ(total, rows.size());
  }
}

// A staged scan's result plus what it handed to `stage`, per node.
struct CrewRun {
  StatusOr<ParallelScanResult> scan;
  std::vector<std::vector<Value>> staged;
  std::string cost;
};

// Runs `scan` on its own thread. A scan that has not returned within the
// deadline fails the test and ends the process: a hung crew cannot be
// joined.
template <typename Scan>
auto WithinDeadline(Scan scan) {
  auto future = std::async(std::launch::async, std::move(scan));
  if (future.wait_for(std::chrono::seconds(120)) !=
      std::future_status::ready) {
    ADD_FAILURE() << "scan did not return within 120 s";
    std::fflush(stdout);
    std::_Exit(1);
  }
  return future.get();
}

// Scans `path` with every node staged; stage call `fail_stage_call`
// (1-based; 0: none) fails. `io` (nullable) gets the physical reads.
CrewRun RunStagedScan(ThreadPool* pool, const std::string& path,
                      int num_columns, ParallelScanOptions options,
                      int fail_stage_call = 0, IoCounters* io = nullptr) {
  std::vector<std::vector<Value>> staged(options.node_attrs.size());
  int calls = 0;
  options.staged.assign(options.node_attrs.size(), true);
  options.stage = [&](size_t node,
                      std::span<const std::span<const Value>> runs) {
    if (++calls == fail_stage_call) {
      return Status::IoError("injected stage failure");
    }
    for (std::span<const Value> run : runs) {
      staged[node].insert(staged[node].end(), run.begin(), run.end());
    }
    return Status::OK();
  };
  CostCounters cost;
  StatusOr<ParallelScanResult> scan = WithinDeadline([&] {
    return ParallelCountScan::OverHeapFile(pool, path, num_columns, options,
                                           &cost, io);
  });
  return CrewRun{std::move(scan), std::move(staged), cost.ToString()};
}

void ExpectSameRun(const CrewRun& got, const CrewRun& want) {
  ASSERT_TRUE(got.scan.ok()) << got.scan.status().ToString();
  ASSERT_TRUE(want.scan.ok()) << want.scan.status().ToString();
  ASSERT_EQ(got.scan->ccs.size(), want.scan->ccs.size());
  for (size_t i = 0; i < got.scan->ccs.size(); ++i) {
    EXPECT_TRUE(got.scan->ccs[i] == want.scan->ccs[i]) << "node " << i;
  }
  EXPECT_TRUE(got.scan->evicted == want.scan->evicted);
  EXPECT_EQ(got.scan->observed_bytes, want.scan->observed_bytes);
  EXPECT_EQ(got.scan->node_matches, want.scan->node_matches);
  EXPECT_EQ(got.scan->rows_scanned, want.scan->rows_scanned);
  EXPECT_EQ(got.scan->rows_delivered, want.scan->rows_delivered);
  EXPECT_EQ(got.scan->cc_updates, want.scan->cc_updates);
  EXPECT_EQ(got.cost, want.cost);
  EXPECT_EQ(got.staged, want.staged);
}

TEST(ParallelScanTest, CrewFailsCleanlyAfterSegmentBoundaries) {
  FaultScope faults;
  // A1 rises with the row, so node 0's table grows through the whole scan
  // and a CC bound set at half its final size is crossed mid-scan.
  Schema schema = MakeSchema({256, 4, 4, 4, 4, 4}, 3);
  const int columns = schema.num_columns();
  const size_t slots = SlotsPerPage(schema.RowBytes());
  // One page per morsel and 4 x 8 morsels per segment: five full segments
  // and a one-page sixth.
  const size_t pages_per_segment = 4 * 8;
  const size_t rows_per_segment = pages_per_segment * slots;
  const size_t n = 5 * rows_per_segment + slots / 2;
  std::vector<Row> rows = RandomRows(schema, n, /*seed=*/71);
  for (size_t i = 0; i < n; ++i) rows[i][0] = static_cast<Value>(i * 256 / n);
  TempDir dir;
  const std::string path = dir.path() + "/crew.heap";
  {
    auto writer = HeapFileWriter::Create(path, columns, nullptr);
    ASSERT_TRUE(writer.ok());
    for (const Row& row : rows) ASSERT_TRUE((*writer)->Append(row).ok());
    ASSERT_TRUE((*writer)->Finish().ok());
  }

  std::unique_ptr<Expr> a2 = Expr::ColEq("A2", 0);
  ASSERT_TRUE(a2->Bind(schema).ok());
  const BatchMatcher matcher({nullptr, a2.get()});
  const std::vector<int> all_attrs = {0, 1, 2, 3};
  const std::vector<int> some_attrs = {0, 4, 5};
  ParallelScanOptions options;
  options.pages_per_morsel = 1;
  options.class_column = schema.class_column();
  options.num_classes = 3;
  options.matcher = &matcher;
  options.node_attrs = {&all_attrs, &some_attrs};
  options.charge.mw_file_read = true;
  // Bounded but never crossed: segmented, no recount.
  options.cc_available = std::numeric_limits<size_t>::max() - 1;

  ThreadPool pool(4);
  const CrewRun reference = RunStagedScan(nullptr, path, columns, options);
  ASSERT_TRUE(reference.scan.ok()) << reference.scan.status().ToString();
  ExpectSameRun(RunStagedScan(&pool, path, columns, options), reference);

  {
    SCOPED_TRACE("page-read fault in segment 3");
    ParallelScanOptions faulted = options;
    faulted.page_fault_point = faults::kServerCursorAdvance;
    FaultInjector::PointConfig fault;
    fault.after = 3 * pages_per_segment + 5;
    fault.times = 1;
    fault.code = StatusCode::kDataLoss;
    FaultInjector::Global().Arm(faults::kServerCursorAdvance, fault);
    const CrewRun failed = RunStagedScan(&pool, path, columns, faulted);
    EXPECT_EQ(FaultInjector::Global().Fires(faults::kServerCursorAdvance), 1u);
    FaultInjector::Global().Reset();
    ASSERT_FALSE(failed.scan.ok());
    EXPECT_EQ(failed.scan.status().code(), StatusCode::kDataLoss);
    ExpectSameRun(RunStagedScan(&pool, path, columns, options), reference);
  }
  {
    // Segment 0's two stage calls commit while the crew counts segment 1;
    // the third (segment 1's) fails while it counts segment 2.
    SCOPED_TRACE("stage failure while the crew counts the next segment");
    const CrewRun failed =
        RunStagedScan(&pool, path, columns, options, /*fail_stage_call=*/3);
    ASSERT_FALSE(failed.scan.ok());
    EXPECT_EQ(failed.scan.status().message(), "injected stage failure");
    ExpectSameRun(RunStagedScan(&pool, path, columns, options), reference);
  }
  {
    SCOPED_TRACE("overflow recount in a middle segment");
    std::vector<Row> first_half(rows.begin(), rows.begin() + n / 2);
    ParallelScanOptions bounded = options;
    bounded.cc_available =
        BruteForceCc(first_half, nullptr, all_attrs, columns - 1, 3)
            .ApproxBytes() +
        BruteForceCc(first_half, a2.get(), some_attrs, columns - 1, 3)
            .ApproxBytes();
    const CrewRun serial = RunStagedScan(nullptr, path, columns, bounded);
    ASSERT_TRUE(serial.scan.ok()) << serial.scan.status().ToString();
    // Node 0 is evicted, and the rows it counted first place the check
    // that evicted it after the first segment and before the last.
    ASSERT_EQ(serial.scan->evicted[0], CcEviction::kRequeue);
    EXPECT_EQ(serial.scan->evicted[1], CcEviction::kNone);
    EXPECT_GT(serial.scan->node_matches[0], rows_per_segment);
    EXPECT_LT(serial.scan->node_matches[0], 4 * rows_per_segment);
    ExpectSameRun(RunStagedScan(&pool, path, columns, bounded), serial);
    ExpectSameRun(RunStagedScan(&pool, path, columns, options), reference);
  }
}

// The scan ParallelCountScan must reproduce, one row at a time over
// `rows` (the rows of a heap file, in file order): the row filter, the
// pushdown `filter` as an evaluated Expr (null: every row delivered), Match
// and AddRow per row, every node staged, and the overflow check after
// every check_interval-th delivered row.
CrewRun RowAtATimeScan(const std::vector<Row>& rows,
                       const ParallelScanOptions& options, const Expr* filter,
                       int num_columns) {
  const size_t n = options.node_attrs.size();
  ParallelScanResult result;
  for (size_t i = 0; i < n; ++i) result.ccs.emplace_back(options.num_classes);
  result.evicted.assign(n, CcEviction::kNone);
  result.observed_bytes.assign(n, 0);
  result.node_matches.assign(n, 0);
  std::vector<std::vector<Value>> staged(n);
  std::vector<int> matches;
  for (size_t ordinal = 0; ordinal < rows.size(); ++ordinal) {
    if (options.row_filter && !options.row_filter(ordinal)) continue;
    const Row& row = rows[ordinal];
    ++result.rows_scanned;
    if (filter != nullptr && !filter->Eval(row)) continue;
    ++result.rows_delivered;
    options.matcher->Match(row, &matches);
    for (int pos : matches) {
      if (result.evicted[pos] == CcEviction::kNone) {
        result.ccs[pos].AddRow(row, *options.node_attrs[pos],
                               options.class_column);
        ++result.node_matches[pos];
        result.cc_updates += options.node_attrs[pos]->size();
      }
      staged[pos].insert(staged[pos].end(), row.begin(), row.end());
    }
    if (result.rows_delivered % options.check_interval == 0) {
      EvictOverflow(options.cc_available, &result.ccs, &result.evicted,
                    &result.observed_bytes);
    }
  }
  CostCounters cost;
  cost.server_rows_evaluated += result.rows_scanned;
  cost.cursor_rows_transferred += result.rows_delivered;
  cost.cursor_values_transferred += result.rows_delivered * num_columns;
  cost.mw_cc_updates += result.cc_updates;
  return CrewRun{std::move(result), std::move(staged), cost.ToString()};
}

TEST(ParallelScanTest, BlocksMatchRowAtATimeScanWithChecksAndRowFilter) {
  // A1 rises with the row, so the tables grow through the whole scan and
  // a bound at half their final size is crossed mid-scan, between checks
  // 7 delivered rows apart.
  Schema schema = MakeSchema({64, 4, 4, 4}, 3);
  const int columns = schema.num_columns();
  const size_t slots = SlotsPerPage(schema.RowBytes());
  const size_t n = 70 * slots + slots / 2;  // 71 pages: 2+ segments at 4
  std::vector<Row> rows = RandomRows(schema, n, /*seed=*/83);
  for (size_t i = 0; i < n; ++i) rows[i][0] = static_cast<Value>(i * 64 / n);
  TempDir dir;
  const std::string path = dir.path() + "/blocks.heap";
  {
    auto writer = HeapFileWriter::Create(path, columns, nullptr);
    ASSERT_TRUE(writer.ok());
    for (const Row& row : rows) ASSERT_TRUE((*writer)->Append(row).ok());
    ASSERT_TRUE((*writer)->Finish().ok());
  }

  // Two trie nodes and one OR fallback; with a TRUE node too, or with
  // pushdown off. The reference evaluates the pushdown filter, their OR.
  struct Variant {
    const char* name;
    bool true_node;
    bool pushdown;
  };
  for (const Variant& variant : {Variant{"pushdown", false, true},
                                 Variant{"pushdown, TRUE node", true, true},
                                 Variant{"pushdown off", false, false}}) {
    SCOPED_TRACE(variant.name);
    std::vector<std::unique_ptr<Expr>> predicates;
    predicates.push_back(Expr::ColEq("A2", 0));
    std::vector<std::unique_ptr<Expr>> both;
    both.push_back(Expr::ColNe("A2", 0));
    both.push_back(Expr::ColEq("A3", 1));
    predicates.push_back(Expr::And(std::move(both)));
    std::vector<std::unique_ptr<Expr>> either;
    either.push_back(Expr::ColEq("A3", 0));
    either.push_back(Expr::ColEq("A4", 1));
    predicates.push_back(Expr::Or(std::move(either)));
    if (variant.true_node) predicates.push_back(Expr::True());
    std::vector<std::unique_ptr<Expr>> clauses;
    std::vector<const Expr*> raw;
    for (const auto& predicate : predicates) {
      ASSERT_TRUE(predicate->Bind(schema).ok());
      raw.push_back(predicate.get());
      clauses.push_back(predicate->Clone());
    }
    std::unique_ptr<Expr> filter;
    if (variant.pushdown) {
      filter = Expr::Or(std::move(clauses));
      ASSERT_TRUE(filter->Bind(schema).ok());
    }
    const BatchMatcher matcher(raw);
    ASSERT_FALSE(matcher.fully_indexed());

    const std::vector<int> all_attrs = {0, 1, 2};
    const std::vector<int> some_attrs = {0, 3};
    ParallelScanOptions options;
    options.pages_per_morsel = 1;
    options.class_column = schema.class_column();
    options.num_classes = 3;
    options.matcher = &matcher;
    options.node_attrs = {&all_attrs, &some_attrs, &all_attrs};
    if (variant.true_node) options.node_attrs.push_back(&some_attrs);
    options.filter = variant.pushdown;
    options.charge.server_row_evaluated = true;
    options.charge.cursor_transfer = true;
    options.check_interval = 7;
    options.row_filter = [](uint64_t ordinal) { return ordinal % 3 != 1; };
    options.cc_available = std::numeric_limits<size_t>::max() - 1;
    const CrewRun unbounded =
        RowAtATimeScan(rows, options, filter.get(), columns);
    size_t final_bytes = 0;
    for (const CcTable& cc : unbounded.scan->ccs) {
      final_bytes += cc.ApproxBytes();
    }
    options.cc_available = final_bytes / 2;

    const CrewRun reference =
        RowAtATimeScan(rows, options, filter.get(), columns);
    const std::vector<CcEviction>& evicted = reference.scan->evicted;
    ASSERT_GT(
        std::count(evicted.begin(), evicted.end(), CcEviction::kRequeue), 0);
    // Pushdown drops rows only when no node is TRUE.
    EXPECT_EQ(reference.scan->rows_delivered < reference.scan->rows_scanned,
              variant.pushdown && !variant.true_node);
    for (int threads : {1, 4}) {
      SCOPED_TRACE("threads " + std::to_string(threads));
      ThreadPool pool(threads);
      ExpectSameRun(RunStagedScan(&pool, path, columns, options), reference);
    }
  }
}

// A one-byte file scans exactly like the four-byte file of the same rows:
// the same tables, evictions, delivered and staged rows, logical charges
// and physical rows read, at 1, 2 and 4 workers, with a row filter,
// pushdown and overflow checks every 5 delivered rows. The one-column
// schema's narrow pages hold 4,088 two-value rows, twice the blocks of the
// widest four-byte page.
TEST(ParallelScanTest, NarrowFileScansLikeTheWideFile) {
  for (const std::vector<int>& cards :
       {std::vector<int>{64}, std::vector<int>{64, 4, 4, 4}}) {
    Schema schema = MakeSchema(cards, 3);
    const int columns = schema.num_columns();
    SCOPED_TRACE(std::to_string(columns) + " columns");
    const size_t narrow_slots = SlotsPerPage(columns);
    const size_t n = 9 * narrow_slots + narrow_slots / 3;
    // A1 rises with the row, so the tables grow through the whole scan and
    // a bound at half their final size is crossed mid-scan.
    std::vector<Row> rows = RandomRows(schema, n, /*seed=*/89);
    for (size_t i = 0; i < n; ++i) rows[i][0] = static_cast<Value>(i * 64 / n);
    TempDir dir;
    std::map<ValueWidth, std::string> paths;
    for (ValueWidth width : {ValueWidth::kFour, ValueWidth::kOne}) {
      paths[width] =
          dir.path() + "/w" + std::to_string(static_cast<int>(width));
      auto writer =
          HeapFileWriter::Create(paths[width], columns, nullptr, width);
      ASSERT_TRUE(writer.ok());
      for (const Row& row : rows) ASSERT_TRUE((*writer)->Append(row).ok());
      ASSERT_TRUE((*writer)->Finish().ok());
    }

    std::unique_ptr<Expr> low = Expr::ColEq("A1", 3);
    std::unique_ptr<Expr> high = Expr::ColNe("A1", 40);
    ASSERT_TRUE(low->Bind(schema).ok());
    ASSERT_TRUE(high->Bind(schema).ok());
    std::vector<std::unique_ptr<Expr>> either;
    either.push_back(low->Clone());
    either.push_back(high->Clone());
    std::unique_ptr<Expr> filter = Expr::Or(std::move(either));
    ASSERT_TRUE(filter->Bind(schema).ok());
    const BatchMatcher matcher({low.get(), high.get()});
    const std::vector<int> attrs = {0};
    ParallelScanOptions options;
    options.class_column = schema.class_column();
    options.num_classes = 3;
    options.matcher = &matcher;
    options.node_attrs = {&attrs, &attrs};
    options.filter = true;
    options.charge.server_row_evaluated = true;
    options.charge.cursor_transfer = true;
    options.check_interval = 5;
    options.row_filter = [](uint64_t ordinal) { return ordinal % 5 != 2; };
    const CrewRun unbounded =
        RowAtATimeScan(rows, options, filter.get(), columns);
    size_t final_bytes = 0;
    for (const CcTable& cc : unbounded.scan->ccs) {
      final_bytes += cc.ApproxBytes();
    }
    ParallelScanOptions unbounded_options = options;
    options.cc_available = final_bytes / 2;
    const CrewRun reference =
        RowAtATimeScan(rows, options, filter.get(), columns);
    ASSERT_NE(reference.scan->evicted[1], CcEviction::kNone);
    EXPECT_LT(reference.scan->rows_delivered, reference.scan->rows_scanned);

    for (int threads : {1, 2, 4}) {
      SCOPED_TRACE("threads " + std::to_string(threads));
      ThreadPool pool(threads);
      for (ValueWidth width : {ValueWidth::kFour, ValueWidth::kOne}) {
        ExpectSameRun(
            RunStagedScan(&pool, paths[width], columns, options), reference);
      }
      // Unbounded, nothing is recounted: each file's rows are read once.
      IoCounters wide_io;
      IoCounters narrow_io;
      ExpectSameRun(RunStagedScan(&pool, paths[ValueWidth::kFour], columns,
                                  unbounded_options, 0, &wide_io),
                    unbounded);
      ExpectSameRun(RunStagedScan(&pool, paths[ValueWidth::kOne], columns,
                                  unbounded_options, 0, &narrow_io),
                    unbounded);
      EXPECT_EQ(wide_io.rows_read, n);
      EXPECT_EQ(narrow_io.rows_read, n);
      EXPECT_EQ(narrow_io.pages_read, 10u);
      EXPECT_EQ(wide_io.pages_read,
                (n + SlotsPerPage(schema.RowBytes()) - 1) /
                    SlotsPerPage(schema.RowBytes()));
    }
  }
}

// --------------------------------------------------- middleware integration

// One middleware configuration a grow runs under.
struct WaveInput {
  const char* name;
  bool file_staging = false;
  bool memory_staging = false;
  size_t memory_budget_bytes = 0;  // 0: the config default
  uint64_t overflow_check_interval = 1024;
};

// Everything a grow produces that the scan thread count must not change.
struct WaveOutcome {
  std::vector<CcResult> results;  // in delivery order
  std::string tree;
  std::string cost;
  uint64_t cc_updates = 0;
  uint64_t server_scans = 0;
  uint64_t file_scans = 0;
  uint64_t memory_scans = 0;
  uint64_t sql_fallbacks = 0;
  uint64_t requeues = 0;
  int files_created = 0;
  int memory_stores_created = 0;
  std::map<uint64_t, std::string> staged_files;  // store id -> sealed bytes
};

// Passes a grow through to the middleware, recording each delivered CC and
// the bytes of every staged file the batch that delivered it sealed.
class RecordingProvider : public CcProvider {
 public:
  RecordingProvider(ClassificationMiddleware* middleware, WaveOutcome* out)
      : middleware_(middleware), out_(out) {}

  Status QueueRequest(CcRequest request) override {
    return middleware_->QueueRequest(std::move(request));
  }

  StatusOr<std::vector<CcResult>> FulfillSome() override {
    SQLCLASS_ASSIGN_OR_RETURN(std::vector<CcResult> results,
                              middleware_->FulfillSome());
    out_->results.insert(out_->results.end(), results.begin(), results.end());
    const StagingManager& staging = middleware_->staging();
    for (const DataLocation& loc : staging.LiveStores()) {
      if (loc.kind != LocationKind::kFile ||
          out_->staged_files.count(loc.store_id) != 0) {
        continue;
      }
      SQLCLASS_ASSIGN_OR_RETURN(const std::string path,
                                staging.FileStorePath(loc.store_id));
      std::ifstream in(path, std::ios::binary);
      out_->staged_files[loc.store_id] =
          std::string(std::istreambuf_iterator<char>(in), {});
    }
    return results;
  }

  void ReleaseNode(int node_id) override { middleware_->ReleaseNode(node_id); }
  size_t PendingRequests() const override {
    return middleware_->PendingRequests();
  }

 private:
  ClassificationMiddleware* middleware_;
  WaveOutcome* out_;
};

// Grows a depth-limited tree over `rows` under `input`, with every scan
// forced through `threads` workers.
WaveOutcome RunWave(const Schema& schema, const std::vector<Row>& rows,
                    const WaveInput& input, int threads) {
  WaveOutcome out;
  TempDir dir;
  SqlServer server(dir.path());
  Status s = server.CreateTable("data", schema);
  EXPECT_TRUE(s.ok()) << s.ToString();
  s = server.LoadRows("data", rows);
  EXPECT_TRUE(s.ok()) << s.ToString();
  server.ResetCostCounters();

  MiddlewareConfig config;
  config.staging_dir = dir.path();
  config.enable_file_staging = input.file_staging;
  config.enable_memory_staging = input.memory_staging;
  if (input.memory_budget_bytes != 0) {
    config.memory_budget_bytes = input.memory_budget_bytes;
  }
  config.overflow_check_interval = input.overflow_check_interval;
  config.parallel_scan_threads = threads;
  auto middleware = ClassificationMiddleware::Create(&server, "data", config);
  EXPECT_TRUE(middleware.ok()) << middleware.status().ToString();
  if (!middleware.ok()) return out;

  RecordingProvider provider(middleware->get(), &out);
  TreeClientConfig client_config;
  client_config.max_depth = 4;
  DecisionTreeClient client(schema, client_config);
  auto tree = client.Grow(&provider, rows.size());
  EXPECT_TRUE(tree.ok()) << tree.status().ToString();
  if (tree.ok()) out.tree = tree->ToString(1 << 20);

  out.cost = server.cost_counters().ToString();
  out.cc_updates = server.cost_counters().mw_cc_updates.load();
  const ClassificationMiddleware::Stats& stats = (*middleware)->stats();
  out.server_scans = stats.server_scans.load();
  out.file_scans = stats.file_scans.load();
  out.memory_scans = stats.memory_scans.load();
  out.sql_fallbacks = stats.sql_fallbacks.load();
  for (const auto& batch : (*middleware)->trace()) {
    out.requeues += static_cast<uint64_t>(batch.requeued);
  }
  out.files_created = (*middleware)->staging().files_created();
  out.memory_stores_created = (*middleware)->staging().memory_stores_created();
  return out;
}

void ExpectSameWave(const WaveOutcome& serial, const WaveOutcome& parallel) {
  ASSERT_EQ(parallel.results.size(), serial.results.size());
  for (size_t i = 0; i < serial.results.size(); ++i) {
    EXPECT_EQ(parallel.results[i].node_id, serial.results[i].node_id);
    EXPECT_TRUE(parallel.results[i].cc == serial.results[i].cc)
        << "result " << i;
  }
  EXPECT_EQ(parallel.tree, serial.tree);
  // The whole point: the simulated cost model cannot see thread count.
  EXPECT_EQ(parallel.cost, serial.cost);
  EXPECT_EQ(parallel.server_scans, serial.server_scans);
  EXPECT_EQ(parallel.file_scans, serial.file_scans);
  EXPECT_EQ(parallel.memory_scans, serial.memory_scans);
  EXPECT_EQ(parallel.sql_fallbacks, serial.sql_fallbacks);
  EXPECT_EQ(parallel.requeues, serial.requeues);
  EXPECT_EQ(parallel.files_created, serial.files_created);
  EXPECT_EQ(parallel.memory_stores_created, serial.memory_stores_created);
  EXPECT_TRUE(parallel.staged_files == serial.staged_files);
}

// A structured table wide enough (26 columns, ~80 rows a page) that a
// 4-worker scan of it spans several segments.
std::vector<Row> WaveRows(Schema* schema) {
  RandomTreeParams params;
  params.num_attributes = 25;
  params.num_classes = 3;
  params.num_leaves = 24;
  params.cases_per_leaf = 1000;
  params.seed = 53;
  auto dataset = RandomTreeDataset::Create(params);
  EXPECT_TRUE(dataset.ok()) << dataset.status().ToString();
  std::vector<Row> rows;
  if (!dataset.ok()) return rows;
  *schema = (*dataset)->schema();
  Status s = (*dataset)->Generate([&](const Row& row) {
    rows.push_back(row);
    return Status::OK();
  });
  EXPECT_TRUE(s.ok()) << s.ToString();
  return rows;
}

TEST(MiddlewareParallelTest, WaveResultsAndCostMatchSerialAtAnyThreadCount) {
  Schema schema = MakeSchema({4, 5, 3}, 3);
  std::vector<Row> rows = RandomRows(schema, 4000, /*seed=*/41);
  const WaveInput unstaged{"unstaged"};

  WaveOutcome serial = RunWave(schema, rows, unstaged, /*threads=*/1);
  ASSERT_FALSE(serial.results.empty());
  CcTable expected_root =
      BruteForceCc(rows, nullptr, {0, 1, 2}, schema.class_column(), 3);
  EXPECT_TRUE(serial.results[0].cc == expected_root);

  for (int threads : {2, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ExpectSameWave(serial, RunWave(schema, rows, unstaged, threads));
  }
}

// Staged batches fan out too: the stores they fill, and every later scan
// of them, match the 1-worker grow byte for byte at any worker count.
TEST(MiddlewareParallelTest, StagedWavesMatchSerialAtAnyThreadCount) {
  Schema schema;
  std::vector<Row> rows = WaveRows(&schema);
  ASSERT_FALSE(rows.empty());
  for (const WaveInput& input :
       {WaveInput{"file", /*file_staging=*/true, /*memory_staging=*/false},
        WaveInput{"memory", /*file_staging=*/false, /*memory_staging=*/true}}) {
    SCOPED_TRACE(input.name);
    WaveOutcome serial = RunWave(schema, rows, input, /*threads=*/1);
    if (input.file_staging) {
      EXPECT_GT(serial.file_scans, 0u);
      EXPECT_FALSE(serial.staged_files.empty());
    } else {
      EXPECT_GT(serial.memory_scans, 0u);
    }
    for (int threads : {2, 4, 8}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      ExpectSameWave(serial, RunWave(schema, rows, input, threads));
    }
  }
}

// Staged files take the schema's narrowest width: the generated table
// (at most 256 values a column) stages one-byte pages, and declaring one
// of its columns with 300 values makes the same grow stage four-byte
// pages. Either grow equals the in-memory reference's.
TEST(MiddlewareParallelTest, StagedFilesTakeTheSchemasWidth) {
  Schema narrow;
  std::vector<Row> rows = WaveRows(&narrow);
  ASSERT_FALSE(rows.empty());
  std::vector<AttributeDef> attrs = narrow.attributes();
  attrs[0].cardinality = 300;
  attrs[0].labels.clear();
  const Schema wide(attrs, narrow.class_column());
  const WaveInput file{"file", /*file_staging=*/true,
                       /*memory_staging=*/false};
  for (const auto& [schema, version] :
       {std::pair{narrow, kHeapNarrowVersion},
        std::pair{wide, kHeapWideVersion}}) {
    SCOPED_TRACE("page version " + std::to_string(version));
    InMemoryCcProvider reference(schema, &rows);
    TreeClientConfig client_config;
    client_config.max_depth = 4;
    auto tree = DecisionTreeClient(schema, client_config)
                    .Grow(&reference, rows.size());
    ASSERT_TRUE(tree.ok()) << tree.status().ToString();
    const WaveOutcome out = RunWave(schema, rows, file, /*threads=*/2);
    EXPECT_EQ(out.tree, tree->ToString(1 << 20));
    ASSERT_FALSE(out.staged_files.empty());
    for (const auto& [id, bytes] : out.staged_files) {
      ASSERT_EQ(bytes.size() % kPageSize, 0u);
      for (size_t page = 0; page < bytes.size(); page += kPageSize) {
        EXPECT_EQ(DecodeFixed32(bytes.data() + page + kPageVersionOffset),
                  version)
            << "store " << id << ", page " << page / kPageSize;
      }
    }
  }
}

// A budget so tight that CC tables overflow mid-scan, checked after every
// row: evictions land inside a segment, so the engine recounts it on the
// coordinator and must evict exactly the nodes the serial scan evicted.
TEST(MiddlewareParallelTest, BoundedWaveReplaysSerialEvictions) {
  Schema schema;
  std::vector<Row> rows = WaveRows(&schema);
  ASSERT_FALSE(rows.empty());
  const WaveInput bounded{"bounded", /*file_staging=*/true,
                          /*memory_staging=*/false,
                          /*memory_budget_bytes=*/15000,
                          /*overflow_check_interval=*/1};
  WaveOutcome serial = RunWave(schema, rows, bounded, /*threads=*/1);
  // The serial scan's numbers for this grow, taken before the engine
  // replaced it.
  EXPECT_EQ(serial.cc_updates, 1107939u);
  EXPECT_EQ(serial.requeues, 2u);
  EXPECT_EQ(serial.sql_fallbacks, 5u);
  for (int threads : {2, 4, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ExpectSameWave(serial, RunWave(schema, rows, bounded, threads));
  }
}

TEST(MiddlewareParallelTest, SmallScansStaySerial) {
  Schema schema = MakeSchema({3, 3}, 2);
  std::vector<Row> rows = RandomRows(schema, 500, /*seed=*/43);
  // Below the row floor the middleware must not spin up workers; results
  // are identical either way, so just check correctness with the default
  // (high) floor and a thread count that would otherwise parallelize.
  TempDir dir;
  SqlServer server(dir.path());
  ASSERT_TRUE(server.CreateTable("data", schema).ok());
  ASSERT_TRUE(server.LoadRows("data", rows).ok());

  MiddlewareConfig config;
  config.staging_dir = dir.path();
  config.parallel_scan_threads = 4;  // floor stays at the 32768 default
  auto middleware = ClassificationMiddleware::Create(&server, "data", config);
  ASSERT_TRUE(middleware.ok());

  CcRequest root;
  root.node_id = 0;
  root.parent_id = -1;
  root.predicate = Expr::True();
  root.active_attrs = {0, 1};
  root.data_size = rows.size();
  ASSERT_TRUE((*middleware)->QueueRequest(std::move(root)).ok());
  auto results = (*middleware)->FulfillSome();
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  ASSERT_EQ(results->size(), 1u);
  CcTable expected =
      BruteForceCc(rows, nullptr, {0, 1}, schema.class_column(), 2);
  EXPECT_TRUE((*results)[0].cc == expected);
}

TEST(MiddlewareParallelTest, NegativeThreadConfigRejected) {
  TempDir dir;
  SqlServer server(dir.path());
  Schema schema = MakeSchema({2, 2}, 2);
  ASSERT_TRUE(server.CreateTable("data", schema).ok());
  ASSERT_TRUE(server.LoadRows("data", RandomRows(schema, 10, 1)).ok());
  MiddlewareConfig config;
  config.staging_dir = dir.path();
  config.parallel_scan_threads = -2;
  auto middleware = ClassificationMiddleware::Create(&server, "data", config);
  EXPECT_FALSE(middleware.ok());
}

// ------------------------------------------------------ service integration

TEST(ServiceParallelTest, SharedScanBatcherMatchesSerialBatcher) {
  Schema schema = MakeSchema({4, 3, 5}, 2);
  std::vector<Row> rows = RandomRows(schema, 3000, /*seed=*/47);
  CcTable expected =
      BruteForceCc(rows, nullptr, {0, 1, 2}, schema.class_column(), 2);

  auto run = [&](int threads) -> std::pair<CcTable, std::string> {
    TempDir dir;
    SqlServer server(dir.path());
    EXPECT_TRUE(server.CreateTable("data", schema).ok());
    EXPECT_TRUE(server.LoadRows("data", rows).ok());
    server.ResetCostCounters();

    Mutex server_mu;
    ServiceConfig config;
    config.parallel_scan_threads = threads;
    SharedScanBatcher batcher(&server, &server_mu, config);
    EXPECT_TRUE(batcher.RegisterTable("data").ok());
    EXPECT_TRUE(batcher.RegisterSession(1, "data", 64ull << 20).ok());

    CcRequest root;
    root.node_id = 0;
    root.parent_id = -1;
    root.predicate = Expr::True();
    root.active_attrs = {0, 1, 2};
    root.data_size = rows.size();
    EXPECT_TRUE(batcher.Enqueue(1, std::move(root)).ok());
    auto results = batcher.Fulfill(1);
    EXPECT_TRUE(results.ok()) << results.status().ToString();
    EXPECT_EQ(results->size(), 1u);
    CcTable cc = results->empty() ? CcTable(2) : std::move((*results)[0].cc);
    std::string credited = batcher.CreditedCost(1).ToString();
    batcher.UnregisterSession(1);
    return {std::move(cc), std::move(credited)};
  };

  auto [serial_cc, serial_cost] = run(1);
  EXPECT_TRUE(serial_cc == expected);
  for (int threads : {2, 4}) {
    auto [parallel_cc, parallel_cost] = run(threads);
    EXPECT_TRUE(parallel_cc == expected) << "threads=" << threads;
    EXPECT_EQ(parallel_cost, serial_cost) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace sqlclass
