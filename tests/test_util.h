#ifndef SQLCLASS_TESTS_TEST_UTIL_H_
#define SQLCLASS_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "catalog/row.h"
#include "catalog/schema.h"
#include "common/fault_injector.h"
#include "common/random.h"
#include "mining/cc_table.h"
#include "sql/expr.h"
#include "storage/checksum.h"

namespace sqlclass {
namespace testing_util {

/// Unique scratch directory, removed recursively on destruction.
class TempDir {
 public:
  TempDir() {
    std::string pattern =
        (std::filesystem::temp_directory_path() / "sqlclass_XXXXXX").string();
    std::vector<char> buf(pattern.begin(), pattern.end());
    buf.push_back('\0');
    char* result = mkdtemp(buf.data());
    path_ = result != nullptr ? result : "/tmp";
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Resets the global fault injector on entry and exit so fault schedules
/// never leak between tests (the injector is process-global).
class FaultScope {
 public:
  FaultScope() { FaultInjector::Global().Reset(); }
  ~FaultScope() { FaultInjector::Global().Reset(); }
};

/// Sets the checksum-verification toggle, restoring it on scope exit.
class ChecksumToggle {
 public:
  explicit ChecksumToggle(bool enabled)
      : prev_(PageChecksumVerificationEnabled()) {
    SetPageChecksumVerification(enabled);
  }
  ~ChecksumToggle() { SetPageChecksumVerification(prev_); }

 private:
  bool prev_;
};

/// XORs the byte at `offset` of the file at `path` with `mask`; a negative
/// offset counts back from the end of the file.
inline void FlipByte(const std::string& path, long offset, int mask = 0x5a) {
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, offset, offset < 0 ? SEEK_END : SEEK_SET), 0);
  int c = std::fgetc(f);
  ASSERT_NE(c, EOF);
  ASSERT_EQ(std::fseek(f, -1, SEEK_CUR), 0);
  std::fputc(c ^ mask, f);
  std::fclose(f);
}

/// Schema with attributes A1..An of the given cardinalities plus a class
/// column "class" (last) with `num_classes` values.
inline Schema MakeSchema(const std::vector<int>& cards, int num_classes) {
  std::vector<AttributeDef> attrs;
  for (size_t i = 0; i < cards.size(); ++i) {
    AttributeDef attr;
    attr.name = "A" + std::to_string(i + 1);
    attr.cardinality = cards[i];
    attrs.push_back(std::move(attr));
  }
  AttributeDef class_attr;
  class_attr.name = "class";
  class_attr.cardinality = num_classes;
  attrs.push_back(std::move(class_attr));
  return Schema(std::move(attrs), static_cast<int>(cards.size()));
}

/// Uniform random rows in the schema's domain.
inline std::vector<Row> RandomRows(const Schema& schema, size_t n,
                                   uint64_t seed) {
  Random rng(seed);
  std::vector<Row> rows;
  rows.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    Row row(schema.num_columns());
    for (int c = 0; c < schema.num_columns(); ++c) {
      row[c] =
          static_cast<Value>(rng.Uniform(schema.attribute(c).cardinality));
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

/// Ground-truth CC table: direct scan of `rows` with `predicate` (nullptr =
/// all rows).
inline CcTable BruteForceCc(const std::vector<Row>& rows,
                            const Expr* predicate,
                            const std::vector<int>& attrs, int class_column,
                            int num_classes) {
  CcTable cc(num_classes);
  for (const Row& row : rows) {
    if (predicate != nullptr && !predicate->Eval(row)) continue;
    cc.AddRow(row, attrs, class_column);
  }
  return cc;
}

}  // namespace testing_util
}  // namespace sqlclass

#endif  // SQLCLASS_TESTS_TEST_UTIL_H_
