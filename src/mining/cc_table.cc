#include "mining/cc_table.h"

#include <algorithm>
#include <cassert>
#include <sstream>
#include <string>

namespace sqlclass {

CcTable::CcTable(int num_classes)
    : num_classes_(num_classes),
      class_totals_(num_classes, 0),
      zeros_(num_classes, 0) {
  assert(num_classes > 0);
}

int64_t* CcTable::MutableRow(int attr, Value value) {
  assert(attr >= 0 && value >= 0);
  if (static_cast<size_t>(attr) >= slabs_.size()) slabs_.resize(attr + 1);
  std::vector<int64_t>& slab = slabs_[attr];
  const size_t offset = static_cast<size_t>(value) * stride();
  if (offset >= slab.size()) slab.resize(offset + stride(), 0);
  return slab.data() + offset;
}

std::span<const int64_t> CcTable::Slab(int attr) const {
  if (attr < 0 || static_cast<size_t>(attr) >= slabs_.size()) return {};
  return slabs_[attr];
}

void CcTable::Add(int attr, Value value, Value class_value, int64_t count) {
  assert(class_value >= 0 && class_value < num_classes_);
  int64_t* row = MutableRow(attr, value);
  const bool was_live = Live(row);
  row[class_value] += count;
  num_entries_ += Live(row) - was_live;  // -1, 0 or +1 cells
}

void CcTable::AddRow(const Row& row, const std::vector<int>& attr_columns,
                     int class_column) {
  AddRow(row.data(), attr_columns, class_column);
}

void CcTable::AddRow(const Value* values, const std::vector<int>& attr_columns,
                     int class_column) {
  const Value class_value = values[class_column];
  assert(class_value >= 0 && class_value < num_classes_);
  for (int attr : attr_columns) {
    int64_t* row = MutableRow(attr, values[attr]);
    if (row[class_value] == 0 && !Live(row)) ++num_entries_;
    ++row[class_value];
  }
  AddClassTotal(class_value, 1);
}

void CcTable::AddRows(const Value* rows, size_t row_width,
                      std::span<const uint32_t> selection,
                      const std::vector<int>& attr_columns, int class_column) {
  const Value* classes = rows + class_column;
  for (int attr : attr_columns) {
    assert(attr >= 0);
    if (static_cast<size_t>(attr) >= slabs_.size()) slabs_.resize(attr + 1);
    std::vector<int64_t>& slab = slabs_[attr];
    int64_t* cells = slab.data();
    size_t extent = slab.size();
    const Value* column = rows + attr;
    size_t born = 0;  // cells this column brings to life
    for (uint32_t r : selection) {
      const Value value = column[r * row_width];
      assert(value >= 0);
      const size_t offset = static_cast<size_t>(value) * stride();
      if (offset >= extent) {
        slab.resize(offset + stride(), 0);
        cells = slab.data();
        extent = slab.size();
      }
      int64_t* row = cells + offset;
      const Value class_value = classes[r * row_width];
      if (row[class_value] == 0) born += !Live(row);
      ++row[class_value];
    }
    num_entries_ += born;
  }
  for (uint32_t r : selection) {
    const Value class_value = classes[r * row_width];
    assert(class_value >= 0 && class_value < num_classes_);
    ++class_totals_[class_value];
  }
  total_rows_ += static_cast<int64_t>(selection.size());
}

void CcTable::Merge(const CcTable& other) {
  assert(num_classes_ == other.num_classes_);
  for (int attr = 0; attr < other.AttributeBound(); ++attr) {
    AddSlab(attr, other.slabs_[attr]);
  }
  for (int c = 0; c < num_classes_; ++c) {
    class_totals_[c] += other.class_totals_[c];
  }
  total_rows_ += other.total_rows_;
}

Status CcTable::AddDifference(const CcTable& whole,
                              std::span<const CcTable* const> parts,
                              const std::vector<int>& attr_columns) {
  // Every difference is taken before any is added, so a failure leaves
  // the table as it was.
  std::vector<std::vector<int64_t>> diffs;
  diffs.reserve(attr_columns.size());
  for (int attr : attr_columns) {
    const std::span<const int64_t> from = whole.Slab(attr);
    std::vector<int64_t>& diff = diffs.emplace_back(from.begin(), from.end());
    for (const CcTable* part : parts) {
      assert(part->num_classes_ == num_classes_);
      const std::span<const int64_t> sub = part->Slab(attr);
      // A part's cell past `whole`'s extent subtracts from zero.
      if (diff.size() < sub.size()) diff.resize(sub.size(), 0);
      for (size_t k = 0; k < sub.size(); ++k) diff[k] -= sub[k];
    }
    if (std::any_of(diff.begin(), diff.end(),
                    [](int64_t c) { return c < 0; })) {
      return Status::Internal("CC difference negative at attribute " +
                              std::to_string(attr) +
                              ": the parts are not subsets of the whole");
    }
  }
  for (size_t j = 0; j < attr_columns.size(); ++j) {
    AddSlab(attr_columns[j], diffs[j]);
  }
  return Status::OK();
}

void CcTable::AddSlab(int attr, std::span<const int64_t> add) {
  assert(attr >= 0);
  if (static_cast<size_t>(attr) >= slabs_.size()) slabs_.resize(attr + 1);
  std::vector<int64_t>& into = slabs_[attr];
  if (into.size() < add.size()) into.resize(add.size(), 0);
  for (size_t offset = 0; offset < add.size(); offset += stride()) {
    const int64_t* counts = add.data() + offset;
    if (!Live(counts)) continue;
    int64_t* row = into.data() + offset;
    const bool was_live = Live(row);
    for (int c = 0; c < num_classes_; ++c) row[c] += counts[c];
    num_entries_ += Live(row) - was_live;
  }
}

void CcTable::Clear() {
  for (std::vector<int64_t>& slab : slabs_) {
    std::fill(slab.begin(), slab.end(), 0);
  }
  std::fill(class_totals_.begin(), class_totals_.end(), 0);
  num_entries_ = 0;
  total_rows_ = 0;
}

void CcTable::AddClassTotal(Value class_value, int64_t count) {
  assert(class_value >= 0 && class_value < num_classes_);
  class_totals_[class_value] += count;
  total_rows_ += count;
}

std::span<const int64_t> CcTable::GetCounts(int attr, Value value) const {
  const std::span<const int64_t> slab = Slab(attr);
  const size_t offset = static_cast<size_t>(value) * stride();
  if (value < 0 || offset >= slab.size()) return zeros_;
  return slab.subspan(offset, num_classes_);
}

int CcTable::DistinctValues(int attr) const {
  const std::span<const int64_t> slab = Slab(attr);
  int n = 0;
  for (size_t offset = 0; offset < slab.size(); offset += stride()) {
    n += Live(slab.data() + offset);
  }
  return n;
}

std::vector<std::pair<Value, std::span<const int64_t>>>
CcTable::AttributeStates(int attr) const {
  const std::span<const int64_t> slab = Slab(attr);
  std::vector<std::pair<Value, std::span<const int64_t>>> states;
  for (size_t offset = 0; offset < slab.size(); offset += stride()) {
    if (!Live(slab.data() + offset)) continue;
    states.emplace_back(static_cast<Value>(offset / stride()),
                        slab.subspan(offset, num_classes_));
  }
  return states;
}

size_t CcTable::BytesPerEntry(int num_classes) {
  // The paper's §5 entry: (attribute, value) key + count vector payload +
  // std::map node overhead (3 pointers + color + allocator slack, ~48 bytes
  // on 64-bit). Kept as the accounting unit so budgets do not depend on the
  // physical layout.
  return sizeof(std::pair<int, Value>) + sizeof(std::vector<int64_t>) +
         static_cast<size_t>(num_classes) * sizeof(int64_t) + 48;
}

size_t CcTable::ApproxBytes() const {
  return num_entries_ * BytesPerEntry(num_classes_) +
         class_totals_.size() * sizeof(int64_t);
}

bool CcTable::operator==(const CcTable& other) const {
  if (num_classes_ != other.num_classes_ || total_rows_ != other.total_rows_ ||
      num_entries_ != other.num_entries_ ||
      class_totals_ != other.class_totals_) {
    return false;
  }
  for (int attr = 0; attr < std::max(AttributeBound(), other.AttributeBound());
       ++attr) {
    std::span<const int64_t> a = Slab(attr);
    std::span<const int64_t> b = other.Slab(attr);
    if (a.size() < b.size()) std::swap(a, b);
    // Slabs may have grown to different extents; rows past the shorter
    // one must be empty.
    if (!std::equal(b.begin(), b.end(), a.begin()) ||
        std::any_of(a.begin() + b.size(), a.end(),
                    [](int64_t c) { return c != 0; })) {
      return false;
    }
  }
  return true;
}

std::string CcTable::ToString() const {
  std::ostringstream out;
  out << "CcTable{rows=" << total_rows_ << ", entries=" << num_entries_
      << ", class_totals=[";
  for (size_t i = 0; i < class_totals_.size(); ++i) {
    if (i > 0) out << ",";
    out << class_totals_[i];
  }
  out << "]}";
  return out.str();
}

}  // namespace sqlclass
