#include "middleware/staging.h"

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "common/fault_injector.h"
#include "common/logging.h"

namespace sqlclass {

StagingManager::StagingManager(std::string dir, const Schema& schema,
                               CostCounters* cost)
    : dir_(std::move(dir)),
      num_columns_(schema.num_columns()),
      file_width_(NarrowestValueWidth(schema)),
      cost_(cost) {}

StagingManager::~StagingManager() {
  // Best-effort teardown: the staging directory may have been deleted out
  // from under us (operator cleanup, tmpfs reaping). Failures here must not
  // escalate — staged files are scratch state.
  for (auto& [id, file] : files_) {
    if (file.writer != nullptr) {
      Status finish = file.writer->Finish();
      if (!finish.ok()) {
        SQLCLASS_LOG(kWarning) << "staged file " << id
                               << " failed to finish during teardown: "
                               << finish.ToString();
      }
    }
    if (std::remove(file.path.c_str()) != 0 && errno != ENOENT) {
      SQLCLASS_LOG(kWarning) << "could not remove staged file " << file.path
                             << ": " << std::strerror(errno);
    }
  }
}

StatusOr<uint64_t> StagingManager::BeginFileStore() {
  const uint64_t id = next_id_++;
  FileStore file;
  file.path = dir_ + "/mwstage_" + std::to_string(id) + ".dat";
  SQLCLASS_ASSIGN_OR_RETURN(
      file.writer,
      HeapFileWriter::Create(file.path, num_columns_, &io_, file_width_));
  files_[id] = std::move(file);
  ++files_created_;
  return id;
}

Status StagingManager::FinishFileStore(uint64_t id) {
  auto it = files_.find(id);
  if (it == files_.end() || it->second.writer == nullptr) {
    return Status::Internal("staged file not open for writing: " +
                            std::to_string(id));
  }
  SQLCLASS_RETURN_IF_ERROR(it->second.writer->Finish());
  it->second.writer.reset();
  return Status::OK();
}

uint64_t StagingManager::BeginMemoryStore() {
  const uint64_t id = next_id_++;
  memory_.emplace(id, MemoryStore(num_columns_));
  ++memory_stores_created_;
  return id;
}

Status StagingManager::Append(const DataLocation& loc,
                              std::span<const std::span<const Value>> runs) {
  const size_t columns = static_cast<size_t>(num_columns_);
  size_t num_rows = 0;
  for (std::span<const Value> run : runs) num_rows += run.size() / columns;
  if (loc.kind == LocationKind::kMemory) {
    auto it = memory_.find(loc.store_id);
    if (it == memory_.end()) {
      return Status::NotFound("no memory store: " +
                              std::to_string(loc.store_id));
    }
    for (std::span<const Value> run : runs) {
      it->second.store.AppendRows(run.data(), run.size() / columns);
    }
    memory_bytes_used_ += num_rows * RowBytes();
    return Status::OK();
  }
  SQLCLASS_FAULT_POINT(faults::kStagingAppend);
  auto it = files_.find(loc.store_id);
  if (loc.kind != LocationKind::kFile || it == files_.end() ||
      it->second.writer == nullptr) {
    return Status::Internal("staged file not open for writing: " +
                            std::to_string(loc.store_id));
  }
  for (std::span<const Value> run : runs) {
    SQLCLASS_RETURN_IF_ERROR(
        it->second.writer->AppendRows(run.data(), run.size() / columns));
  }
  it->second.rows += num_rows;
  cost_->mw_file_rows_written += num_rows;
  file_bytes_used_ += num_rows * RowBytes();
  return Status::OK();
}

StatusOr<std::string> StagingManager::FileStorePath(uint64_t id) const {
  auto it = files_.find(id);
  if (it == files_.end()) {
    return Status::NotFound("no staged file: " + std::to_string(id));
  }
  if (it->second.writer != nullptr) {
    return Status::Internal("staged file still being written: " +
                            std::to_string(id));
  }
  return it->second.path;
}

StatusOr<const InMemoryRowStore*> StagingManager::GetMemoryStore(
    uint64_t id) const {
  auto it = memory_.find(id);
  if (it == memory_.end()) {
    return Status::NotFound("no memory store: " + std::to_string(id));
  }
  return &it->second.store;
}

StatusOr<uint64_t> StagingManager::StoreRows(const DataLocation& loc) const {
  switch (loc.kind) {
    case LocationKind::kServer:
      return Status::InvalidArgument("server is not a staged store");
    case LocationKind::kFile: {
      auto it = files_.find(loc.store_id);
      if (it == files_.end()) {
        return Status::NotFound("no staged file: " +
                                std::to_string(loc.store_id));
      }
      return it->second.rows;
    }
    case LocationKind::kMemory: {
      auto it = memory_.find(loc.store_id);
      if (it == memory_.end()) {
        return Status::NotFound("no memory store: " +
                                std::to_string(loc.store_id));
      }
      return static_cast<uint64_t>(it->second.store.num_rows());
    }
  }
  return Status::Internal("unreachable");
}

std::vector<DataLocation> StagingManager::LiveStores() const {
  std::vector<DataLocation> stores;
  stores.reserve(files_.size() + memory_.size());
  for (const auto& [id, file] : files_) {
    stores.push_back(DataLocation{LocationKind::kFile, id});
  }
  for (const auto& [id, store] : memory_) {
    stores.push_back(DataLocation{LocationKind::kMemory, id});
  }
  return stores;
}

Status StagingManager::Free(const DataLocation& loc) {
  switch (loc.kind) {
    case LocationKind::kServer:
      return Status::InvalidArgument("cannot free the server");
    case LocationKind::kFile: {
      auto it = files_.find(loc.store_id);
      if (it == files_.end()) {
        return Status::NotFound("no staged file: " +
                                std::to_string(loc.store_id));
      }
      if (it->second.writer != nullptr) {
        // The store is being discarded; a flush failure only means there is
        // less to delete. Log and keep freeing.
        Status finish = it->second.writer->Finish();
        if (!finish.ok()) {
          SQLCLASS_LOG(kWarning)
              << "staged file " << loc.store_id
              << " failed to finish while being freed: " << finish.ToString();
        }
        it->second.writer.reset();
      }
      file_bytes_used_ -= it->second.rows * RowBytes();
      if (std::remove(it->second.path.c_str()) != 0 && errno != ENOENT) {
        SQLCLASS_LOG(kWarning)
            << "could not remove staged file " << it->second.path << ": "
            << std::strerror(errno);
      }
      files_.erase(it);
      return Status::OK();
    }
    case LocationKind::kMemory: {
      auto it = memory_.find(loc.store_id);
      if (it == memory_.end()) {
        return Status::NotFound("no memory store: " +
                                std::to_string(loc.store_id));
      }
      memory_bytes_used_ -= it->second.store.MemoryBytes();
      memory_.erase(it);
      return Status::OK();
    }
  }
  return Status::Internal("unreachable");
}

}  // namespace sqlclass
