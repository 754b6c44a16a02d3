#include "common/fault_injector.h"

#include <cstdlib>
#include <sstream>

#include "common/logging.h"

namespace sqlclass {

namespace internal_faults {
std::atomic<bool> g_enabled{false};
}  // namespace internal_faults

namespace {

constexpr uint64_t kDefaultSeed = 42;

/// Maps a spec `code:` token to the injected StatusCode.
bool ParseCodeToken(const std::string& token, StatusCode* out) {
  if (token == "io") {
    *out = StatusCode::kIoError;
  } else if (token == "dataloss") {
    *out = StatusCode::kDataLoss;
  } else if (token == "notfound") {
    *out = StatusCode::kNotFound;
  } else if (token == "internal") {
    *out = StatusCode::kInternal;
  } else if (token == "resource") {
    *out = StatusCode::kResourceExhausted;
  } else {
    return false;
  }
  return true;
}

// The SQLCLASS_FAULT_POINT fast path consults Global() only once g_enabled
// is set, and g_enabled is only set by Arm() — which for the env spec runs
// in Global()'s constructor. Force construction at process start, or
// SQLCLASS_FAULTS would never arm anything in a process that doesn't touch
// the injector API.
[[maybe_unused]] const FaultInjector& g_env_spec_bootstrap =
    FaultInjector::Global();

}  // namespace

FaultInjector::FaultInjector() : rng_(kDefaultSeed) {
  const char* spec = std::getenv("SQLCLASS_FAULTS");
  const char* seed = std::getenv("SQLCLASS_FAULTS_SEED");
  if (seed != nullptr) {
    MutexLock lock(mu_);
    rng_.seed(std::strtoull(seed, nullptr, 10));
  }
  if (spec != nullptr && spec[0] != '\0') {
    Status st = LoadFromSpec(spec);
    if (!st.ok()) {
      SQLCLASS_LOG(kError) << "ignoring malformed SQLCLASS_FAULTS: "
                           << st.ToString();
    }
  }
}

FaultInjector& FaultInjector::Global() {
  static FaultInjector* injector = new FaultInjector();
  return *injector;
}

const std::vector<std::string>& FaultInjector::KnownPoints() {
  static const std::vector<std::string>* points = new std::vector<std::string>{
      faults::kStorageOpen,          faults::kStorageRead,
      faults::kStorageWrite,         faults::kStorageClose,
      faults::kServerCursorAdvance,  faults::kStagingAppend,
      faults::kBitmapOpen,           faults::kBitmapRead,
      faults::kSampleOpen,           faults::kSampleRead,
      faults::kShardOpen,            faults::kShardRead,
      faults::kShardWorker,          faults::kShardRpcSend,
      faults::kShardRpcRecv,         faults::kShardWorkerCrash,
  };
  return *points;
}

void FaultInjector::Arm(const std::string& point, PointConfig config) {
  MutexLock lock(mu_);
  points_[point] = PointState{std::move(config), 0, 0};
  internal_faults::g_enabled.store(true, std::memory_order_relaxed);
}

void FaultInjector::Disarm(const std::string& point) {
  MutexLock lock(mu_);
  points_.erase(point);
  if (points_.empty()) {
    internal_faults::g_enabled.store(false, std::memory_order_relaxed);
  }
}

void FaultInjector::Reset() {
  MutexLock lock(mu_);
  points_.clear();
  rng_.seed(kDefaultSeed);
  internal_faults::g_enabled.store(false, std::memory_order_relaxed);
}

void FaultInjector::SetSeed(uint64_t seed) {
  MutexLock lock(mu_);
  rng_.seed(seed);
}

Status FaultInjector::LoadFromSpec(const std::string& spec) {
  std::istringstream points(spec);
  std::string entry;
  while (std::getline(points, entry, ';')) {
    if (entry.empty()) continue;
    const size_t eq = entry.find('=');
    if (eq == std::string::npos || eq == 0) {
      return Status::InvalidArgument("fault spec entry missing '=': " + entry);
    }
    const std::string name = entry.substr(0, eq);
    PointConfig config;
    std::istringstream keys(entry.substr(eq + 1));
    std::string kv;
    while (std::getline(keys, kv, ',')) {
      if (kv.empty()) continue;
      const size_t colon = kv.find(':');
      if (colon == std::string::npos) {
        return Status::InvalidArgument("fault spec key missing ':': " + kv);
      }
      const std::string key = kv.substr(0, colon);
      const std::string value = kv.substr(colon + 1);
      if (key == "after") {
        config.after = std::strtoull(value.c_str(), nullptr, 10);
      } else if (key == "times") {
        config.times = std::strtoull(value.c_str(), nullptr, 10);
      } else if (key == "prob") {
        config.probability = std::strtod(value.c_str(), nullptr);
        if (config.probability < 0.0 || config.probability > 1.0) {
          return Status::InvalidArgument("fault probability out of [0,1]: " +
                                         value);
        }
      } else if (key == "code") {
        if (!ParseCodeToken(value, &config.code)) {
          return Status::InvalidArgument("unknown fault code: " + value);
        }
      } else {
        return Status::InvalidArgument("unknown fault spec key: " + key);
      }
    }
    Arm(name, std::move(config));
  }
  return Status::OK();
}

Status FaultInjector::OnHit(const char* point) {
  MutexLock lock(mu_);
  auto it = points_.find(point);
  if (it == points_.end()) return Status::OK();
  PointState& state = it->second;
  const uint64_t hit = state.hits++;
  if (hit < state.config.after) return Status::OK();
  if (state.fires >= state.config.times) return Status::OK();
  if (state.config.probability < 1.0) {
    std::uniform_real_distribution<double> uniform(0.0, 1.0);
    if (uniform(rng_) >= state.config.probability) return Status::OK();
  }
  ++state.fires;
  std::string msg = "injected fault at ";
  msg += point;
  msg += " (hit " + std::to_string(hit + 1) + ")";
  if (!state.config.message.empty()) {
    msg += ": " + state.config.message;
  }
  return Status(state.config.code, std::move(msg));
}

uint64_t FaultInjector::Hits(const std::string& point) const {
  MutexLock lock(mu_);
  auto it = points_.find(point);
  return it == points_.end() ? 0 : it->second.hits;
}

uint64_t FaultInjector::Fires(const std::string& point) const {
  MutexLock lock(mu_);
  auto it = points_.find(point);
  return it == points_.end() ? 0 : it->second.fires;
}

}  // namespace sqlclass
