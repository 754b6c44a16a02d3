#include "service/service.h"

#include <chrono>
#include <utility>

#include "mining/naive_bayes.h"
#include "mining/tree_client.h"

namespace sqlclass {

namespace {

/// CcProvider facade one worker hands to its session's client: every call
/// is forwarded to the shared batcher tagged with the session id, which is
/// where requests from concurrent sessions meet and merge. ReleaseNode is a
/// no-op — the batcher holds no per-node resources (CC tables are handed
/// over wholesale; there is no staging in the service scan path).
class SessionCcProvider : public CcProvider {
 public:
  SessionCcProvider(SharedScanBatcher* batcher, SessionId id)
      : batcher_(batcher), id_(id) {}

  Status QueueRequest(CcRequest request) override {
    return batcher_->Enqueue(id_, std::move(request));
  }

  StatusOr<std::vector<CcResult>> FulfillSome() override {
    return batcher_->Fulfill(id_);
  }

  size_t PendingRequests() const override { return batcher_->Outstanding(id_); }

 private:
  SharedScanBatcher* batcher_;
  SessionId id_;
};

double MsSince(std::chrono::steady_clock::time_point t) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t)
      .count();
}

}  // namespace

StatusOr<std::unique_ptr<ClassificationService>> ClassificationService::Create(
    const std::string& base_dir, ServiceConfig config) {
  if (config.worker_threads < 1) {
    return Status::InvalidArgument("service needs at least one worker");
  }
  if (config.memory_budget_bytes == 0) {
    return Status::InvalidArgument("memory budget must be positive");
  }
  ApplyEnvOverrides(&config);
  SQLCLASS_RETURN_IF_ERROR(Validate(config));
  return std::unique_ptr<ClassificationService>(
      new ClassificationService(base_dir, std::move(config)));
}

ClassificationService::ClassificationService(const std::string& base_dir,
                                             ServiceConfig config)
    : config_(std::move(config)),
      server_(std::make_unique<SqlServer>(base_dir, config_.cost_model)),
      batcher_(server_.get(), &server_mu_, config_),
      manager_(config_) {
  workers_.reserve(config_.worker_threads);
  for (int i = 0; i < config_.worker_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ClassificationService::~ClassificationService() { Shutdown(); }

Status ClassificationService::CreateAndLoadTable(const std::string& name,
                                                 const Schema& schema,
                                                 const std::vector<Row>& rows) {
  {
    MutexLock lock(server_mu_);
    SQLCLASS_RETURN_IF_ERROR(server_->CreateTable(name, schema));
    SQLCLASS_RETURN_IF_ERROR(server_->LoadRows(name, rows));
    server_->ResetCostCounters();
  }
  return batcher_.RegisterTable(name);
}

Status ClassificationService::RegisterTable(const std::string& name) {
  return batcher_.RegisterTable(name);
}

StatusOr<SessionId> ClassificationService::Submit(SessionSpec spec) {
  return manager_.Submit(std::move(spec));
}

SessionResult ClassificationService::Wait(SessionId id) {
  return manager_.Wait(id);
}

SessionResult ClassificationService::Run(SessionSpec spec) {
  StatusOr<SessionId> id = Submit(std::move(spec));
  if (!id.ok()) {
    SessionResult result;
    result.status = id.status();
    return result;
  }
  return Wait(id.value());
}

void ClassificationService::Shutdown() {
  {
    MutexLock lock(shutdown_mu_);
    if (shutdown_) return;
    shutdown_ = true;
  }
  manager_.CloseQueue();
  manager_.Drain();
  manager_.Stop();
  for (std::thread& worker : workers_) worker.join();
  workers_.clear();
}

ServiceMetrics ClassificationService::Metrics() const {
  ServiceMetrics metrics;
  manager_.FillMetrics(&metrics);
  batcher_.FillMetrics(&metrics);
  return metrics;
}

void ClassificationService::WorkerLoop() {
  while (true) {
    std::optional<SessionManager::Claim> claim = manager_.ClaimNext();
    if (!claim) return;
    SessionResult result = RunSession(*claim);
    manager_.Complete(claim->id, std::move(result));
  }
}

SessionResult ClassificationService::RunSession(
    const SessionManager::Claim& claim) {
  const auto started = std::chrono::steady_clock::now();
  SessionResult result;
  result.id = claim.id;
  result.queue_wait_ms = claim.queue_wait_ms;

  Status registered = batcher_.RegisterSession(claim.id, claim.spec.table,
                                               claim.quota_bytes);
  if (!registered.ok()) {
    result.status = registered;
    result.run_ms = MsSince(started);
    return result;
  }

  const Schema* schema = batcher_.GetSchema(claim.spec.table);
  const uint64_t table_rows = batcher_.TableRows(claim.spec.table);
  SessionCcProvider provider(&batcher_, claim.id);

  switch (claim.spec.task) {
    case SessionSpec::Task::kDecisionTree: {
      DecisionTreeClient client(*schema, claim.spec.tree_config);
      StatusOr<DecisionTree> tree = client.Grow(&provider, table_rows);
      result.requests_issued = client.requests_issued();
      if (tree.ok()) {
        result.tree =
            std::make_shared<const DecisionTree>(std::move(tree).value());
      } else {
        result.status = tree.status();
      }
      break;
    }
    case SessionSpec::Task::kNaiveBayes: {
      StatusOr<NaiveBayesModel> model =
          NaiveBayesModel::TrainWith(*schema, &provider, table_rows);
      result.requests_issued = 1;
      if (model.ok()) {
        result.model =
            std::make_shared<const NaiveBayesModel>(std::move(model).value());
      } else {
        result.status = model.status();
      }
      break;
    }
  }

  // Collect this session's credited share before unregistering drops it.
  result.cost = batcher_.CreditedCost(claim.id);
  result.scans_participated = batcher_.ScansParticipated(claim.id);
  result.simulated_seconds = config_.cost_model.SimulatedSeconds(result.cost);
  batcher_.UnregisterSession(claim.id);
  result.run_ms = MsSince(started);
  return result;
}

}  // namespace sqlclass
