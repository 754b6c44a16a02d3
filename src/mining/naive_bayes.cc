#include "mining/naive_bayes.h"

#include <cmath>

#include "sql/expr.h"

namespace sqlclass {

StatusOr<NaiveBayesModel> NaiveBayesModel::Train(const Schema& schema,
                                                 const CcTable& root_cc) {
  SQLCLASS_RETURN_IF_ERROR(schema.Validate());
  if (!schema.has_class_column()) {
    return Status::InvalidArgument("schema has no class column");
  }
  NaiveBayesModel model;
  model.schema_ = schema;
  model.num_classes_ = root_cc.num_classes();
  model.predictor_columns_ = schema.PredictorColumns();

  const std::vector<int64_t>& totals = root_cc.ClassTotals();
  const int64_t n = root_cc.TotalRows();
  if (n <= 0) return Status::InvalidArgument("empty training data");

  model.log_priors_.resize(model.num_classes_);
  for (int c = 0; c < model.num_classes_; ++c) {
    // Add-one smoothed prior.
    model.log_priors_[c] =
        std::log(static_cast<double>(totals[c] + 1) /
                 static_cast<double>(n + model.num_classes_));
  }

  model.log_cond_.resize(model.predictor_columns_.size());
  for (size_t slot = 0; slot < model.predictor_columns_.size(); ++slot) {
    const int attr = model.predictor_columns_[slot];
    const int card = schema.attribute(attr).cardinality;
    std::vector<double>& table = model.log_cond_[slot];
    table.assign(static_cast<size_t>(card) * model.num_classes_, 0.0);
    for (Value v = 0; v < card; ++v) {
      const std::span<const int64_t> counts = root_cc.GetCounts(attr, v);
      for (int c = 0; c < model.num_classes_; ++c) {
        // Laplace smoothing over the attribute's domain.
        table[static_cast<size_t>(v) * model.num_classes_ + c] =
            std::log(static_cast<double>(counts[c] + 1) /
                     static_cast<double>(totals[c] + card));
      }
    }
  }
  return model;
}

StatusOr<NaiveBayesModel> NaiveBayesModel::TrainWith(const Schema& schema,
                                                     CcProvider* provider,
                                                     uint64_t table_rows) {
  CcRequest request;
  request.node_id = 0;
  request.parent_id = -1;
  request.predicate = Expr::True();
  request.active_attrs = schema.PredictorColumns();
  request.data_size = table_rows;
  SQLCLASS_RETURN_IF_ERROR(provider->QueueRequest(std::move(request)));
  SQLCLASS_ASSIGN_OR_RETURN(std::vector<CcResult> results,
                            provider->FulfillSome());
  if (results.size() != 1 || results[0].node_id != 0) {
    return Status::Internal("expected exactly the root CC table");
  }
  provider->ReleaseNode(0);
  return Train(schema, results[0].cc);
}

std::vector<double> NaiveBayesModel::LogScores(const Row& row) const {
  std::vector<double> scores = log_priors_;
  for (size_t slot = 0; slot < predictor_columns_.size(); ++slot) {
    const Value v = row[predictor_columns_[slot]];
    const std::vector<double>& table = log_cond_[slot];
    for (int c = 0; c < num_classes_; ++c) {
      scores[c] += table[static_cast<size_t>(v) * num_classes_ + c];
    }
  }
  return scores;
}

Value NaiveBayesModel::Classify(const Row& row) const {
  std::vector<double> scores = LogScores(row);
  Value best = 0;
  for (int c = 1; c < num_classes_; ++c) {
    if (scores[c] > scores[best]) best = static_cast<Value>(c);
  }
  return best;
}

double NaiveBayesModel::Accuracy(const std::vector<Row>& rows) const {
  if (rows.empty()) return 0.0;
  uint64_t correct = 0;
  const int class_column = schema_.class_column();
  for (const Row& row : rows) {
    if (Classify(row) == row[class_column]) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(rows.size());
}

}  // namespace sqlclass
