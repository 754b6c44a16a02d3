#ifndef SQLCLASS_SQLCLASS_H_
#define SQLCLASS_SQLCLASS_H_

/// Umbrella header: the public API of the scalable-classification library.
/// Include this (and link the sqlclass_* libraries) to get the embedded SQL
/// server, the classification middleware, the mining clients, and the data
/// tooling. Individual headers remain includable for finer-grained builds.

// Substrate: embedded SQL server and storage.
#include "server/server.h"          // SqlServer, ServerCursor, cost model
#include "sql/expr.h"               // predicate expressions
#include "sql/parser.h"             // SQL subset parser

// The paper's contribution: the classification middleware.
#include "middleware/async_provider.h"  // Fig. 3 threaded drive
#include "middleware/config.h"          // MiddlewareConfig knobs
#include "middleware/middleware.h"      // ClassificationMiddleware

// Mining clients and model tooling.
#include "mining/cc_provider.h"        // CcProvider contract
#include "mining/discretize.h"         // numeric-attribute handling
#include "mining/evaluate.h"           // confusion matrix, cross-validation
#include "mining/feature_selection.h"  // attribute ranking from CC tables
#include "mining/inmemory_provider.h"  // in-memory reference client
#include "mining/naive_bayes.h"        // Naive Bayes plug-in client
#include "mining/prune.h"              // post-pruning passes
#include "mining/tree_client.h"        // decision-tree client (Grow)
#include "mining/tree_export.h"        // rules / SQL CASE export
#include "mining/tree_io.h"            // model save/load

// Data: generators and CSV import/export.
#include "datagen/census.h"
#include "datagen/csv.h"
#include "datagen/gaussian.h"
#include "datagen/load.h"
#include "datagen/random_tree.h"

#endif  // SQLCLASS_SQLCLASS_H_
