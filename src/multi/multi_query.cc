#include "multi/multi_query.h"

#include "common/logging.h"
#include "cost/cost_model.h"
#include "runtime/partition.h"

namespace fw {

double MultiQueryOptimizer::SharedPlan::ShardedCost(
    uint32_t num_shards, uint32_t num_keys) const {
  return shared_cost / EffectiveShards(num_shards, num_keys);
}

double MultiQueryOptimizer::SharedPlan::PredictedShardBoost(
    uint32_t num_shards, uint32_t num_keys) const {
  const double sharded = ShardedCost(num_shards, num_keys);
  return original_cost > 0.0 && sharded > 0.0 ? original_cost / sharded
                                              : 1.0;
}

double MultiQueryOptimizer::SharedPlan::PredictedResizeGain(
    uint32_t from_shards, uint32_t to_shards, uint32_t num_keys) const {
  const double from = ShardedCost(from_shards, num_keys);
  const double to = ShardedCost(to_shards, num_keys);
  return from > 0.0 && to > 0.0 ? from / to : 1.0;
}

Result<MultiQueryOptimizer::SharedPlan> MultiQueryOptimizer::Optimize(
    const std::vector<StreamQuery>& queries,
    const OptimizerOptions& options) {
  return Reoptimize(queries, options, /*with_baseline=*/true);
}

Result<MultiQueryOptimizer::SharedPlan> MultiQueryOptimizer::Reoptimize(
    const std::vector<StreamQuery>& queries, const OptimizerOptions& options,
    bool with_baseline) {
  if (queries.empty()) {
    return Status::InvalidArgument("no queries to optimize");
  }
  const StreamQuery& first = queries[0];
  if (first.agg == nullptr) {
    return Status::InvalidArgument("query without an aggregate function");
  }
  if (!SupportsSharing(first.agg)) {
    return Status::Unimplemented(
        first.agg->name +
        " is holistic; multi-query sharing is not supported");
  }
  for (const StreamQuery& q : queries) {
    if (q.source != first.source) {
      return Status::InvalidArgument(
          "all queries must read the same stream (got '" + q.source +
          "' vs '" + first.source + "')");
    }
    if (q.agg != first.agg) {
      return Status::InvalidArgument(
          "all queries must use the same aggregate function");
    }
    if (q.windows.empty()) {
      return Status::InvalidArgument("query without windows");
    }
  }

  // Merge the batch's windows (deduplicated; WindowSet::Add rejects
  // duplicates, which is exactly the coalescing we want).
  WindowSet merged;
  for (const StreamQuery& q : queries) {
    for (const Window& w : q.windows) {
      (void)merged.Add(w);
    }
  }

  Result<OptimizationOutcome> outcome =
      OptimizeQuery(merged, first.agg, options);
  if (!outcome.ok()) return outcome.status();

  SharedPlan shared{QueryPlan::FromMinCostWcg(outcome->with_factors,
                                              first.agg),
                    {},
                    outcome->with_factors.total_cost,
                    0.0,
                    0.0};
  // Original-plan baseline, costed under the merged set's hyper-period so
  // it is comparable with shared_cost (duplicate windows across queries
  // count once per subscribing query — the original plans really would
  // evaluate them repeatedly).
  CostModel original_model(merged, options.eta);
  for (const StreamQuery& q : queries) {
    for (const Window& w : q.windows) {
      shared.original_cost += original_model.UnsharedWindowCost(w);
    }
  }

  // Subscriptions: shared-plan operators are ordered like `merged` (query
  // windows first, factors after), so window -> operator lookup is by
  // position.
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    for (const Window& w : queries[qi].windows) {
      int op = -1;
      for (size_t i = 0; i < shared.plan.num_operators(); ++i) {
        if (shared.plan.op(static_cast<int>(i)).window == w) {
          op = static_cast<int>(i);
          break;
        }
      }
      FW_CHECK_GE(op, 0) << "query window missing from shared plan";
      shared.subscriptions.push_back(
          Subscription{static_cast<int>(qi), w, op});
    }
  }

  // Baseline for the savings report: each query optimized on its own
  // (factor windows included), operators not shared across queries.
  if (with_baseline) {
    for (const StreamQuery& q : queries) {
      Result<OptimizationOutcome> solo =
          OptimizeQuery(q.windows, q.agg, options);
      if (!solo.ok()) return solo.status();
      shared.independent_cost += solo->with_factors.total_cost;
    }
  }
  return shared;
}

RoutingSink::RoutingSink(const MultiQueryOptimizer::SharedPlan& shared,
                         const std::vector<StreamQuery>& queries,
                         std::vector<ResultSink*> sinks)
    : routes_(shared.plan.num_operators()), sinks_(std::move(sinks)) {
  FW_CHECK_EQ(sinks_.size(), queries.size());
  for (ResultSink* sink : sinks_) FW_CHECK(sink != nullptr);
  for (const MultiQueryOptimizer::Subscription& sub :
       shared.subscriptions) {
    // The query-local operator id is the window's position in that
    // query's own window set (matching QueryPlan::Original numbering).
    const WindowSet& windows =
        queries[static_cast<size_t>(sub.query_index)].windows;
    int local = -1;
    for (size_t i = 0; i < windows.size(); ++i) {
      if (windows[i] == sub.window) {
        local = static_cast<int>(i);
        break;
      }
    }
    FW_CHECK_GE(local, 0);
    const size_t op = static_cast<size_t>(sub.plan_operator);
    FW_CHECK_LT(op, routes_.size());
    routes_[op].push_back(Route{sub.query_index, local});
  }
}

void RoutingSink::OnResult(const WindowResult& result) {
  for (const Route& route : routes_[static_cast<size_t>(result.operator_id)]) {
    WindowResult rewritten = result;
    rewritten.operator_id = route.local_operator;
    sinks_[static_cast<size_t>(route.query_index)]->OnResult(rewritten);
  }
}

void RoutingSink::OnBlock(int operator_id, TimeT start, TimeT end,
                          const uint32_t* keys, const double* values,
                          size_t count) {
  for (const Route& route : routes_[static_cast<size_t>(operator_id)]) {
    sinks_[static_cast<size_t>(route.query_index)]->OnBlock(
        route.local_operator, start, end, keys, values, count);
  }
}

}  // namespace fw
